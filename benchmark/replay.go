package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"webwave/internal/cachestore"
	"webwave/internal/core"
	"webwave/internal/diskstore"
	"webwave/internal/forest"
	"webwave/internal/gateway"
	"webwave/internal/netproto"
	"webwave/internal/router"
	"webwave/internal/transport"
)

// Stage B: each layer replayed alone, on one goroutine, against its public
// API, with the workload's own documents, request sequence and session
// tokens. Call counts are fixed so the whole stage takes about a second.
const (
	replayFrames   = 8192
	replayRTTs     = 2000
	replayBatch    = 32
	replayDiskDocs = 64
	replayAppends  = 2000
	replaySyncs    = 10
)

func mallocs() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs)
}

// replaySequence is the document sequence the layer replays consume: the
// first closed-loop ring, or the first open-loop stream's documents.
func replaySequence(in *inputs) []uint16 {
	if len(in.Rings) > 0 {
		return in.Rings[0][:replayFrames]
	}
	seq := make([]uint16, 0, replayFrames)
	for i := 0; len(seq) < replayFrames; i++ {
		seq = append(seq, in.Streams[0][i%len(in.Streams[0])].Doc)
	}
	return seq
}

// replayLayers runs every layer replay and records its metrics.
func replayLayers(m *metricSet, sp spec, in *inputs, tmpRoot string, tr *tracer) error {
	seq := replaySequence(in)
	runtime.GC() // start from the same heap whatever the run before left behind
	replayNetproto(m, in, seq, tr)
	if err := replayTransport(m, in, seq, tr); err != nil {
		return fmt.Errorf("transport replay: %w", err)
	}
	if err := replayLocalHit(m, sp, in, seq, tmpRoot, tr); err != nil {
		return fmt.Errorf("local-hit replay: %w", err)
	}
	replayCachestore(m, sp, in, seq, tr)
	if err := replayDiskstore(m, sp, in, tmpRoot, tr); err != nil {
		return fmt.Errorf("diskstore replay: %w", err)
	}
	replaySmall(m, sp, in, seq, tr)
	return nil
}

// replayNetproto encodes and decodes the frames of the workload's request
// sequence: each request followed by the response carrying its body.
func replayNetproto(m *metricSet, in *inputs, seq []uint16, tr *tracer) {
	frames := make([]netproto.Envelope, 0, len(seq))
	for i, d := range seq {
		env := netproto.Envelope{Kind: netproto.TypeRequest, From: -1, To: 1, Origin: 1, ReqID: uint64(i + 1), Doc: in.DocIDs[d]}
		if i%2 == 1 {
			env = netproto.Envelope{Kind: netproto.TypeResponse, From: 1, To: 1, Origin: 1, ReqID: uint64(i),
				Doc: in.DocIDs[d], ServedBy: 1, Hops: 1, Body: in.Bodies[d]}
		}
		frames = append(frames, env)
	}
	size := 0
	for i := range frames {
		size += len(frames[i].Body) + 64
	}
	wire := make([]byte, 0, size) // sized up front: growing it is not codec work
	var buf []byte
	var err error
	a0 := mallocs()
	encode := tr.batch("netproto.encode", func() {
		for i := range frames {
			if buf, err = netproto.AppendFrameV2(buf[:0], &frames[i]); err != nil {
				panic(err) // the benchmark built these frames itself
			}
			wire = append(wire, buf...)
		}
	})
	a1 := mallocs()
	fr := netproto.NewFrameReader(bytes.NewReader(wire))
	var env netproto.Envelope
	decode := tr.batch("netproto.decode", func() {
		for range frames {
			if err := fr.ReadInto(&env); err != nil {
				panic(err)
			}
		}
	})
	a2 := mallocs()
	n := float64(len(frames))
	m.set("netproto.encode_ns_per_frame", float64(encode)/n, int64(n))
	m.set("netproto.decode_ns_per_frame", float64(decode)/n, int64(n))
	m.set("netproto.encode_allocs_per_frame", (a1-a0)/n, int64(n))
	m.set("netproto.decode_allocs_per_frame", (a2-a1)/n, int64(n))
	m.set("netproto.bytes_per_frame", float64(len(wire))/n, int64(n))
}

// replayTransport measures a TCP loopback connection: the round trip of a
// request frame against an echoing peer, then buffered sends flushed in
// batches. The peer's goroutine shares the process, so its allocations are
// counted too.
func replayTransport(m *metricSet, in *inputs, seq []uint16, tr *tracer) error {
	netw := transport.TCPNetwork{Version: netproto.Version2}
	l, err := netw.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer l.Close()
	echoed := make(chan struct{})
	go func() { // echo until the client closes
		defer close(echoed)
		peer, err := l.Accept()
		if err != nil {
			return
		}
		defer peer.Close()
		for {
			env, err := peer.Recv()
			if err != nil {
				return
			}
			if env.ReqID != 0 { // ReqID 0 marks the one-way batches
				_ = peer.Send(env) // a failed echo surfaces as the client's Recv error
			}
			netproto.PutEnvelope(env)
		}
	}()
	conn, err := netw.Dial(l.Addr())
	if err != nil {
		return err
	}
	rtts := make([]float64, 0, replayRTTs)
	tr.batch("transport.rtt", func() {
		for i := 0; i < replayRTTs && err == nil; i++ {
			req := netproto.Envelope{Kind: netproto.TypeRequest, From: -1, To: 1, Origin: 1, ReqID: uint64(i + 1), Doc: in.DocIDs[seq[i]]}
			start := time.Now()
			if err = conn.Send(&req); err != nil {
				return
			}
			var env *netproto.Envelope
			if env, err = conn.Recv(); err == nil {
				rtts = append(rtts, float64(time.Since(start))/float64(time.Microsecond))
				netproto.PutEnvelope(env)
			}
		}
	})
	if err != nil {
		conn.Close()
		<-echoed
		return err
	}
	bc := conn.(transport.BatchConn)
	a0 := mallocs()
	send := tr.batch("transport.send_batches", func() {
		for i := 0; i < replayFrames && err == nil; i++ {
			req := netproto.Envelope{Kind: netproto.TypeRequest, From: -1, To: 1, Origin: 1, Doc: in.DocIDs[seq[i]]}
			err = bc.SendBuffered(&req)
			if err == nil && i%replayBatch == replayBatch-1 {
				err = bc.Flush()
			}
		}
	})
	a1 := mallocs()
	conn.Close()
	<-echoed
	if err != nil {
		return err
	}
	m.set("transport.rtt_p50_us", percentile(sortedCopy(rtts), 50), replayRTTs)
	m.set("transport.send_ns_per_frame", float64(send)/replayFrames, replayFrames)
	m.set("transport.allocs_per_frame", (a1-a0)/replayFrames, replayFrames)
	return nil
}

// replayLocalHit measures a one-node stack: the raw round trip of a held
// document, then the same fetch through the gateway. Their difference is
// what the gateway adds.
func replayLocalHit(m *metricSet, sp spec, in *inputs, seq []uint16, tmpRoot string, tr *tracer) error {
	one := spec{Name: sp.Name, Nodes: 1, Docs: sp.Docs, DocBytes: sp.DocBytes}
	lone := &inputs{DocIDs: in.DocIDs, Bodies: in.Bodies} // no entries: nothing to prime
	st, err := buildStack(one, lone, tmpRoot)
	if err != nil {
		return err
	}
	defer st.close()
	conn, err := st.c.Network().Dial(st.c.Addr(0))
	if err != nil {
		return err
	}
	defer conn.Close()

	measure := func(span string, fetch func(i int) ([]byte, error)) (p50, allocs float64, err error) {
		rtts := make([]float64, 0, replayRTTs)
		a0 := mallocs()
		tr.batch(span, func() {
			for i := 0; i < replayRTTs && err == nil; i++ {
				start := time.Now()
				var body []byte
				if body, err = fetch(i); err == nil {
					rtts = append(rtts, float64(time.Since(start))/float64(time.Microsecond))
					if !in.checkBody(int(seq[i]), 0, body) {
						err = fmt.Errorf("wrong body for %s", in.DocIDs[seq[i]])
					}
				}
			}
		})
		return percentile(sortedCopy(rtts), 50), (mallocs() - a0) / replayRTTs, err
	}
	raw, rawAllocs, err := measure("server.local_hit", func(i int) ([]byte, error) {
		return fetchRaw(conn, 0, in.DocIDs[seq[i]], uint64(i+1))
	})
	if err != nil {
		return err
	}
	gw, gwAllocs, err := measure("gateway.serve_local", func(i int) ([]byte, error) {
		res := serve(st.gw, newRequest(http.MethodGet, in.DocIDs[seq[i]], 0, "", nil))
		if res.status != http.StatusOK {
			return nil, fmt.Errorf("status %d", res.status)
		}
		return res.body, nil
	})
	if err != nil {
		return err
	}
	m.set("server.local_hit_rtt_p50_us", raw, replayRTTs)
	m.set("server.local_hit_allocs_per_req", rawAllocs, replayRTTs)
	m.set("gateway.serve_local_p50_us", gw, replayRTTs)
	m.set("gateway.overhead_p50_us", gw-raw, replayRTTs)
	m.set("gateway.allocs_per_req", gwAllocs, replayRTTs)
	return nil
}

// replayCachestore replays the sequence against one standalone store at
// the workload's per-node budget: read, and insert on a miss. Its hit
// fraction is the ceiling a single node's memory puts on offload_frac.
func replayCachestore(m *metricSet, sp spec, in *inputs, seq []uint16, tr *tracer) {
	cfg := cachestore.Config{BudgetBytes: sp.CacheBudgetBytes, Shards: runtime.GOMAXPROCS(0)}
	store := cachestore.New(cfg)
	var hits, puts, evictPuts int
	var putDur, evictDur time.Duration
	tr.batch("cachestore.replay", func() {
		for _, d := range seq {
			if _, ok := store.Get(in.DocIDs[d]); ok {
				hits++
				continue
			}
			start := time.Now()
			evicted, _ := store.Put(in.DocIDs[d], in.Bodies[d])
			if dur := time.Since(start); len(evicted) > 0 {
				evictPuts++
				evictDur += dur
			} else {
				puts++
				putDur += dur
			}
		}
	})
	get := tr.batch("cachestore.get", func() {
		for _, d := range seq {
			store.Get(in.DocIDs[d])
		}
	})
	fresh := cachestore.New(cfg)
	a0 := mallocs()
	tr.batch("cachestore.put", func() {
		for _, d := range seq {
			fresh.Put(in.DocIDs[d], in.Bodies[d])
		}
	})
	a1 := mallocs()
	n := float64(len(seq))
	m.set("cachestore.get_ns", float64(get)/n, int64(n))
	m.set("cachestore.put_ns", ratio(float64(putDur), float64(puts)), int64(puts))
	m.set("cachestore.put_evict_ns", ratio(float64(evictDur), float64(evictPuts)), int64(evictPuts))
	m.set("cachestore.allocs_per_put", (a1-a0)/n, int64(n))
	m.set("cachestore.replay_hit_frac", float64(hits)/n, int64(n))
}

// replayDiskstore writes and reads the hottest bodies through a disk tier
// in a scratch directory, appends and syncs a journal beside it, and times
// reopening both, which is what a warm restart pays.
func replayDiskstore(m *metricSet, sp spec, in *inputs, tmpRoot string, tr *tracer) error {
	dir, err := os.MkdirTemp(tmpRoot, "replay-disk-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := diskstore.Config{Dir: filepath.Join(dir, "bodies"), BudgetBytes: sp.DiskBudgetBytes}
	store, err := diskstore.Open(cfg)
	if err != nil {
		return err
	}
	docs := min(replayDiskDocs, len(in.DocIDs))
	put := tr.batch("diskstore.put", func() {
		for d := 0; d < docs; d++ {
			store.Put(in.DocIDs[d], in.Bodies[d])
		}
	})
	var wrong core.DocID
	get := tr.batch("diskstore.get", func() {
		for d := 0; d < docs; d++ {
			if body, ok := store.Get(in.DocIDs[d]); ok && !in.checkBody(d, 0, body) {
				wrong = in.DocIDs[d]
			}
		}
	})
	if wrong != "" {
		return fmt.Errorf("wrong body read back for %s", wrong)
	}

	path := filepath.Join(dir, "journal.wal")
	j, _, err := diskstore.OpenJournal(path)
	if err != nil {
		return err
	}
	appendDur := tr.batch("diskstore.journal_append", func() {
		for i := 0; i < replayAppends && err == nil; i++ {
			err = j.Append(diskstore.OpAdmit, in.DocIDs[i%len(in.DocIDs)], float64(i))
		}
	})
	syncs := make([]float64, 0, replaySyncs)
	tr.batch("diskstore.journal_sync", func() {
		for i := 0; i < replaySyncs && err == nil; i++ {
			if err = j.Append(diskstore.OpTarget, in.DocIDs[0], float64(i)); err == nil {
				start := time.Now()
				err = j.Sync()
				syncs = append(syncs, float64(time.Since(start))/float64(time.Microsecond))
			}
		}
	})
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	var state map[core.DocID]diskstore.DocState
	reopen := tr.batch("diskstore.replay_open", func() {
		if _, err = diskstore.Open(cfg); err == nil {
			j, state, err = diskstore.OpenJournal(path)
		}
	})
	if err != nil {
		return err
	}
	if err := j.Close(); err != nil {
		return err
	}
	if len(state) != min(replayAppends, len(in.DocIDs)) {
		return fmt.Errorf("journal replayed %d documents, want %d", len(state), min(replayAppends, len(in.DocIDs)))
	}
	m.set("diskstore.put_us", float64(put)/float64(docs)/1e3, int64(docs))
	m.set("diskstore.get_us", float64(get)/float64(docs)/1e3, int64(docs))
	m.set("diskstore.journal_append_ns", float64(appendDur)/replayAppends, replayAppends)
	m.set("diskstore.journal_sync_us", percentile(sortedCopy(syncs), 50), replaySyncs)
	m.set("diskstore.replay_open_ms", ms(reopen), 1)
	return nil
}

// replaySmall times the three per-request decisions that involve no I/O:
// parsing a session token, classifying a request against the filter table,
// and the two-choices pick over replica roots.
func replaySmall(m *metricSet, sp spec, in *inputs, seq []uint16, tr *tracer) {
	// The token a session holds after writing the eight hottest documents.
	floors := make(map[core.DocID]uint64)
	for d := 0; d < min(8, len(in.DocIDs)); d++ {
		floors[in.DocIDs[d]] = uint64(d + 1)
	}
	token := gateway.FormatSession(floors)
	parsed := 0
	parse := tr.batch("gateway.session_parse", func() {
		for range seq {
			parsed += len(gateway.ParseSession(token))
		}
	})

	rt := router.New()
	for d := 0; d < len(in.DocIDs); d += 2 { // every other document is held
		rt.Install(in.DocIDs[d], nil)
	}
	classify := tr.batch("router.classify", func() {
		for _, d := range seq {
			rt.Classify(in.DocIDs[d])
		}
	})

	roots := []int{1, 2, 3}
	load := func(v int) float64 { return float64(v) }
	rng := rand.New(rand.NewSource(int64(in.Hash)))
	picked := 0
	choose := tr.batch("forest.two_choices", func() {
		for range seq {
			picked += forest.TwoChoices(roots, load, rng)
		}
	})
	n := float64(len(seq))
	if parsed == 0 || picked == 0 {
		panic("replay: session token or replica pick came back empty")
	}
	m.set("gateway.session_parse_ns", float64(parse)/n, int64(n))
	m.set("router.classify_ns", float64(classify)/n, int64(n))
	m.set("forest.two_choices_ns", float64(choose)/n, int64(n))
}
