package server

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"webwave/internal/core"
	"webwave/internal/netproto"
	"webwave/internal/transport"
)

// nopConn discards sends; the benchmarks drive the loop handlers directly,
// so nothing ever reads.
type nopConn struct{}

func (nopConn) Send(*netproto.Envelope) error     { return nil }
func (nopConn) Recv() (*netproto.Envelope, error) { return nil, transport.ErrClosed }
func (nopConn) Close() error                      { return nil }

func benchServer(b testing.TB, cfg Config) *Server {
	b.Helper()
	cfg.Network = transport.NewMemoryNetwork(transport.MemoryOptions{})
	if cfg.Addr == "" {
		cfg.Addr = "bench"
	}
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return s // not started: handlers run inline on the bench goroutine
}

// BenchmarkServeCachedRequest measures the queued request path on a home
// server: classify, account the flow windows, serve from cache, emit the
// response. The acceptance target is 0 allocs/op in steady state.
func BenchmarkServeCachedRequest(b *testing.B) {
	s := benchServer(b, Config{
		ID: 0, ParentID: -1,
		Docs: map[core.DocID][]byte{"hot": []byte("cached body bytes")},
	})
	env := &netproto.Envelope{Kind: netproto.TypeRequest, From: -1, Origin: 0, Doc: "hot"}
	ev := event{env: env, conn: nopConn{}}
	sh := s.shardFor("hot")
	sh.now = time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.ReqID = uint64(i + 1)
		sh.now = sh.now.Add(50 * time.Microsecond)
		sh.handle(ev)
	}
}

// BenchmarkFastPathServe measures the lock-free read fast path: one atomic
// index load, admission check, flow accounting and the pooled response —
// the work a connection goroutine does per cached hit without ever touching
// an event loop. Target: 0 allocs/op.
func BenchmarkFastPathServe(b *testing.B) {
	s := benchServer(b, Config{
		ID: 0, ParentID: -1,
		Docs: map[core.DocID][]byte{"hot": []byte("cached body bytes")},
	})
	env := &netproto.Envelope{Kind: netproto.TypeRequest, From: -1, Origin: 0, Doc: "hot"}
	conn := nopConn{}
	sh := s.shardFor("hot")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.ReqID = uint64(i + 1)
		if !s.tryFastServe(sh, shardHash(env.Doc), env, conn) {
			b.Fatal("fast path declined a pinned doc")
		}
	}
}

// BenchmarkForwardAndRespond measures the relay path on an interior node:
// hold a read on its document's flight, send the fetch upstream, and answer
// the read from the response. The flight is allocated on the document's
// first forward and reused, so the steady state allocates nothing.
func BenchmarkForwardAndRespond(b *testing.B) {
	s := benchServer(b, Config{ID: 1, ParentID: 0, ParentAddr: "parent"})
	s.parent.Store(&parentLink{id: 0, conn: nopConn{}})
	req := &netproto.Envelope{Kind: netproto.TypeRequest, From: -1, Origin: 1, Doc: "d"}
	resp := &netproto.Envelope{Kind: netproto.TypeResponse, From: 0, Origin: 1, Doc: "d", ServedBy: 0, Hops: 1, Body: []byte("x")}
	reqEv := event{env: req, conn: nopConn{}}
	respEv := event{env: resp, conn: nopConn{}}
	sh := s.shardFor("d")
	sh.now = time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := uint64(i + 1)
		req.ReqID, resp.ReqID = id, id
		sh.now = sh.now.Add(50 * time.Microsecond)
		sh.handle(reqEv)
		sh.handle(respEv)
	}
}

// BenchmarkGossipTick measures one gossip period on a node with eight
// children whose load stands still: the per-neighbor is-this-news check,
// and one refresh fan-out per Window.
func BenchmarkGossipTick(b *testing.B) {
	s := benchServer(b, Config{ID: 0, ParentID: -1})
	conns := make(map[int]transport.Conn, 8)
	for i := 1; i <= 8; i++ {
		conns[i] = nopConn{}
	}
	s.children.Store(&childView{conns: conns})
	s.ctrl.now = time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ctrl.now = s.ctrl.now.Add(time.Millisecond)
		s.ctrl.doGossip()
	}
}

// BenchmarkRateWindowAdd pins the cost of the per-request flow accounting.
func BenchmarkRateWindowAdd(b *testing.B) {
	w := newRateWindow(time.Second, 8)
	now := time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = now.Add(10 * time.Microsecond)
		w.Add(now, 1)
	}
}

// BenchmarkPublishChurn measures one publish plus one unpublish of a
// document on a shard that has `published` other documents in its index.
// The index is bucketed so that the cost does not grow with that number:
// the figures should stay within 2x of each other from 16 to 1024.
func BenchmarkPublishChurn(b *testing.B) {
	for _, published := range []int{16, 128, 1024} {
		b.Run(fmt.Sprintf("published=%d", published), func(b *testing.B) {
			s := benchServer(b, Config{ID: 0, ParentID: -1, NumShards: 1})
			sh := s.shards[0]
			sh.now = time.Now()
			body := []byte("body")
			for i := 0; i < published; i++ {
				sh.publish(core.DocID(fmt.Sprintf("resident-%04d", i)), body, 0)
			}
			// The churning set: on the disk-bound workload about a hundred
			// documents are unpublished per gossip period.
			churn := make([]core.DocID, 128)
			for i := range churn {
				churn[i] = core.DocID(fmt.Sprintf("churn-%03d", i))
			}
			perPeriod := time.Duration(len(churn))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				doc := churn[i%len(churn)]
				sh.now = sh.now.Add(s.cfg.GossipPeriod / perPeriod)
				sh.publish(doc, body, 0)
				sh.unpublish(sh.state(doc))
			}
		})
	}
}

// BenchmarkResidentDocBytes reports the shard-side heap cost of one resident
// document (bytes/doc): published with a target, served once on the fast
// path, and that serve and its arrival drained into the rate windows. The
// body is shared, so the figure is the per-document bookkeeping alone.
func BenchmarkResidentDocBytes(b *testing.B) {
	const docs = 10000
	ids := make([]core.DocID, docs)
	for i := range ids {
		ids[i] = core.DocID(fmt.Sprintf("doc-%05d", i))
	}
	body := []byte("body")
	var ms runtime.MemStats
	heap := func() uint64 {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var total uint64
	for i := 0; i < b.N; i++ {
		s := benchServer(b, Config{ID: 0, ParentID: -1, NumShards: 1})
		sh := s.shards[0]
		sh.now = time.Now()
		before := heap()
		for j, doc := range ids {
			sh.publish(doc, body, 0)
			sh.addTarget(doc, 1)
			if !request(s, doc, -1, uint64(j+1)) {
				b.Fatalf("fast path declined %s", doc)
			}
		}
		sh.now = sh.now.Add(s.cfg.GossipPeriod)
		sh.tick(false)
		total += heap() - before
		runtime.KeepAlive(s)
	}
	b.ReportMetric(float64(total)/float64(b.N*docs), "bytes/doc")
}

// BenchmarkDiskHitServe measures one queued request answered from the disk
// tier, end to end on the shard loop: the memory miss, the disk read, the
// offer back to memory and the response. Memory holds two of sixteen
// documents, and the benchmark pushes the ranks itself, so each offer lands
// on a known side of the gate. In /refused requests go round-robin over the
// fourteen others and the two residents rank higher: every offer is
// refused. In /readmit requests go round-robin over all sixteen, every
// document carries a target and a copy is pushed down to rank 0 once
// served: every offer re-admits the requested document and evicts a
// resident (unpublish of the victim, publish of the body).
func BenchmarkDiskHitServe(b *testing.B) {
	for _, readmit := range []bool{false, true} {
		name := "refused"
		if readmit {
			name = "readmit"
		}
		b.Run(name, func(b *testing.B) { benchDiskHit(b, readmit) })
	}
}

func benchDiskHit(b *testing.B, readmit bool) {
	const docs, docBytes = 16, 4 << 10
	s := benchServer(b, Config{
		ID: 0, ParentID: -1, NumShards: 1, CacheShards: 1,
		CacheBudgetBytes: 2 * docBytes,
		DataDir:          b.TempDir(),
		// No rebuild of the rate maps within a run: the served rates would
		// move the ranks this benchmark sets.
		DiffusionPeriod: time.Hour,
	})
	b.Cleanup(s.Stop) // closes the journal and the retained body descriptors
	sh := s.shards[0]
	sh.now = time.Now()
	ids := make([]core.DocID, docs)
	for i := range ids {
		ids[i] = core.DocID(fmt.Sprintf("doc-%03d", i))
		if !sh.admit(ids[i], make([]byte, docBytes), 0) {
			b.Fatalf("admit %s refused", ids[i])
		}
		if readmit {
			sh.addTarget(ids[i], 1)
		}
	}
	resident := s.cache.Docs()
	for _, d := range resident {
		if readmit {
			s.cache.SetRank(d, 0)
		} else {
			s.cache.SetRank(d, 1)
		}
	}
	sh.ratesAt = sh.now // as if the rate maps were just rebuilt: the next rebuild is an hour out
	cycle := ids
	if !readmit {
		cycle = ids[:docs-len(resident)] // the last two admitted stay resident
	}
	env := &netproto.Envelope{Kind: netproto.TypeRequest, From: -1, Origin: 0}
	ev := event{env: env, conn: nopConn{}}
	evicted := s.cache.Stats().Evictions
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Doc, env.ReqID = cycle[i%len(cycle)], uint64(i+1)
		sh.now = sh.now.Add(50 * time.Microsecond)
		sh.handle(ev)
		if readmit {
			s.cache.SetRank(env.Doc, 0)
		}
		if i%512 == 511 {
			sh.tick(false) // the loop's own timer: drain, credits, journal
		}
	}
	b.StopTimer()
	if sh.n.diskHits != int64(b.N) {
		b.Fatalf("%d of %d requests were disk hits", sh.n.diskHits, b.N)
	}
	evicted = s.cache.Stats().Evictions - evicted
	if readmit && evicted != int64(b.N) || !readmit && (evicted != 0 || sh.n.readmitsRefused != int64(b.N)) {
		b.Fatalf("%d requests: %d evictions, %d refused offers", b.N, evicted, sh.n.readmitsRefused)
	}
}

// BenchmarkShardTick measures one maintenance tick of a shard holding 64
// delegated copies, a gossip period after the last, with none, three or all
// of them served on the fast path in between. The tick's cost follows the
// touched entries, not the held ones: idle allocates nothing, and three
// touched cost a fraction of sixty-four.
func BenchmarkShardTick(b *testing.B) {
	for _, bc := range []struct {
		name    string
		touched int
	}{{"idle", 0}, {"3of64touched", 3}, {"64of64touched", 64}} {
		b.Run(bc.name, func(b *testing.B) {
			s, docs := gatedShard(b, Config{}, 64, 1e6)
			sh := s.shards[0]
			env := &netproto.Envelope{Kind: netproto.TypeRequest, From: 2, Origin: 1}
			round := func() {
				for _, doc := range docs[:bc.touched] {
					env.Doc = doc
					if !s.tryFastServe(sh, shardHash(doc), env, nopConn{}) {
						b.Fatalf("fast path declined %s", doc)
					}
				}
				sh.now = sh.now.Add(s.cfg.GossipPeriod)
				sh.tick(false)
			}
			// Reach the steady state first: windows full, or run dry.
			for i := 0; i < 3*int(s.cfg.Window/s.cfg.GossipPeriod); i++ {
				round()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round()
			}
		})
	}
}

// BenchmarkDiffusionStepQuiescent measures a diffusion step on a node with
// children whose inputs have not moved since the last one. Target: 0
// allocs/op.
func BenchmarkDiffusionStepQuiescent(b *testing.B) {
	s, _ := gatedShard(b, Config{}, 64, 100)
	c := s.ctrl
	for _, child := range []int{2, 3} {
		c.handle(event{conn: nopConn{}, env: &netproto.Envelope{Kind: netproto.TypeGossip, From: child, To: 1, Load: 50}})
	}
	c.doDiffusion() // the gossip just handled is news; after this step nothing is
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.now = c.now.Add(s.cfg.DiffusionPeriod)
		c.doDiffusion()
	}
}
