package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webwave/internal/core"
	"webwave/internal/netproto"
)

// TestFastPathServesPinnedDocs hammers a home server from several
// connections at once: pinned documents are published to the fast path, so
// most responses must be served without an event-loop hop, every body must
// be intact, and the scraped stats must account for every request (fast
// serves included) with coherent filter totals.
func TestFastPathServesPinnedDocs(t *testing.T) {
	netw := newTestNetwork()
	body := []byte("fast-path body")
	startServer(t, Config{
		ID: 0, Addr: "root", ParentID: -1,
		Docs:      map[core.DocID][]byte{"hot": body, "warm": body},
		Network:   netw,
		NumShards: 4,
	})

	const clients, perClient = 4, 50
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			conn, err := netw.Dial("root")
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			doc := core.DocID("hot")
			if cl%2 == 1 {
				doc = "warm"
			}
			for i := 0; i < perClient; i++ {
				reqID := uint64(cl)<<32 | uint64(i+1)
				if err := conn.Send(&netproto.Envelope{
					Kind: netproto.TypeRequest, From: -1, Origin: 0, ReqID: reqID, Doc: doc,
				}); err != nil {
					errs <- err
					return
				}
				for {
					env, err := conn.Recv()
					if err != nil {
						errs <- err
						return
					}
					if env.Kind != netproto.TypeResponse || env.ReqID != reqID {
						netproto.PutEnvelope(env)
						continue
					}
					if env.NotFound || string(env.Body) != string(body) {
						errs <- fmt.Errorf("client %d: bad response %+v", cl, env)
						netproto.PutEnvelope(env)
						return
					}
					netproto.PutEnvelope(env)
					break
				}
			}
		}(cl)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := scrape(t, netw, "root")
	total := int64(clients * perClient)
	if st.Served != total {
		t.Fatalf("served = %d, want %d", st.Served, total)
	}
	if st.FastServed == 0 {
		t.Fatal("no request took the fast path on pinned docs")
	}
	if st.FastServed > st.Served {
		t.Fatalf("fast served %d exceeds served %d", st.FastServed, st.Served)
	}
	// Filter accounting covers every request whichever path it took.
	if st.FilterStats.Inspected < total {
		t.Fatalf("filter inspected %d < %d requests", st.FilterStats.Inspected, total)
	}
}

// TestFastPathRaceEvictRepublish races concurrent reads against eviction
// and republication of the same documents: a tight byte budget and a
// stream of delegations keep copies churning in and out of the store (and
// the publication index) while readers hammer them. Run under -race this
// pins the dead-flag/copy-on-write discipline; functionally every request
// must still be answered — served from a live copy or answered by the home
// server — and the budget must hold. Forty documents share the index's
// buckets: a publish and an unpublish each rewrite a bucket other
// documents are being served from, and no serve counted on an entry may be
// lost on the way — nor may the owner's flat entry list, which its ticks
// drain from, drift from the index. With one shard every rewrite is the
// owner's own; with four, one shard's admit evicts documents another shard
// publishes, so readers also race the cross-shard kill and its eviction
// note.
func TestFastPathRaceEvictRepublish(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			raceEvictRepublish(t, shards)
		})
	}
}

func raceEvictRepublish(t *testing.T, shards int) {
	netw := newTestNetwork()
	bodies := make(map[core.DocID][]byte)
	docs := make([]core.DocID, 40)
	for i := range docs {
		docs[i] = core.DocID(fmt.Sprintf("d%d", i))
		bodies[docs[i]] = []byte(fmt.Sprintf("body-%02d-0123456789", i))
	}
	s := startServer(t, Config{
		ID: 0, Addr: "root", ParentID: -1,
		Docs:    map[core.DocID][]byte{"home": []byte("pinned")},
		Network: netw,
		// Room for ~3 of the 40 delegated docs: every admit evicts.
		CacheBudgetBytes: 64, CacheShards: 1,
		NumShards:    shards,
		GossipPeriod: 5 * time.Millisecond, // fast ticks: credits keep refreshing
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Delegator: republish the documents round-robin with serve duty, so
	// each admit displaces an earlier copy (evict → unpublish → republish
	// on the next round).
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := netw.Dial("root")
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		go func() { // drain acks
			for {
				env, err := conn.Recv()
				if err != nil {
					return
				}
				netproto.PutEnvelope(env)
			}
		}()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			doc := docs[i%len(docs)]
			if err := conn.Send(&netproto.Envelope{
				Kind: netproto.TypeDelegate, From: 99, To: 0,
				Doc: doc, Rate: 1e5, Body: bodies[doc], // duty enough that credits never gate the fast path
			}); err != nil {
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	// Readers: hammer the churning documents. Origin requests at the home
	// server are always answerable (live copy or NotFound after eviction);
	// what must never happen is a stale or torn body.
	const readers = 4
	var answered atomic.Int64
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			conn, err := netw.Dial("root")
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			var reqID uint64
			deadline := time.Now().Add(500 * time.Millisecond)
			for time.Now().Before(deadline) {
				reqID++
				doc := docs[int(reqID)%len(docs)]
				id := uint64(r+1)<<32 | reqID
				if err := conn.Send(&netproto.Envelope{
					Kind: netproto.TypeRequest, From: -1, Origin: 0, ReqID: id, Doc: doc,
				}); err != nil {
					return
				}
				for {
					env, err := conn.Recv()
					if err != nil {
						return
					}
					if env.Kind != netproto.TypeResponse || env.ReqID != id {
						netproto.PutEnvelope(env)
						continue
					}
					// A just-evicted doc may answer NotFound (the home does
					// not publish it); a hit must carry the exact body.
					if !env.NotFound && string(env.Body) != string(bodies[doc]) {
						t.Errorf("reader %d: doc %s body %q", r, doc, env.Body)
					}
					netproto.PutEnvelope(env)
					answered.Add(1)
					break
				}
			}
		}(r)
	}
	time.Sleep(600 * time.Millisecond)
	close(stop)
	wg.Wait()

	st := scrape(t, netw, "root")
	if st.EvictedDocs == 0 {
		t.Fatal("no eviction churn: the race this test exists for never happened")
	}
	// The home answers every request itself, fast path or queue, so each
	// answer is exactly one serve, however the index was rewritten around it.
	if st.FastServed == 0 {
		t.Fatal("no request took the fast path: the index was never read under churn")
	}
	if st.Served != answered.Load() {
		t.Fatalf("served = %d, readers got %d answers: serves lost across publish/unpublish", st.Served, answered.Load())
	}
	pinned := int64(len("pinned"))
	if st.MaxCacheBytes > 64+pinned {
		t.Fatalf("budget violated under churn: high-water %d > %d", st.MaxCacheBytes, 64+pinned)
	}
	// The shards' ticks drain from a flat list of their entries and read
	// rates from a list of live windows; after all that churn both must
	// still agree with the index and the windows they stand for.
	s.Stop()
	for _, sh := range s.shards {
		checkShardLists(t, sh)
	}
}

// TestPubIndexBucketRewriteKeepsSiblings: documents that share a bucket
// keep their own entries (and the counts pending on them) when a sibling is
// published, replaced or removed, and an emptied bucket goes back to nil.
func TestPubIndexBucketRewriteKeepsSiblings(t *testing.T) {
	// Three ids that land in one bucket.
	var docs []core.DocID
	byBucket := make(map[uint32][]core.DocID)
	for i := 0; len(docs) == 0; i++ {
		d := core.DocID(fmt.Sprintf("doc-%d", i))
		b := pubBucket(shardHash(d))
		if byBucket[b] = append(byBucket[b], d); len(byBucket[b]) == 3 {
			docs = byBucket[b]
		}
	}
	var ix pubIndex
	entries := make([]*pubEntry, len(docs))
	for i, d := range docs {
		entries[i] = &pubEntry{body: []byte(d), st: &docState{doc: d}}
		ix.set(d, entries[i])
		entries[i].st.served.Add(int64(i + 1))
	}
	check := func(what string, want ...*pubEntry) {
		t.Helper()
		seen := 0
		for i := range ix {
			if m := ix[i].Load(); m != nil {
				seen += len(*m)
			}
		}
		live := 0
		for i, d := range docs {
			if got := ix.get(shardHash(d), d); got != want[i] {
				t.Fatalf("%s: %s maps to %p, want %p", what, d, got, want[i])
			}
			if want[i] != nil {
				live++
			}
		}
		if seen != live {
			t.Fatalf("%s: each visited %d entries, want %d", what, seen, live)
		}
	}
	check("after publishing all three", entries[0], entries[1], entries[2])
	repl := &pubEntry{body: []byte("v2")}
	ix.set(docs[1], repl)
	check("after replacing the middle one", entries[0], repl, entries[2])
	ix.set(docs[0], nil)
	check("after removing the first", nil, repl, entries[2])
	if n := entries[2].st.served.Load(); n != 3 {
		t.Fatalf("sibling's pending serves = %d, want 3", n)
	}
	ix.set(docs[1], nil)
	ix.set(docs[2], nil)
	check("after removing all", nil, nil, nil)
	if m := ix[pubBucket(shardHash(docs[0]))].Load(); m != nil {
		t.Fatalf("emptied bucket holds %v, want nil", *m)
	}
}

// TestFastPathFallbackOnAdmission pins the admission fallback: a delegated
// (rate-limited) copy serves on the fast path only while its credits last;
// past that, requests fall back to the shard queue, whose filter spends the
// same spent budget and so sends them on to the home server instead of
// over-serving them locally.
func TestFastPathFallbackOnAdmission(t *testing.T) {
	netw := newTestNetwork()
	body := []byte("gated body")
	startServer(t, Config{
		ID: 0, Addr: "root", ParentID: -1,
		Docs:    map[core.DocID][]byte{"g": body},
		Network: netw,
	})
	startServer(t, Config{
		ID: 1, Addr: "child", ParentID: 0, ParentAddr: "root",
		Network: netw,
		// Long window: the small delegated target saturates quickly and
		// stays saturated for the rest of the test.
		Window:       5 * time.Second,
		GossipPeriod: 20 * time.Millisecond,
	})

	// Hand the child a copy with a tiny serve target.
	parentish := dial(t, netw, "child")
	if err := parentish.Send(&netproto.Envelope{
		Kind: netproto.TypeDelegate, From: 0, To: 1, Doc: "g", Rate: 2, Body: body,
	}); err != nil {
		t.Fatal(err)
	}
	waitCached(t, netw, "child", map[core.DocID]bool{"g": true})

	// Fire a burst far beyond the target. Everything must be answered; the
	// surplus must reach the home server (ServedBy 0), not be swallowed by
	// an unbounded fast path at the child.
	conn := dial(t, netw, "child")
	const n = 120
	served := map[int]int{}
	for i := 1; i <= n; i++ {
		if err := conn.Send(&netproto.Envelope{
			Kind: netproto.TypeRequest, From: -1, Origin: 1, ReqID: uint64(i), Doc: "g",
		}); err != nil {
			t.Fatal(err)
		}
	}
	for got := 0; got < n; got++ {
		resp := recvKind(t, conn, netproto.TypeResponse, 3*time.Second)
		served[resp.ServedBy]++
	}
	if served[0] == 0 {
		t.Fatalf("admission never fell back to the home server: %v", served)
	}
	st := scrape(t, netw, "child")
	if st.FastServed >= n {
		t.Fatalf("fast path served %d of %d despite a target of 2 req/s", st.FastServed, n)
	}
}

// TestStatsAggregationAcrossShards drives documents that land on different
// shards and checks the scraped aggregate is coherent: served totals match
// the injected requests, the per-shard queue depths are exposed and sum
// (with the control queue) to QueueLen, and per-document state (targets,
// cached docs) merges across shards without loss.
func TestStatsAggregationAcrossShards(t *testing.T) {
	netw := newTestNetwork()
	docs := make(map[core.DocID][]byte)
	ids := make([]core.DocID, 16)
	for i := range ids {
		ids[i] = core.DocID(fmt.Sprintf("doc-%02d", i))
		docs[ids[i]] = []byte("x")
	}
	const shards = 4
	startServer(t, Config{
		ID: 0, Addr: "root", ParentID: -1,
		Docs: docs, Network: netw, NumShards: shards,
	})

	// Confirm the hash actually spreads these docs over >1 shard (if not,
	// the test would silently lose its point).
	seen := map[uint32]bool{}
	for _, id := range ids {
		seen[shardHash(id)%shards] = true
	}
	if len(seen) < 2 {
		t.Fatalf("test docs all hash to one shard of %d", shards)
	}

	conn := dial(t, netw, "root")
	const perDoc = 5
	var reqID uint64
	for _, id := range ids {
		for i := 0; i < perDoc; i++ {
			reqID++
			if err := conn.Send(&netproto.Envelope{
				Kind: netproto.TypeRequest, From: -1, Origin: 0, ReqID: reqID, Doc: id,
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < len(ids)*perDoc; i++ {
		recvKind(t, conn, netproto.TypeResponse, 2*time.Second)
	}

	st := scrape(t, netw, "root")
	if st.Served != int64(len(ids)*perDoc) {
		t.Fatalf("served = %d, want %d", st.Served, len(ids)*perDoc)
	}
	if st.Shards != shards {
		t.Fatalf("stats shards = %d, want %d", st.Shards, shards)
	}
	if len(st.ShardQueueLens) != shards {
		t.Fatalf("shard queue lens = %v, want %d entries", st.ShardQueueLens, shards)
	}
	sum := st.CtrlQueueLen
	for _, q := range st.ShardQueueLens {
		sum += q
	}
	if st.QueueLen != sum {
		t.Fatalf("QueueLen %d != shard sum %d", st.QueueLen, sum)
	}
	if len(st.CachedDocs) != len(ids) {
		t.Fatalf("cached docs merged to %d entries, want %d", len(st.CachedDocs), len(ids))
	}
	for i := 1; i < len(st.CachedDocs); i++ {
		if st.CachedDocs[i-1] >= st.CachedDocs[i] {
			t.Fatalf("cached docs not sorted/deduped: %v", st.CachedDocs)
		}
	}
}

// TestShardQueueBackpressure pins the configurable queue depth: a server
// with a tiny queue and batch still answers everything (the posting
// goroutines block rather than drop).
func TestShardQueueBackpressure(t *testing.T) {
	netw := newTestNetwork()
	startServer(t, Config{
		ID: 0, Addr: "root", ParentID: -1,
		Docs:    map[core.DocID][]byte{"d": []byte("tiny-queue")},
		Network: netw,
		// Force the doc off the fast path so every request crosses the
		// 2-deep shard queue: unpublish happens only via eviction, so use
		// an un-owned doc via a child instead... simpler: keep the fast
		// path but drive an uncached doc, which always takes the queue.
		NumShards: 2, QueueDepth: 2, MaxBatch: 2,
	})
	conn := dial(t, netw, "root")
	const n = 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= n; i++ {
			// "missing" is not published (root answers NotFound via the
			// queued path), "d" rides the fast path: both flow under a
			// 2-deep queue.
			doc := core.DocID("missing")
			if i%2 == 0 {
				doc = "d"
			}
			if err := conn.Send(&netproto.Envelope{
				Kind: netproto.TypeRequest, From: -1, Origin: 0, ReqID: uint64(i), Doc: doc,
			}); err != nil {
				return
			}
		}
	}()
	got := 0
	for got < n {
		recvKind(t, conn, netproto.TypeResponse, 3*time.Second)
		got++
	}
	wg.Wait()
}
