package server

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"webwave/internal/core"
	"webwave/internal/netproto"
	"webwave/internal/transport"
)

// scrape polls one server's stats over a fresh connection.
func scrape(t *testing.T, netw transport.Network, addr string) *netproto.Stats {
	t.Helper()
	conn := dial(t, netw, addr)
	if err := conn.Send(&netproto.Envelope{Kind: netproto.TypeStatsQuery, From: -1}); err != nil {
		t.Fatalf("stats query: %v", err)
	}
	env := recvKind(t, conn, netproto.TypeStatsReply, 2*time.Second)
	if env.Stats == nil {
		t.Fatalf("stats reply without stats")
	}
	return env.Stats
}

// waitCached polls until the server's installed-filter set matches want.
func waitCached(t *testing.T, netw transport.Network, addr string, want map[core.DocID]bool) *netproto.Stats {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		st := scrape(t, netw, addr)
		got := make(map[core.DocID]bool, len(st.CachedDocs))
		for _, d := range st.CachedDocs {
			got[d] = true
		}
		match := len(got) == len(want)
		for d := range want {
			match = match && got[d]
		}
		if match {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("cached docs never became %v; last scrape %v", want, st.CachedDocs)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestEvictionTearsDownFilter delegates two documents into a child whose
// budget holds only one: admitting the second must displace the first,
// remove its admission filter, and surface the eviction in the stats
// scrape — and a follow-up request for the displaced document must travel
// to the home server instead of being extracted into a cache miss.
func TestEvictionTearsDownFilter(t *testing.T) {
	netw := newTestNetwork()
	bodyA := []byte("aaaaaaaaaa") // 10 bytes
	bodyB := []byte("bbbbbbbbbb")
	startServer(t, Config{
		ID: 0, Addr: "root", ParentID: -1,
		Docs:    map[core.DocID][]byte{"A": bodyA, "B": bodyB},
		Network: netw,
	})
	startServer(t, Config{
		ID: 1, Addr: "child", ParentID: 0, ParentAddr: "root",
		Network:          netw,
		CacheBudgetBytes: 16, CacheShards: 1,
	})

	conn := dial(t, netw, "child")
	if err := conn.Send(&netproto.Envelope{
		Kind: netproto.TypeDelegate, From: 0, To: 1, Doc: "A", Rate: 1, Body: bodyA,
	}); err != nil {
		t.Fatalf("delegate A: %v", err)
	}
	waitCached(t, netw, "child", map[core.DocID]bool{"A": true})

	if err := conn.Send(&netproto.Envelope{
		Kind: netproto.TypeDelegate, From: 0, To: 1, Doc: "B", Rate: 1, Body: bodyB,
	}); err != nil {
		t.Fatalf("delegate B: %v", err)
	}
	st := waitCached(t, netw, "child", map[core.DocID]bool{"B": true})
	if st.EvictedDocs != 1 || st.EvictedBytes != int64(len(bodyA)) {
		t.Fatalf("evicted docs/bytes = %d/%d, want 1/%d", st.EvictedDocs, st.EvictedBytes, len(bodyA))
	}
	if st.CacheBytes != int64(len(bodyB)) {
		t.Fatalf("cache bytes = %d, want %d", st.CacheBytes, len(bodyB))
	}
	if st.MaxCacheBytes > 16 {
		t.Fatalf("max cache bytes %d exceeded budget 16", st.MaxCacheBytes)
	}
	if tgt, ok := st.Targets["A"]; ok && tgt > 0 {
		t.Fatalf("evicted doc kept a serve target: %v", tgt)
	}

	// A request for the evicted document must be forwarded to the home
	// server, not answered locally from a stale filter.
	if err := conn.Send(&netproto.Envelope{
		Kind: netproto.TypeRequest, From: -1, To: 1, Origin: 1, ReqID: 7, Doc: "A",
	}); err != nil {
		t.Fatalf("request A: %v", err)
	}
	resp := recvKind(t, conn, netproto.TypeResponse, 2*time.Second)
	if resp.ServedBy != 0 || resp.NotFound {
		t.Fatalf("evicted doc served by %d notFound=%v, want home server 0", resp.ServedBy, resp.NotFound)
	}
}

// TestRootPinImmunity gives the home server a budget smaller than its own
// catalog: published documents are pinned, survive, and stay servable.
func TestRootPinImmunity(t *testing.T) {
	netw := newTestNetwork()
	docs := map[core.DocID][]byte{
		"A": make([]byte, 100),
		"B": make([]byte, 100),
	}
	startServer(t, Config{
		ID: 0, Addr: "root", ParentID: -1, Docs: docs, Network: netw,
		CacheBudgetBytes: 50, CacheShards: 1,
	})
	conn := dial(t, netw, "root")
	for i, doc := range []core.DocID{"A", "B"} {
		if err := conn.Send(&netproto.Envelope{
			Kind: netproto.TypeRequest, From: -1, Origin: 0, ReqID: uint64(i + 1), Doc: doc,
		}); err != nil {
			t.Fatalf("request %s: %v", doc, err)
		}
		resp := recvKind(t, conn, netproto.TypeResponse, 2*time.Second)
		if resp.NotFound || len(resp.Body) != 100 {
			t.Fatalf("pinned doc %s: notFound=%v len=%d", doc, resp.NotFound, len(resp.Body))
		}
	}
	st := scrape(t, netw, "root")
	if st.EvictedDocs != 0 {
		t.Fatalf("home server evicted %d pinned docs", st.EvictedDocs)
	}
	if st.CacheBytes != 200 {
		t.Fatalf("pinned cache bytes = %d, want 200", st.CacheBytes)
	}
}

// TestSingleFlightRacesEviction parks requests behind a single in-flight
// fetch, admits the document (filter up), evicts it again (filter down),
// and only then releases the upstream response: every parked waiter and
// the leader must still be answered, and the eviction hint must reach the
// parent carrying the abandoned serve duty.
func TestSingleFlightRacesEviction(t *testing.T) {
	netw := newTestNetwork()
	// The test plays the parent itself so it controls when the upstream
	// response is released.
	pl, err := netw.Listen("parent")
	if err != nil {
		t.Fatalf("listen parent: %v", err)
	}
	t.Cleanup(func() { pl.Close() })

	type accepted struct {
		conn transport.Conn
		err  error
	}
	acceptCh := make(chan accepted, 1)
	go func() {
		c, err := pl.Accept()
		acceptCh <- accepted{c, err}
	}()

	bodyA := []byte("aaaaaaaaaa")
	bodyB := []byte("bbbbbbbbbb")
	startServer(t, Config{
		ID: 1, Addr: "child", ParentID: 0, ParentAddr: "parent",
		Network:          netw,
		CacheBudgetBytes: 16, CacheShards: 1,
		// A long gossip period keeps the flight-retry horizon far away so
		// every request below coalesces behind the first leader.
		GossipPeriod: 2 * time.Second,
	})
	acc := <-acceptCh
	if acc.err != nil {
		t.Fatalf("accept child: %v", acc.err)
	}
	parent := acc.conn
	t.Cleanup(func() { parent.Close() })

	// Pump the parent side: collect forwarded requests and evict hints.
	var mu sync.Mutex
	var upRequests []*netproto.Envelope
	var evicts []*netproto.Envelope
	go func() {
		for {
			env, err := parent.Recv()
			if err != nil {
				return
			}
			mu.Lock()
			switch env.Kind {
			case netproto.TypeRequest:
				upRequests = append(upRequests, env)
			case netproto.TypeEvict:
				evicts = append(evicts, env)
			default:
				netproto.PutEnvelope(env)
			}
			mu.Unlock()
		}
	}()
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(3 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timeout waiting for %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	inject := dial(t, netw, "child")
	// r1 leads the flight; r2 and r3 park behind it.
	for _, id := range []uint64{1, 2, 3} {
		if err := inject.Send(&netproto.Envelope{
			Kind: netproto.TypeRequest, From: -1, Origin: 1, ReqID: id, Doc: "A",
		}); err != nil {
			t.Fatalf("request %d: %v", id, err)
		}
	}
	waitFor("flight leader upstream", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(upRequests) == 1
	})

	// Admit A mid-flight, then displace it with B before the upstream
	// response exists.
	if err := parent.Send(&netproto.Envelope{
		Kind: netproto.TypeDelegate, From: 0, To: 1, Doc: "A", Rate: 5, Body: bodyA,
	}); err != nil {
		t.Fatalf("delegate A: %v", err)
	}
	waitCached(t, netw, "child", map[core.DocID]bool{"A": true})
	if err := parent.Send(&netproto.Envelope{
		Kind: netproto.TypeDelegate, From: 0, To: 1, Doc: "B", Rate: 1, Body: bodyB,
	}); err != nil {
		t.Fatalf("delegate B: %v", err)
	}
	waitCached(t, netw, "child", map[core.DocID]bool{"B": true})
	waitFor("evict hint", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(evicts) == 1
	})
	mu.Lock()
	hint := evicts[0]
	mu.Unlock()
	if hint.Doc != "A" || hint.Rate <= 0 {
		t.Fatalf("evict hint = doc %q rate %v, want doc A with the delegated duty", hint.Doc, hint.Rate)
	}

	// A post-eviction request for A must coalesce into the still-open
	// flight rather than being served from the torn-down filter.
	if err := inject.Send(&netproto.Envelope{
		Kind: netproto.TypeRequest, From: -1, Origin: 1, ReqID: 5, Doc: "A",
	}); err != nil {
		t.Fatalf("request 5: %v", err)
	}
	// Wait until it actually parked (2, 3 and 5 coalesced) before releasing
	// the response — otherwise the response can overtake request 5 across
	// the two connections and promote it to a fresh flight leader whose
	// upstream answer this test never sends.
	waitFor("request 5 coalesced", func() bool {
		return scrape(t, netw, "child").Coalesced >= 3
	})

	// Release the upstream response for the leader; it must fan out to the
	// leader and every parked waiter.
	mu.Lock()
	lead := upRequests[0]
	mu.Unlock()
	if err := parent.Send(&netproto.Envelope{
		Kind: netproto.TypeResponse, From: 0, To: 1,
		Doc: "A", Origin: lead.Origin, ReqID: lead.ReqID,
		ServedBy: 0, Hops: lead.Hops, Body: bodyA,
	}); err != nil {
		t.Fatalf("upstream response: %v", err)
	}

	got := make(map[uint64]bool)
	deadline := time.Now().Add(3 * time.Second)
	for len(got) < 4 && time.Now().Before(deadline) {
		env := recvKind(t, inject, netproto.TypeResponse, 2*time.Second)
		if env.Doc != "A" || env.NotFound {
			t.Fatalf("bad response: %+v", env)
		}
		got[env.ReqID] = true
	}
	for _, id := range []uint64{1, 2, 3, 5} {
		if !got[id] {
			t.Fatalf("request %d never answered (got %v)", id, got)
		}
	}
}

// TestBudgetAccountingUnderConcurrentDrains hammers one bounded server
// with delegations and requests from several connections at once; the
// batched event drains must keep the incremental byte accounting exact
// and the budget invariant intact.
func TestBudgetAccountingUnderConcurrentDrains(t *testing.T) {
	netw := newTestNetwork()
	const budget = 4096
	startServer(t, Config{
		ID: 0, Addr: "root", ParentID: -1, Network: netw,
		Docs:             map[core.DocID][]byte{"home": []byte("origin-doc")},
		CacheBudgetBytes: budget, CacheShards: 4,
	})

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			conn, err := netw.Dial("root")
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer conn.Close()
			go func() { // drain acks/responses
				for {
					env, err := conn.Recv()
					if err != nil {
						return
					}
					netproto.PutEnvelope(env)
				}
			}()
			for i := 0; i < 80; i++ {
				doc := core.DocID(fmt.Sprintf("d-%d-%d", g, i%20))
				if err := conn.Send(&netproto.Envelope{
					Kind: netproto.TypeDelegate, From: 100 + g, To: 0,
					Doc: doc, Rate: 1, Body: make([]byte, 100+(i%7)*50),
				}); err != nil {
					return
				}
				if i%5 == 0 {
					_ = conn.Send(&netproto.Envelope{
						Kind: netproto.TypeRequest, From: -1, Origin: 0,
						ReqID: uint64(g*1000 + i), Doc: doc,
					})
				}
			}
		}(g)
	}
	wg.Wait()

	// One final scrape once the event queue has drained.
	deadline := time.Now().Add(3 * time.Second)
	var st *netproto.Stats
	for {
		st = scrape(t, netw, "root")
		if st.QueueLen == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	pinned := int64(len("origin-doc"))
	if st.CacheBytes > budget+pinned {
		t.Fatalf("cache bytes %d exceed budget %d (+%d pinned)", st.CacheBytes, budget, pinned)
	}
	if st.MaxCacheBytes > budget+pinned {
		t.Fatalf("high-water %d exceeds budget %d (+%d pinned)", st.MaxCacheBytes, budget, pinned)
	}
	if st.EvictedDocs == 0 {
		t.Fatalf("expected eviction churn under pressure, got none")
	}
	if !contains(st.CachedDocs, "home") {
		t.Fatalf("pinned origin doc displaced; cached = %v", st.CachedDocs)
	}
}

func contains(ds []core.DocID, want core.DocID) bool {
	for _, d := range ds {
		if d == want {
			return true
		}
	}
	return false
}

// TestPutEvictsTheLeastDuty: memory holds two delegated copies, x carrying
// the lower target. x is then served, so it is the one read last. A third
// delegation must evict x, the copy carrying the least duty — not y, the
// least recently read — and hand x's duty back.
func TestPutEvictsTheLeastDuty(t *testing.T) {
	const size = 100
	s := handServer(t, Config{NumShards: 1, CacheShards: 1, CacheBudgetBytes: 2 * size})
	t.Cleanup(s.Stop)
	sh := s.shards[0]
	delegate := func(doc core.DocID, rate float64) {
		sh.handle(event{conn: nopConn{}, env: &netproto.Envelope{
			Kind: netproto.TypeDelegate, From: 0, To: 1, Doc: doc, Rate: rate, Body: make([]byte, size),
		}})
	}
	delegate("x", 10)
	delegate("y", 100)
	if !request(s, "x", -1, 1) {
		t.Fatal("x not served on the fast path")
	}
	sh.now = sh.now.Add(s.cfg.GossipPeriod)
	sh.tick(false)
	delegate("z", 50)
	if s.cache.Contains("x") || !s.cache.Contains("y") || !s.cache.Contains("z") {
		t.Fatalf("memory holds %v, want y and z", s.cache.Docs())
	}
	if tgt := sh.state("x").target; tgt != 0 {
		t.Fatalf("evicted x kept target %v", tgt)
	}
}
