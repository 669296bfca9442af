package server

import (
	"testing"
	"time"

	"webwave/internal/core"
	"webwave/internal/netproto"
	"webwave/internal/transport"
)

func newTestNetwork() transport.Network {
	return transport.NewMemoryNetwork(transport.MemoryOptions{})
}

func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(s.Stop)
	return s
}

func dial(t *testing.T, netw transport.Network, addr string) transport.Conn {
	t.Helper()
	conn, err := netw.Dial(addr)
	if err != nil {
		t.Fatalf("Dial %s: %v", addr, err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func recvKind(t *testing.T, conn transport.Conn, kind netproto.Type, timeout time.Duration) *netproto.Envelope {
	t.Helper()
	deadline := time.Now().Add(timeout)
	type result struct {
		env *netproto.Envelope
		err error
	}
	for time.Now().Before(deadline) {
		ch := make(chan result, 1)
		go func() {
			env, err := conn.Recv()
			ch <- result{env, err}
		}()
		select {
		case r := <-ch:
			if r.err != nil {
				t.Fatalf("Recv: %v", r.err)
			}
			if r.env.Kind == kind {
				return r.env
			}
		case <-time.After(time.Until(deadline)):
		}
	}
	t.Fatalf("no %s within %v", kind, timeout)
	return nil
}

func TestConfigValidation(t *testing.T) {
	netw := newTestNetwork()
	if _, err := New(Config{Addr: "a"}); err == nil {
		t.Error("nil network accepted")
	}
	if _, err := New(Config{Network: netw}); err == nil {
		t.Error("empty address accepted")
	}
	if _, err := New(Config{Network: netw, Addr: "a", ParentID: 3}); err == nil {
		t.Error("non-root without parent address accepted")
	}
}

func TestRootServesOwnedDocs(t *testing.T) {
	netw := newTestNetwork()
	startServer(t, Config{
		ID: 0, Addr: "root", ParentID: -1,
		Docs:    map[core.DocID][]byte{"d1": []byte("body")},
		Network: netw,
	})
	conn := dial(t, netw, "root")
	if err := conn.Send(&netproto.Envelope{
		Kind: netproto.TypeRequest, From: -1, Origin: 0, ReqID: 1, Doc: "d1",
	}); err != nil {
		t.Fatal(err)
	}
	resp := recvKind(t, conn, netproto.TypeResponse, 2*time.Second)
	if resp.ServedBy != 0 || resp.ReqID != 1 {
		t.Errorf("response = %+v", resp)
	}
}

func TestChildForwardsToParent(t *testing.T) {
	netw := newTestNetwork()
	startServer(t, Config{
		ID: 0, Addr: "root", ParentID: -1,
		Docs:    map[core.DocID][]byte{"d1": []byte("body")},
		Network: netw,
	})
	startServer(t, Config{
		ID: 1, Addr: "child", ParentID: 0, ParentAddr: "root",
		Network: netw,
	})
	conn := dial(t, netw, "child")
	if err := conn.Send(&netproto.Envelope{
		Kind: netproto.TypeRequest, From: -1, Origin: 1, ReqID: 7, Doc: "d1",
	}); err != nil {
		t.Fatal(err)
	}
	resp := recvKind(t, conn, netproto.TypeResponse, 2*time.Second)
	if resp.ServedBy != 0 {
		t.Errorf("served by %d, want root (0)", resp.ServedBy)
	}
	if resp.Hops != 1 {
		t.Errorf("hops = %d, want 1", resp.Hops)
	}
}

func TestStatsScrape(t *testing.T) {
	netw := newTestNetwork()
	startServer(t, Config{
		ID: 0, Addr: "root", ParentID: -1,
		Docs:    map[core.DocID][]byte{"d1": []byte("x"), "d2": []byte("y")},
		Network: netw,
	})
	conn := dial(t, netw, "root")
	// Generate some traffic first.
	for i := 0; i < 5; i++ {
		conn.Send(&netproto.Envelope{
			Kind: netproto.TypeRequest, From: -1, Origin: 0, ReqID: uint64(i + 1), Doc: "d1",
		})
	}
	for i := 0; i < 5; i++ {
		recvKind(t, conn, netproto.TypeResponse, 2*time.Second)
	}
	if err := conn.Send(&netproto.Envelope{Kind: netproto.TypeStatsQuery, From: -1}); err != nil {
		t.Fatal(err)
	}
	reply := recvKind(t, conn, netproto.TypeStatsReply, 2*time.Second)
	if reply.Stats == nil {
		t.Fatal("nil stats")
	}
	if reply.Stats.Served != 5 {
		t.Errorf("served = %d, want 5", reply.Stats.Served)
	}
	if len(reply.Stats.CachedDocs) != 2 {
		t.Errorf("cached docs = %v", reply.Stats.CachedDocs)
	}
	if reply.Stats.FilterStats.Inspected == 0 {
		t.Error("filter stats empty")
	}
}

func TestDelegationMovesServiceDown(t *testing.T) {
	netw := newTestNetwork()
	startServer(t, Config{
		ID: 0, Addr: "root", ParentID: -1,
		Docs:            map[core.DocID][]byte{"hot": []byte("body")},
		Network:         netw,
		GossipPeriod:    10 * time.Millisecond,
		DiffusionPeriod: 20 * time.Millisecond,
		Window:          200 * time.Millisecond,
	})
	startServer(t, Config{
		ID: 1, Addr: "child", ParentID: 0, ParentAddr: "root",
		Network:         netw,
		GossipPeriod:    10 * time.Millisecond,
		DiffusionPeriod: 20 * time.Millisecond,
		Window:          200 * time.Millisecond,
	})
	conn := dial(t, netw, "child")

	// Pump requests through the child toward the root; the root should
	// delegate the hot document back down.
	served := map[int]int{}
	deadline := time.Now().Add(4 * time.Second)
	var reqID uint64
	for time.Now().Before(deadline) {
		reqID++
		conn.Send(&netproto.Envelope{
			Kind: netproto.TypeRequest, From: -1, Origin: 1, ReqID: reqID, Doc: "hot",
		})
		resp := recvKind(t, conn, netproto.TypeResponse, 2*time.Second)
		served[resp.ServedBy]++
		if served[1] > 20 {
			break // child is serving: delegation worked
		}
		time.Sleep(2 * time.Millisecond)
	}
	if served[1] == 0 {
		t.Fatalf("child never served; distribution %v", served)
	}
}

func TestTunnelingAcrossLiveBarrier(t *testing.T) {
	// Chain root(0) <- parent(1) <- child(2). The parent is kept busy with
	// its own hot document dP (delegated down from the home), while the
	// child's document dC flows through to the home. The parent never has
	// dC duty to delegate, so the under-loaded child must tunnel: adopt the
	// dC copy passing down to it and start serving it locally.
	netw := newTestNetwork()
	period := 15 * time.Millisecond
	common := func(cfg Config) Config {
		cfg.GossipPeriod = period
		cfg.DiffusionPeriod = 2 * period
		cfg.Window = 250 * time.Millisecond
		cfg.Network = netw
		cfg.Tunneling = true
		return cfg
	}
	startServer(t, common(Config{
		ID: 0, Addr: "root", ParentID: -1,
		Docs: map[core.DocID][]byte{"dP": []byte("hot"), "dC": []byte("cold")},
	}))
	startServer(t, common(Config{
		ID: 1, Addr: "parent", ParentID: 0, ParentAddr: "root",
	}))
	childSrv := startServer(t, common(Config{
		ID: 2, Addr: "child", ParentID: 1, ParentAddr: "parent",
	}))
	_ = childSrv

	parentConn := dial(t, netw, "parent")
	childConn := dial(t, netw, "child")

	// Traffic pumps: heavy dP at the parent, light dC at the child.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		var id uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			id++
			parentConn.Send(&netproto.Envelope{
				Kind: netproto.TypeRequest, From: -1, Origin: 1, ReqID: id, Doc: "dP",
			})
			if id%8 == 0 {
				childConn.Send(&netproto.Envelope{
					Kind: netproto.TypeRequest, From: -1, Origin: 2, ReqID: id, Doc: "dC",
				})
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()

	// Wait for the child to acquire dC — by adoption (or, if dynamics
	// allow, a delegation that reached it).
	statsConn := dial(t, netw, "child")
	deadline := time.Now().Add(8 * time.Second)
	for time.Now().Before(deadline) {
		statsConn.Send(&netproto.Envelope{Kind: netproto.TypeStatsQuery, From: -1})
		reply := recvKind(t, statsConn, netproto.TypeStatsReply, 2*time.Second)
		for _, d := range reply.Stats.CachedDocs {
			if d == "dC" {
				return // the barrier was crossed
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatal("child never obtained dC across the barrier")
}

func TestShutdownMessage(t *testing.T) {
	netw := newTestNetwork()
	s := startServer(t, Config{
		ID: 0, Addr: "root", ParentID: -1, Network: netw,
	})
	conn := dial(t, netw, "root")
	if err := conn.Send(&netproto.Envelope{Kind: netproto.TypeShutdown, From: -1}); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		s.Stop() // must return promptly even though shutdown already ran
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("Stop did not complete after shutdown message")
	}
}

func TestStopIdempotent(t *testing.T) {
	netw := newTestNetwork()
	s := startServer(t, Config{ID: 0, Addr: "root", ParentID: -1, Network: netw})
	s.Stop()
	s.Stop() // second call must be safe
}

// TestClosedConnsAreDropped: a connection whose read side ends leaves the
// server's connection list, so a node that clients, gateways or restarted
// children keep reconnecting to does not hold every closed connection's
// buffers until Stop.
func TestClosedConnsAreDropped(t *testing.T) {
	netw := newTestNetwork()
	s := startServer(t, Config{
		ID: 0, Addr: "root", ParentID: -1,
		Docs:    map[core.DocID][]byte{"d": []byte("body")},
		Network: netw,
	})
	tracked := func() int {
		s.connsMu.Lock()
		defer s.connsMu.Unlock()
		return len(s.conns)
	}
	base := tracked()
	conns := make([]transport.Conn, 64)
	for i := range conns {
		conns[i] = dial(t, netw, "root")
		// A round trip proves the server's read loop for it is running.
		if err := conns[i].Send(&netproto.Envelope{
			Kind: netproto.TypeRequest, From: -1, Origin: 5, ReqID: uint64(i), Doc: "d",
		}); err != nil {
			t.Fatal(err)
		}
		recvKind(t, conns[i], netproto.TypeResponse, 2*time.Second)
	}
	if n := tracked(); n != base+len(conns) {
		t.Fatalf("%d connections tracked with %d open, want %d", n, len(conns), base+len(conns))
	}
	for _, c := range conns {
		c.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for tracked() != base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := tracked(); n != base {
		t.Fatalf("%d connections still tracked after all %d closed, want %d", n, len(conns), base)
	}
}
