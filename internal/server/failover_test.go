package server

import (
	"testing"
	"time"

	"webwave/internal/core"
	"webwave/internal/netproto"
	"webwave/internal/transport"
)

// waitStats polls a server's scrape until pred accepts it.
func waitStats(t *testing.T, netw transport.Network, addr string, what string, pred func(*netproto.Stats) bool) *netproto.Stats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var last *netproto.Stats
	for time.Now().Before(deadline) {
		last = scrape(t, netw, addr)
		if pred(last) {
			return last
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("%s never held; last scrape %+v", what, last)
	return nil
}

// TestOrphanServesAndQueuesThenRejoins kills a leaf's parent while the only
// configured ancestor is that same (dead) parent: the leaf must enter
// orphan mode, keep serving its delegated copy, and park requests it cannot
// forward — then, once a server comes back on the parent's address, rejoin
// it and replay the parked requests so nothing injected during the outage
// is lost.
func TestOrphanServesAndQueuesThenRejoins(t *testing.T) {
	netw := newTestNetwork()
	bodies := map[core.DocID][]byte{"d": []byte("dd"), "u": []byte("uu")}
	startServer(t, Config{
		ID: 0, Addr: "root", ParentID: -1, Docs: bodies, Network: netw,
		GossipPeriod: 15 * time.Millisecond,
	})
	mid, err := New(Config{
		ID: 1, Addr: "mid", ParentID: 0, ParentAddr: "root", Network: netw,
		GossipPeriod: 15 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mid.Start(); err != nil {
		t.Fatal(err)
	}
	startServer(t, Config{
		ID: 2, Addr: "leaf", ParentID: 1, ParentAddr: "mid",
		AncestorAddrs: []string{"mid"}, // only the parent itself: stays orphaned while it is down
		Network:       netw,
		GossipPeriod:  15 * time.Millisecond,
	})

	// Hand the leaf a copy of "d" with duty 5 so it can serve alone.
	deleg := dial(t, netw, "leaf")
	if err := deleg.Send(&netproto.Envelope{
		Kind: netproto.TypeDelegate, From: 1, To: 2, Doc: "d", Rate: 5, Body: bodies["d"],
	}); err != nil {
		t.Fatal(err)
	}
	waitCached(t, netw, "leaf", map[core.DocID]bool{"d": true})

	mid.Stop()
	waitStats(t, netw, "leaf", "leaf orphaned", func(st *netproto.Stats) bool {
		return st.Orphaned == 1
	})

	// Orphan serving: the leaf's own copy answers without a parent.
	client := dial(t, netw, "leaf")
	if err := client.Send(&netproto.Envelope{
		Kind: netproto.TypeRequest, From: -1, To: 2, Origin: 2, ReqID: 1, Doc: "d",
	}); err != nil {
		t.Fatal(err)
	}
	resp := recvKind(t, client, netproto.TypeResponse, 2*time.Second)
	if resp.ServedBy != 2 || resp.NotFound {
		t.Fatalf("orphan response = %+v, want served locally", resp)
	}
	netproto.PutEnvelope(resp)

	// Orphan queueing: a request for an unheld document is parked, not lost.
	if err := client.Send(&netproto.Envelope{
		Kind: netproto.TypeRequest, From: -1, To: 2, Origin: 2, ReqID: 2, Doc: "u",
	}); err != nil {
		t.Fatal(err)
	}
	waitStats(t, netw, "leaf", "held read", func(st *netproto.Stats) bool {
		return st.PendingLen >= 1
	})

	// Revive the parent address and watch the leaf rejoin and replay.
	startServer(t, Config{
		ID: 1, Addr: "mid", ParentID: 0, ParentAddr: "root", Network: netw,
		GossipPeriod: 15 * time.Millisecond,
	})
	waitStats(t, netw, "leaf", "leaf rejoined", func(st *netproto.Stats) bool {
		return st.Orphaned == 0 && st.ParentID == 1 && st.Reconnects == 1
	})
	resp = recvKind(t, client, netproto.TypeResponse, 5*time.Second)
	if resp.ReqID != 2 || string(resp.Body) != "uu" {
		t.Fatalf("replayed response = %+v, want queued request answered", resp)
	}
	netproto.PutEnvelope(resp)
}

// TestFailoverReclaimThenAbsorbConservesDuty walks delegated duty around a
// double failure: duty delegated to a leaf survives its parent's death via
// failover-and-reclaim (the grandparent's ledger learns what lives below
// the repaired edge), and the leaf's own death then re-absorbs exactly that
// duty into the grandparent's targets — reclaimed + absorbed equals the
// duty delegated before the first kill.
func TestFailoverReclaimThenAbsorbConservesDuty(t *testing.T) {
	netw := newTestNetwork()
	body := []byte("dd")
	rootAddr := "root"
	startServer(t, Config{
		ID: 0, Addr: rootAddr, ParentID: -1,
		Docs: map[core.DocID][]byte{"d": body}, Network: netw,
		GossipPeriod: 15 * time.Millisecond,
	})
	mid, err := New(Config{
		ID: 1, Addr: "mid", ParentID: 0, ParentAddr: rootAddr, Network: netw,
		GossipPeriod: 15 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mid.Start(); err != nil {
		t.Fatal(err)
	}
	leaf, err := New(Config{
		ID: 2, Addr: "leaf", ParentID: 1, ParentAddr: "mid",
		AncestorAddrs: []string{"mid", rootAddr},
		Network:       netw,
		GossipPeriod:  15 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := leaf.Start(); err != nil {
		t.Fatal(err)
	}
	defer leaf.Stop()

	const delegated = 5.0
	deleg := dial(t, netw, "leaf")
	if err := deleg.Send(&netproto.Envelope{
		Kind: netproto.TypeDelegate, From: 1, To: 2, Doc: "d", Rate: delegated, Body: body,
	}); err != nil {
		t.Fatal(err)
	}
	waitCached(t, netw, "leaf", map[core.DocID]bool{"d": true})

	// Kill the interior node: the leaf must land on the grandparent and
	// re-announce its duty there.
	mid.Stop()
	waitStats(t, netw, "leaf", "leaf failed over to root", func(st *netproto.Stats) bool {
		return st.Orphaned == 0 && st.ParentID == 0 && st.Reconnects == 1
	})
	waitStats(t, netw, rootAddr, "root saw the reclaim", func(st *netproto.Stats) bool {
		return st.ReclaimedDuty == delegated
	})

	// Kill the leaf: the reclaimed ledger is exactly what the root absorbs.
	leaf.Stop()
	st := waitStats(t, netw, rootAddr, "root absorbed the duty", func(st *netproto.Stats) bool {
		return st.AbsorbedDuty == delegated
	})
	if got := st.Targets["d"]; got < delegated {
		t.Errorf("root target for d = %v after absorb, want >= %v", got, delegated)
	}
	if st.ReclaimedDuty != delegated {
		t.Errorf("reclaimed = %v, want %v", st.ReclaimedDuty, delegated)
	}
}

// TestChildDutyLedgerArithmetic drives the shard-level ledger directly
// (single-threaded, server not started): duty delegated to a child and
// not shed back is exactly what a child-loss re-absorbs.
func TestChildDutyLedgerArithmetic(t *testing.T) {
	s, err := New(Config{
		ID: 1, Addr: "x", ParentID: 0, ParentAddr: "p",
		Network: newTestNetwork(), NumShards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.ctrl.registerChild(7, nopConn{})
	sh := s.shards[0]
	sh.now = time.Now()
	if !sh.admit("d", []byte("body"), 0) {
		t.Fatal("admit failed")
	}
	sh.state("d").target = 4

	sh.delegateOut(7, "d", 2.5)
	if got := sh.childDuty[7]["d"]; got != 2.5 {
		t.Fatalf("ledger after delegate = %v, want 2.5", got)
	}
	if got := sh.state("d").target; got != 1.5 {
		t.Fatalf("targets after delegate = %v, want 1.5", got)
	}

	// The child sheds 1.0 back: ledger debited, target credited.
	shed := &netproto.Envelope{Kind: netproto.TypeShed, From: 7, To: 1, Doc: "d", Rate: 1}
	sh.handle(event{env: shed, conn: nopConn{}})
	if got := sh.childDuty[7]["d"]; got != 1.5 {
		t.Fatalf("ledger after shed = %v, want 1.5", got)
	}

	// A reclaim from another child credits its own ledger, never targets.
	before := sh.state("d").target
	reclaim := &netproto.Envelope{Kind: netproto.TypeReclaim, From: 9, To: 1, Doc: "d", Rate: 3}
	sh.handle(event{env: reclaim, conn: nopConn{}})
	if got := sh.childDuty[9]["d"]; got != 3 {
		t.Fatalf("ledger after reclaim = %v, want 3", got)
	}
	if sh.state("d").target != before {
		t.Fatalf("reclaim changed targets: %v -> %v", before, sh.state("d").target)
	}
	if sh.n.reclaimedDuty != 3 {
		t.Fatalf("reclaimed counter = %v, want 3", sh.n.reclaimedDuty)
	}

	// Child losses re-absorb exactly the outstanding ledger entries.
	sh.absorbChildDuty(7)
	sh.absorbChildDuty(9)
	if sh.n.absorbedDuty != 1.5+3 {
		t.Fatalf("absorbed = %v, want 4.5", sh.n.absorbedDuty)
	}
	// Conservation: delegated duty either came back (shed) or was absorbed.
	if got := sh.state("d").target; got != 1.5+1+1.5+3 {
		t.Fatalf("final target = %v, want 7 (residual + shed + absorbed)", got)
	}
	if len(sh.childDuty) != 0 {
		t.Fatalf("ledger not emptied: %v", sh.childDuty)
	}
}

// TestStrandedDutyParksWhileOrphaned covers the double-failure corner: a
// child dies carrying duty for a document this node does not hold, while
// the node is itself orphaned. The duty must be parked, not dropped, and
// flushed once a parent link comes back.
func TestStrandedDutyParksWhileOrphaned(t *testing.T) {
	s, err := New(Config{
		ID: 1, Addr: "x", ParentID: 0, ParentAddr: "p",
		Network: newTestNetwork(), NumShards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sh := s.shards[0]
	sh.now = time.Now()
	// A reclaim credits the ledger for a document we do not cache; the
	// child then dies while we have no parent (s.parent never stored).
	reclaim := &netproto.Envelope{Kind: netproto.TypeReclaim, From: 9, To: 1, Doc: "x", Rate: 3}
	sh.handle(event{env: reclaim, conn: nopConn{}})
	sh.absorbChildDuty(9)
	if got := sh.state("x").stranded; got != 3 {
		t.Fatalf("stranded duty = %v, want 3 parked while orphaned", got)
	}
	if sh.n.absorbedDuty != 0 {
		t.Fatalf("absorbed = %v, want 0 (nothing held)", sh.n.absorbedDuty)
	}
	// A repaired parent link flushes the parked duty upward.
	s.parent.Store(&parentLink{id: 0, conn: nopConn{}})
	sh.parentRestored()
	if got := sh.state("x").stranded; got != 0 {
		t.Fatalf("stranded duty not flushed: %v", got)
	}
}
