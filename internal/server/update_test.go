package server

import (
	"testing"
	"time"

	"webwave/internal/core"
	"webwave/internal/netproto"
)

// TestInvalidateDropsCopyThenLeaseRefreshes drives the full write path with
// no duty ledger entry for the leaf: the root installs the new version, the
// leaf gets a version-only invalidate, drops its copy (keeping duty), and
// the next request lease-refreshes the fresh body through the single-flight
// fetch — after which the leaf serves the new version locally again.
func TestInvalidateDropsCopyThenLeaseRefreshes(t *testing.T) {
	netw := newTestNetwork()
	startServer(t, Config{
		ID: 0, Addr: "root", ParentID: -1,
		Docs:         map[core.DocID][]byte{"d": []byte("v0")},
		Network:      netw,
		GossipPeriod: 15 * time.Millisecond,
	})
	startServer(t, Config{
		ID: 1, Addr: "leaf", ParentID: 0, ParentAddr: "root",
		Network:      netw,
		GossipPeriod: 15 * time.Millisecond,
	})
	client := dial(t, netw, "leaf")

	// Register the leaf's parent link as a child edge at the root: a miss
	// for an unheld document forwards up, and the first frame From the leaf
	// installs its connection in the root's child view.
	if err := client.Send(&netproto.Envelope{
		Kind: netproto.TypeRequest, From: -1, To: 1, Origin: 1, ReqID: 1, Doc: "u",
	}); err != nil {
		t.Fatal(err)
	}
	netproto.PutEnvelope(recvKind(t, client, netproto.TypeResponse, 2*time.Second))

	// Hand the leaf a copy of "d" at version 0 with duty.
	deleg := dial(t, netw, "leaf")
	if err := deleg.Send(&netproto.Envelope{
		Kind: netproto.TypeDelegate, From: 0, To: 1, Doc: "d", Rate: 5, Body: []byte("v0"),
	}); err != nil {
		t.Fatal(err)
	}
	waitCached(t, netw, "leaf", map[core.DocID]bool{"d": true})

	// Write version 1 at the origin: an invalidate carrying the new body.
	// The body installs at the root; the leaf sees a version-only frame.
	writer := dial(t, netw, "root")
	if err := writer.Send(&netproto.Envelope{
		Kind: netproto.TypeInvalidate, From: -1, To: 0, Doc: "d", DocVersion: 1, Body: []byte("v1"),
	}); err != nil {
		t.Fatal(err)
	}
	waitStats(t, netw, "leaf", "leaf invalidated", func(st *netproto.Stats) bool {
		return st.InvalidationsIn == 1
	})
	waitCached(t, netw, "leaf", map[core.DocID]bool{"d": false})

	// The stale miss travels up through the single-flight lease; the
	// response carries v1 and re-admits the copy at the leaf.
	if err := client.Send(&netproto.Envelope{
		Kind: netproto.TypeRequest, From: -1, To: 1, Origin: 1, ReqID: 2, Doc: "d",
	}); err != nil {
		t.Fatal(err)
	}
	resp := recvKind(t, client, netproto.TypeResponse, 2*time.Second)
	if string(resp.Body) != "v1" || resp.DocVersion != 1 {
		t.Fatalf("post-invalidate response = body %q version %d, want v1/1", resp.Body, resp.DocVersion)
	}
	if resp.ServedBy != 0 {
		t.Fatalf("served by %d, want the origin (0) on the lease fetch", resp.ServedBy)
	}
	netproto.PutEnvelope(resp)
	waitStats(t, netw, "leaf", "lease refresh", func(st *netproto.Stats) bool {
		return st.LeaseRefreshes == 1
	})

	// The refreshed copy serves the new version locally.
	if err := client.Send(&netproto.Envelope{
		Kind: netproto.TypeRequest, From: -1, To: 1, Origin: 1, ReqID: 3, Doc: "d",
	}); err != nil {
		t.Fatal(err)
	}
	resp = recvKind(t, client, netproto.TypeResponse, 2*time.Second)
	if resp.ServedBy != 1 || string(resp.Body) != "v1" || resp.DocVersion != 1 {
		t.Fatalf("refreshed serve = by %d body %q version %d, want local v1/1", resp.ServedBy, resp.Body, resp.DocVersion)
	}
	netproto.PutEnvelope(resp)
}

// TestRepublishPushesBodyAlongDutyEdge puts delegated duty for the leaf in
// the root's child ledger, then republishes: the new body must ride the
// duty edge down so the leaf swaps its copy in place and keeps serving —
// no extra round trip to the origin.
func TestRepublishPushesBodyAlongDutyEdge(t *testing.T) {
	netw := newTestNetwork()
	startServer(t, Config{
		ID: 0, Addr: "root", ParentID: -1,
		Docs:         map[core.DocID][]byte{"d": []byte("v0")},
		Network:      netw,
		GossipPeriod: 15 * time.Millisecond,
	})
	startServer(t, Config{
		ID: 1, Addr: "leaf", ParentID: 0, ParentAddr: "root",
		Network:      netw,
		GossipPeriod: 15 * time.Millisecond,
	})
	client := dial(t, netw, "leaf")

	// Register the leaf's real parent link at the root (see above), so the
	// reclaim below credits a ledger whose edge is the genuine connection.
	if err := client.Send(&netproto.Envelope{
		Kind: netproto.TypeRequest, From: -1, To: 1, Origin: 1, ReqID: 1, Doc: "u",
	}); err != nil {
		t.Fatal(err)
	}
	netproto.PutEnvelope(recvKind(t, client, netproto.TypeResponse, 2*time.Second))

	deleg := dial(t, netw, "leaf")
	if err := deleg.Send(&netproto.Envelope{
		Kind: netproto.TypeDelegate, From: 0, To: 1, Doc: "d", Rate: 5, Body: []byte("v0"),
	}); err != nil {
		t.Fatal(err)
	}
	waitCached(t, netw, "leaf", map[core.DocID]bool{"d": true})

	// Announce the leaf's held duty to the root — the failover replay frame
	// — so the root's child ledger knows a copy lives below that edge.
	ann := dial(t, netw, "root")
	if err := ann.Send(&netproto.Envelope{
		Kind: netproto.TypeReclaim, From: 1, To: 0, Doc: "d", Rate: 5,
	}); err != nil {
		t.Fatal(err)
	}
	waitStats(t, netw, "root", "ledger credited", func(st *netproto.Stats) bool {
		return st.ReclaimedDuty == 5
	})

	// Republish version 1: the body must arrive at the leaf as a republish
	// (not a version-only invalidate) and swap in place.
	writer := dial(t, netw, "root")
	if err := writer.Send(&netproto.Envelope{
		Kind: netproto.TypeRepublish, From: -1, To: 0, Doc: "d", DocVersion: 1, Body: []byte("v1"),
	}); err != nil {
		t.Fatal(err)
	}
	waitStats(t, netw, "leaf", "republish applied", func(st *netproto.Stats) bool {
		return st.RepublishesIn == 1
	})

	// The leaf still holds (and serves) the document — now at version 1 —
	// without ever dropping it or fetching upward.
	if err := client.Send(&netproto.Envelope{
		Kind: netproto.TypeRequest, From: -1, To: 1, Origin: 1, ReqID: 2, Doc: "d",
	}); err != nil {
		t.Fatal(err)
	}
	resp := recvKind(t, client, netproto.TypeResponse, 2*time.Second)
	if resp.ServedBy != 1 || string(resp.Body) != "v1" || resp.DocVersion != 1 {
		t.Fatalf("post-republish serve = by %d body %q version %d, want local v1/1", resp.ServedBy, resp.Body, resp.DocVersion)
	}
	netproto.PutEnvelope(resp)
	st := waitStats(t, netw, "leaf", "no invalidation at the leaf", func(st *netproto.Stats) bool {
		return st.InvalidationsIn == 0
	})
	if st.LeaseRefreshes != 0 {
		t.Errorf("lease refreshes = %d, want 0: the body rode the duty edge", st.LeaseRefreshes)
	}
}

// TestVersionGateDropsStaleWrites drives a shard loop single-threaded: a
// frame at or below the high-water version must be dropped without touching
// the held copy, and version-carrying copy handoffs below the high-water
// mark must be refused.
func TestVersionGateDropsStaleWrites(t *testing.T) {
	s, err := New(Config{
		ID: 1, Addr: "x", ParentID: 0, ParentAddr: "p",
		Network: newTestNetwork(), NumShards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sh := s.shards[0]
	sh.now = time.Now()
	if !sh.admit("d", []byte("v2"), 2) {
		t.Fatal("admit failed")
	}

	// A republish carrying an older version is a stale duplicate: dropped.
	sh.handle(event{env: &netproto.Envelope{
		Kind: netproto.TypeRepublish, From: 0, To: 1, Doc: "d", DocVersion: 1, Body: []byte("old"),
	}, conn: nopConn{}})
	if sh.n.staleDrops != 1 || sh.n.republishesIn != 0 {
		t.Fatalf("stale republish: drops=%d applied=%d, want 1/0", sh.n.staleDrops, sh.n.republishesIn)
	}
	if body, _, ok := s.cache.Peek("d"); !ok || string(body) != "v2" {
		t.Fatalf("held body = %q (%v) after stale republish, want v2 intact", body, ok)
	}

	// Same version is not news either — invalidates gate identically.
	sh.handle(event{env: &netproto.Envelope{
		Kind: netproto.TypeInvalidate, From: 0, To: 1, Doc: "d", DocVersion: 2,
	}, conn: nopConn{}})
	if sh.n.staleDrops != 2 || sh.n.invalidationsIn != 0 {
		t.Fatalf("same-version invalidate: drops=%d applied=%d, want 2/0", sh.n.staleDrops, sh.n.invalidationsIn)
	}
	if !s.cache.Contains("d") {
		t.Fatal("same-version invalidate dropped the copy")
	}

	// A genuinely newer invalidate applies: body gone, duty and filter stay,
	// the document marked stale for the lease path.
	sh.state("d").target = 4
	sh.handle(event{env: &netproto.Envelope{
		Kind: netproto.TypeInvalidate, From: 0, To: 1, Doc: "d", DocVersion: 3,
	}, conn: nopConn{}})
	if sh.n.invalidationsIn != 1 {
		t.Fatalf("invalidations applied = %d, want 1", sh.n.invalidationsIn)
	}
	if s.cache.Contains("d") {
		t.Fatal("invalidate left the stale body in memory")
	}
	if !sh.state("d").stale {
		t.Fatal("invalidate did not mark the document stale")
	}
	if sh.state("d").target != 4 {
		t.Fatalf("invalidate moved duty: target = %v, want 4", sh.state("d").target)
	}

	// A stale delegate handoff (version below high-water) must be refused.
	if sh.admit("d", []byte("v1"), 1) {
		t.Fatal("admit accepted a version below the high-water mark")
	}
	if sh.n.staleDrops != 3 {
		t.Fatalf("stale drops = %d, want 3 after refused handoff", sh.n.staleDrops)
	}
	// The current version re-admits fine (the lease refresh path).
	if !sh.admit("d", []byte("v3"), 3) {
		t.Fatal("admit refused the high-water version")
	}
	if v, ok := s.cache.Version("d"); !ok || v != 3 {
		t.Fatalf("re-admitted version = %d (%v), want 3", v, ok)
	}
}

// TestWarmRestartRecoversVersions kills a copy-holding server and restarts
// it on the same data directory: the recovered copy must come back at the
// version it held, and the version gate must keep refusing stale writes
// across the restart.
func TestWarmRestartRecoversVersions(t *testing.T) {
	netw := newTestNetwork()
	dir := t.TempDir()
	startServer(t, Config{
		ID: 0, Addr: "root", ParentID: -1, Network: netw,
	})
	cfg := Config{
		ID: 1, Addr: "leaf", ParentID: 0, ParentAddr: "root",
		Network: netw, DataDir: dir,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	deleg := dial(t, netw, "leaf")
	if err := deleg.Send(&netproto.Envelope{
		Kind: netproto.TypeDelegate, From: 0, To: 1, Doc: "d", Rate: 5, DocVersion: 7, Body: []byte("v7"),
	}); err != nil {
		t.Fatal(err)
	}
	waitCached(t, netw, "leaf", map[core.DocID]bool{"d": true})
	s.Stop()

	s2 := startServer(t, cfg)
	waitCached(t, netw, "leaf", map[core.DocID]bool{"d": true})
	sh := s2.shardFor("d")
	if got := sh.state("d").ver; got != 7 {
		t.Fatalf("recovered version = %d, want 7", got)
	}

	// Rollback prevention survives the restart: a write at or below the
	// recovered version is a stale duplicate.
	conn := dial(t, netw, "leaf")
	if err := conn.Send(&netproto.Envelope{
		Kind: netproto.TypeRepublish, From: 0, To: 1, Doc: "d", DocVersion: 6, Body: []byte("old"),
	}); err != nil {
		t.Fatal(err)
	}
	waitStats(t, netw, "leaf", "stale write dropped", func(st *netproto.Stats) bool {
		return st.StaleDrops >= 1
	})
	if err := conn.Send(&netproto.Envelope{
		Kind: netproto.TypeRequest, From: -1, To: 1, Origin: 1, ReqID: 1, Doc: "d",
	}); err != nil {
		t.Fatal(err)
	}
	resp := recvKind(t, conn, netproto.TypeResponse, 2*time.Second)
	if string(resp.Body) != "v7" || resp.DocVersion != 7 {
		t.Fatalf("post-restart serve = body %q version %d, want v7/7", resp.Body, resp.DocVersion)
	}
	netproto.PutEnvelope(resp)
}
