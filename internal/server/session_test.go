package server

// Single-threaded tests for the session-token gating paths: the fast-path
// decline, the root's waiting reads (sessionGate / releaseWaiting), the
// upward fetch of reads a write could not answer, and the reads a too-old
// response could not satisfy, held for the next fetch. The cluster harness
// exercises the same machinery end to end; these pin the per-branch
// behavior. wait_test.go covers waiting at the other nodes.

import (
	"testing"
	"time"

	"webwave/internal/core"
	"webwave/internal/netproto"
	"webwave/internal/transport"
)

// sinkConn records every envelope sent on it, so single-threaded shard
// tests can assert exactly which waiters were answered and with what.
type sinkConn struct{ sent []netproto.Envelope }

func (c *sinkConn) Send(env *netproto.Envelope) error {
	cp := *env
	if env.Body != nil {
		cp.Body = append([]byte(nil), env.Body...)
	}
	c.sent = append(c.sent, cp)
	return nil
}
func (c *sinkConn) Recv() (*netproto.Envelope, error) { return nil, transport.ErrClosed }
func (c *sinkConn) Close() error                      { return nil }

// TestSessionGateParksAtRoot drives the root's shard loop single-threaded:
// a request whose floor exceeds the origin copy must wait rather than serve
// stale, each landing write answers exactly the waiters it satisfies, a
// waiting read outlives the flight-retry horizon (the root has nowhere to
// send it) and is dropped only after PendingTTL, and a floor on a document
// that was never published escapes to NotFound instead of waiting forever.
func TestSessionGateParksAtRoot(t *testing.T) {
	s, err := New(Config{
		ID: 0, Addr: "root", ParentID: -1,
		Docs:    map[core.DocID][]byte{"d": []byte("v0")},
		Network: newTestNetwork(), NumShards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sh := s.shards[0]
	sh.now = time.Now()

	// The lock-free fast path must decline a floored request rather than
	// serve the origin copy below the session's version; without a floor
	// the same copy serves fine.
	fast := &sinkConn{}
	if s.tryFastServe(sh, shardHash("d"), &netproto.Envelope{
		Kind: netproto.TypeRequest, Doc: "d", Origin: 9, ReqID: 1, MinVersion: 1,
	}, fast) {
		t.Fatal("fast path served below the session floor")
	}
	if !s.tryFastServe(sh, shardHash("d"), &netproto.Envelope{
		Kind: netproto.TypeRequest, Doc: "d", Origin: 9, ReqID: 1,
	}, fast) {
		t.Fatal("fast path declined a floor-less request for a published doc")
	}

	// Queued path: floors above the origin copy wait on the record.
	c1, c2 := &sinkConn{}, &sinkConn{}
	sh.handle(event{env: &netproto.Envelope{
		Kind: netproto.TypeRequest, From: -1, To: 0, Doc: "d", Origin: 9, ReqID: 2, MinVersion: 1,
	}, conn: c1})
	sh.handle(event{env: &netproto.Envelope{
		Kind: netproto.TypeRequest, From: -1, To: 0, Doc: "d", Origin: 9, ReqID: 3, MinVersion: 2,
	}, conn: c2})
	if sh.n.sessionRefreshes != 2 {
		t.Fatalf("session refreshes = %d, want 2", sh.n.sessionRefreshes)
	}
	if st := sh.state("d"); len(st.waiting) != 2 || st.flight != nil {
		t.Fatalf("waiting = %+v, flight = %+v; want 2 waiting reads and no flight", st.waiting, st.flight)
	}
	if len(c1.sent) != 0 || len(c2.sent) != 0 {
		t.Fatal("a parked request was answered before its version landed")
	}

	// Version 1 lands: the floor-1 waiter is answered from the fresh origin
	// copy, the floor-2 waiter stays parked for the next write.
	sh.handle(event{env: &netproto.Envelope{
		Kind: netproto.TypeRepublish, From: -1, To: 0, Doc: "d", DocVersion: 1, Body: []byte("b1"),
	}, conn: nopConn{}})
	if len(c1.sent) != 1 {
		t.Fatalf("floor-1 waiter got %d responses, want 1", len(c1.sent))
	}
	if r := c1.sent[0]; r.Kind != netproto.TypeResponse || r.ReqID != 2 ||
		r.DocVersion != 1 || string(r.Body) != "b1" || r.NotFound {
		t.Fatalf("floor-1 response = %+v, want version 1 body b1", r)
	}
	if len(c2.sent) != 0 {
		t.Fatal("floor-2 waiter answered with version 1")
	}

	// A body-carrying invalidate at the origin is version 2 landing: the
	// remaining waiter is answered and the record leaves the waiting list.
	sh.handle(event{env: &netproto.Envelope{
		Kind: netproto.TypeInvalidate, From: -1, To: 0, Doc: "d", DocVersion: 2, Body: []byte("b2"),
	}, conn: nopConn{}})
	if len(c2.sent) != 1 || c2.sent[0].DocVersion != 2 || string(c2.sent[0].Body) != "b2" {
		t.Fatalf("floor-2 responses = %+v, want one at version 2", c2.sent)
	}
	sh.tick(false)
	if st := sh.state("d"); len(st.waiting) != 0 || st.onWaits || len(sh.waits) != 0 {
		t.Fatalf("waiting = %+v, listed = %v; want the answered reads gone and the record delisted", st.waiting, st.onWaits)
	}

	// A floor the root never sees written waits past the flight-retry
	// horizon — there is no upward step to take — and is dropped, unanswered,
	// once it has waited PendingTTL.
	c4 := &sinkConn{}
	sh.handle(event{env: &netproto.Envelope{
		Kind: netproto.TypeRequest, From: -1, To: 0, Doc: "d", Origin: 9, ReqID: 5, MinVersion: 9,
	}, conn: c4})
	sh.now = sh.now.Add(2 * sh.flightRetry)
	sh.tick(false)
	if st := sh.state("d"); len(st.waiting) != 1 || len(c4.sent) != 0 || st.flight != nil {
		t.Fatalf("after the retry horizon: waiting %d, answers %d, flight %+v; want 1/0/none", len(st.waiting), len(c4.sent), st.flight)
	}
	sh.now = sh.now.Add(s.cfg.PendingTTL)
	sh.tick(false)
	if st := sh.state("d"); len(st.waiting) != 0 || st.onWaits || len(c4.sent) != 0 {
		t.Fatalf("after PendingTTL: waiting %d, listed %v, answers %d; want the read dropped", len(st.waiting), st.onWaits, len(c4.sent))
	}

	// A floor on a document the root never published cannot land: the gate
	// steps aside and the request answers NotFound like any other miss.
	c3 := &sinkConn{}
	sh.handle(event{env: &netproto.Envelope{
		Kind: netproto.TypeRequest, From: -1, To: 0, Doc: "ghost", Origin: 9, ReqID: 4, MinVersion: 3,
	}, conn: c3})
	if len(c3.sent) != 1 || !c3.sent[0].NotFound {
		t.Fatalf("ghost responses = %+v, want one NotFound", c3.sent)
	}
}

// TestSessionGateBypassesStaleCopyAndRefetches drives a non-root shard: a
// floored read waits for its write instead of bypassing the held copy; a
// version-only write drops the copy and sends the read upward — orphaned
// here, held for replay with its floor — a later floored miss joins that
// flight, and a response too old for its floor leaves it held for the next
// fetch, sent at once with its floor, instead of answering it stale.
func TestSessionGateBypassesStaleCopyAndRefetches(t *testing.T) {
	s, err := New(Config{
		ID: 1, Addr: "x", ParentID: 0, ParentAddr: "p",
		Network: newTestNetwork(), NumShards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sh := s.shards[0]
	sh.now = time.Now()
	if !sh.admit("d", []byte("v1"), 1) {
		t.Fatal("admit failed")
	}

	// A floor above the write mark waits on the record: nothing travels,
	// and the copy keeps serving token-less readers.
	lead := &sinkConn{}
	sh.handle(event{env: &netproto.Envelope{
		Kind: netproto.TypeRequest, From: -1, To: 1, Doc: "d", Origin: 7, ReqID: 1, MinVersion: 2,
	}, conn: lead})
	if sh.n.sessionRefreshes != 1 || len(sh.state("d").waiting) != 1 {
		t.Fatalf("session refreshes = %d, waiting = %d; want 1/1", sh.n.sessionRefreshes, len(sh.state("d").waiting))
	}
	if len(onFlight(sh, "d")) != 0 || sh.state("d").stale || !s.cache.Contains("d") {
		t.Fatal("a waiting read went upward or disturbed the held copy")
	}

	// Version 2 arrives as a version-only frame: the copy drops and the
	// waiting read goes upward with its floor preserved.
	sh.handle(event{env: &netproto.Envelope{
		Kind: netproto.TypeInvalidate, From: 0, To: 1, Doc: "d", DocVersion: 2,
	}, conn: nopConn{}})
	if !sh.state("d").stale || s.cache.Contains("d") {
		t.Fatal("the version-only write did not drop the copy")
	}
	if fl := onFlight(sh, "d"); len(fl) != 1 || fl[0].reqID != 1 || fl[0].minVer != 2 || len(sh.state("d").waiting) != 0 {
		t.Fatalf("flight = %+v, want read 1 held with floor 2 and nothing left waiting", fl)
	}

	// A second session, floor 3, misses the dropped copy and joins the
	// flight with its own floor.
	w2 := &sinkConn{}
	sh.handle(event{env: &netproto.Envelope{
		Kind: netproto.TypeRequest, From: -1, To: 1, Doc: "d", Origin: 7, ReqID: 2, MinVersion: 3,
	}, conn: w2})
	if fl := onFlight(sh, "d"); len(fl) != 2 || fl[1].reqID != 2 || fl[1].minVer != 3 {
		t.Fatalf("flight = %+v, want read 2 held beside read 1 with floor 3", fl)
	}

	// The response lands at version 2: it answers the leader and lease-
	// refreshes the stale copy, but must NOT answer the floor-3 read — that
	// one stays held, and the next fetch, carrying its floor, goes up at
	// once.
	up := &sinkConn{}
	s.parent.Store(&parentLink{id: 0, conn: up})
	sh.handle(event{env: &netproto.Envelope{
		Kind: netproto.TypeResponse, From: 0, To: 1, Doc: "d", Origin: 7, ReqID: 1,
		DocVersion: 2, Body: []byte("b2"),
	}, conn: nopConn{}})
	if len(lead.sent) != 1 || lead.sent[0].DocVersion != 2 {
		t.Fatalf("leader responses = %+v, want one at version 2", lead.sent)
	}
	if len(w2.sent) != 0 {
		t.Fatal("floor-3 waiter answered with a version-2 body")
	}
	if sh.n.leaseRefreshes != 1 || sh.state("d").stale {
		t.Fatalf("lease refreshes = %d, stale = %v; want the passing response to repair the copy",
			sh.n.leaseRefreshes, sh.state("d").stale)
	}
	if body, _, held := s.cache.Peek("d"); !held || string(body) != "b2" {
		t.Fatalf("held body = %q (%v) after refresh, want b2", body, held)
	}
	if fl := onFlight(sh, "d"); len(fl) != 1 || fl[0].reqID != 2 || fl[0].minVer != 3 {
		t.Fatalf("flight = %+v, want the floor-3 read still held", fl)
	}
	if reqs := requestsUp(up); len(reqs) != 1 || reqs[0].ReqID != 2 || reqs[0].MinVersion != 3 || sh.n.forwarded != 2 {
		t.Fatalf("fetch = %+v (forwarded %d), want request 2 with floor 3 sent as the response landed", reqs, sh.n.forwarded)
	}
	// A failover replays the held fetch, floor intact.
	sh.parentRestored()
	if reqs := requestsUp(up); len(reqs) != 2 || reqs[1].ReqID != 2 || reqs[1].MinVersion != 3 {
		t.Fatalf("fetches = %+v, want request 2 with the group floor 3 replayed", reqs)
	}
}
