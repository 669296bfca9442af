package server

// A session read whose floor is above a node's write mark waits on the
// document's record for the write that set the floor, instead of racing it
// upward. These tests drive an interior node by hand (handlers inline,
// sh.now advanced explicitly, links that record what they are sent) through
// every way the wait ends: the write's body answers it, a version-only write
// or the flight-retry deadline sends the group upward as one fetch, and an
// orphaned node holds that fetch for replay. Token-less reads never join
// the wait.

import (
	"fmt"
	"testing"

	"webwave/internal/core"
	"webwave/internal/netproto"
)

// waitNode returns a flightNode (pending_test.go) holding "d" at version 1
// with duty enough that its filter extracts every read here.
func waitNode(t *testing.T, cfg Config) (*Server, *shard, *sinkConn) {
	t.Helper()
	s, sh, up := flightNode(t, cfg)
	delegateCopy(sh, "d", 1)
	return s, sh, up
}

// delegateCopy hands the node a copy of doc at version ver, with duty.
func delegateCopy(sh *shard, doc core.DocID, ver uint64) {
	sh.handle(event{conn: nopConn{}, env: &netproto.Envelope{
		Kind: netproto.TypeDelegate, From: 0, To: 1, Doc: doc, Rate: 1000,
		DocVersion: ver, Body: []byte(fmt.Sprintf("body-%s%d", doc, ver)),
	}})
}

// read sends a local client's request for doc with the given session floor
// (forward).
func read(s *Server, doc core.DocID, reqID, floor uint64) *sinkConn {
	return forward(s, doc, -1, reqID, 1, floor)
}

// forward sends a request for doc from sender from (-1 = a local client)
// that arrived with the given hop count and session floor, the way dispatch
// does — the fast path first, the shard queue when it declines — and
// returns the connection its answer would go back on.
func forward(s *Server, doc core.DocID, from int, reqID uint64, hops int, floor uint64) *sinkConn {
	c := &sinkConn{}
	env := &netproto.Envelope{
		Kind: netproto.TypeRequest, From: from, Origin: 9, ReqID: reqID, Doc: doc, Hops: hops, MinVersion: floor,
	}
	sh := s.shardFor(doc)
	if !s.tryFastServe(sh, shardHash(doc), env, c) {
		sh.handle(event{env: env, conn: c})
	}
	return c
}

// write delivers a write frame for "d" from the parent: a republish
// carrying version ver's body, or (body false) a version-only invalidate.
func write(sh *shard, ver uint64, body bool) {
	env := &netproto.Envelope{Kind: netproto.TypeInvalidate, From: 0, To: 1, Doc: "d", DocVersion: ver}
	if body {
		env.Kind, env.Body = netproto.TypeRepublish, []byte(fmt.Sprintf("body-d%d", ver))
	}
	sh.handle(event{conn: nopConn{}, env: env})
}

// requestsUp returns the request frames a link was sent.
func requestsUp(c *sinkConn) []netproto.Envelope {
	var out []netproto.Envelope
	for _, f := range c.sent {
		if f.Kind == netproto.TypeRequest {
			out = append(out, f)
		}
	}
	return out
}

// wantAnswered fails unless c got exactly one response, from this node, at
// version ver with that version's body.
func wantAnswered(t *testing.T, c *sinkConn, ver uint64) {
	t.Helper()
	if len(c.sent) != 1 {
		t.Fatalf("%d frames back, want one response", len(c.sent))
	}
	r := c.sent[0]
	if r.Kind != netproto.TypeResponse || r.NotFound || r.DocVersion != ver || string(r.Body) != fmt.Sprintf("body-d%d", ver) {
		t.Fatalf("answered %q labelled %d (kind %v), want body-d%d labelled %d", r.Body, r.DocVersion, r.Kind, ver, ver)
	}
}

// TestWaitingReadAnsweredByRepublish: a floored read at an interior node
// waits for its write, and the republish answers it from the copy it
// installs, with nothing sent upward.
func TestWaitingReadAnsweredByRepublish(t *testing.T) {
	s, sh, up := waitNode(t, Config{})
	c := read(s, "d", 1, 2)
	st := sh.state("d")
	if len(c.sent) != 0 || len(st.waiting) != 1 || !st.onWaits || sh.n.sessionRefreshes != 1 {
		t.Fatalf("floor-2 read: %d answers, %d waiting, listed %v, refreshes %d; want 0/1/true/1",
			len(c.sent), len(st.waiting), st.onWaits, sh.n.sessionRefreshes)
	}
	if st.stale || !s.cache.Contains("d") {
		t.Fatal("the wait disturbed the held copy")
	}
	write(sh, 2, true)
	wantAnswered(t, c, 2)
	if r := c.sent[0]; r.ServedBy != 1 || r.Hops != 1 {
		t.Fatalf("served by %d at %d hops, want this node at the request's 1 hop", r.ServedBy, r.Hops)
	}
	if n := len(up.sent); n != 0 {
		t.Fatalf("%d frames went upward, want none", n)
	}
	if sh.n.forwarded != 0 || len(onFlight(sh, "d")) != 0 {
		t.Fatal("the answered read left upward routing state behind")
	}
	sh.tick(false)
	if len(st.waiting) != 0 || st.onWaits || len(sh.waits) != 0 {
		t.Fatal("the record stayed on the waiting list with nothing waiting")
	}
}

// TestWaitingReadSpendsTheBudget: a waiting read the new copy satisfies is
// still a serve of this node's copy, so it spends the document's budget
// like any queued read; with the budget spent it goes upward instead.
func TestWaitingReadSpendsTheBudget(t *testing.T) {
	s, sh, up := waitNode(t, Config{})
	c := read(s, "d", 1, 2)
	sh.state("d").credits.Store(0)
	write(sh, 2, true)
	if len(c.sent) != 0 {
		t.Fatal("a waiting read was served past a spent budget")
	}
	if reqs := requestsUp(up); len(reqs) != 1 || reqs[0].ReqID != 1 || reqs[0].MinVersion != 2 {
		t.Fatalf("upward requests = %+v, want request 1 with floor 2", reqs)
	}
}

// TestVersionOnlyWriteSendsWaitingReadsUp: a write that brings no body
// releases the reads it covers as one upward fetch carrying their highest
// floor; a read whose floor is above that write keeps waiting for its own,
// and the fetch's response answers the rest of the group.
func TestVersionOnlyWriteSendsWaitingReadsUp(t *testing.T) {
	s, sh, up := waitNode(t, Config{})
	c2, c3, c4 := read(s, "d", 1, 2), read(s, "d", 2, 3), read(s, "d", 3, 4)
	write(sh, 3, false)
	reqs := requestsUp(up)
	if len(reqs) != 1 || reqs[0].ReqID != 1 || reqs[0].MinVersion != 3 || reqs[0].Hops != 2 {
		t.Fatalf("upward requests = %+v, want one fetch led by request 1 with floor 3 at hop 2", reqs)
	}
	st := sh.state("d")
	if len(st.waiting) != 1 || st.waiting[0].minVer != 4 {
		t.Fatalf("still waiting = %+v, want the floor-4 read alone", st.waiting)
	}
	if fl := onFlight(sh, "d"); len(fl) != 2 || fl[0].reqID != 1 || fl[1].reqID != 2 {
		t.Fatalf("flight = %+v, want requests 1 and 2 held for the fetch", fl)
	}
	sh.handle(event{conn: nopConn{}, env: &netproto.Envelope{
		Kind: netproto.TypeResponse, From: 0, To: 1, Doc: "d", Origin: 9, ReqID: 1,
		ServedBy: 0, DocVersion: 3, Body: []byte("body-d3"),
	}})
	wantAnswered(t, c2, 3)
	wantAnswered(t, c3, 3)
	if len(c4.sent) != 0 {
		t.Fatal("the floor-4 read was answered before its write")
	}
	write(sh, 4, true)
	wantAnswered(t, c4, 4)
	if n := len(requestsUp(up)); n != 1 {
		t.Fatalf("%d upward fetches, want the one", n)
	}
}

// TestWaitingReadsGoUpAtTheDeadline: a write that never comes releases the
// waiting reads from the tick once they have waited the flight-retry
// horizon, as one fetch with their highest floor; the bypassed copy is
// marked stale so the response re-admits the fresh one.
func TestWaitingReadsGoUpAtTheDeadline(t *testing.T) {
	s, sh, up := waitNode(t, Config{})
	read(s, "d", 1, 2)
	read(s, "d", 2, 5)
	sh.now = sh.now.Add(sh.flightRetry / 2)
	sh.tick(false)
	if n := len(requestsUp(up)); n != 0 {
		t.Fatalf("%d fetches before the deadline, want none", n)
	}
	sh.now = sh.now.Add(sh.flightRetry / 2)
	sh.tick(false)
	reqs := requestsUp(up)
	if len(reqs) != 1 || reqs[0].MinVersion != 5 {
		t.Fatalf("upward requests = %+v, want one fetch with floor 5", reqs)
	}
	st := sh.state("d")
	if fl := onFlight(sh, "d"); len(st.waiting) != 0 || len(fl) != 2 || !st.stale {
		t.Fatalf("waiting %d, flight %+v, stale %v; want both reads on the flight and the copy stale", len(st.waiting), fl, st.stale)
	}
	sh.handle(event{conn: nopConn{}, env: &netproto.Envelope{
		Kind: netproto.TypeResponse, From: 0, To: 1, Doc: "d", Origin: 9, ReqID: 1,
		ServedBy: 0, DocVersion: 5, Body: []byte("body-d5"),
	}})
	if sh.n.leaseRefreshes != 1 || st.stale {
		t.Fatalf("lease refreshes %d, stale %v; want the response to refresh the copy", sh.n.leaseRefreshes, st.stale)
	}
	if n := heldLen(sh); n != 0 || st.onWaits {
		t.Fatalf("%d held, listed %v after the response; want the record delisted", n, st.onWaits)
	}
}

// TestOrphanedWaitingReadsReplay: on an orphaned node the deadline's fetch
// has no edge to travel; the group stays held on the document's flight and
// parentRestored sends its fetch, with the group's floor, once a parent link
// is back.
func TestOrphanedWaitingReadsReplay(t *testing.T) {
	s, sh, _ := waitNode(t, Config{})
	s.parent.Store(nil)
	read(s, "d", 1, 2)
	read(s, "d", 2, 3)
	sh.now = sh.now.Add(sh.flightRetry)
	sh.tick(false)
	fl := onFlight(sh, "d")
	if len(fl) != 2 || fl[0].reqID != 1 || fl[0].minVer != 2 || fl[1].reqID != 2 || fl[1].minVer != 3 || len(sh.state("d").waiting) != 0 {
		t.Fatalf("flight = %+v, want reads 1 and 2 held with floors 2 and 3", fl)
	}
	up := &sinkConn{}
	s.parent.Store(&parentLink{id: 0, conn: up})
	sh.parentRestored()
	reqs := requestsUp(up)
	if len(reqs) != 1 || reqs[0].ReqID != 1 || reqs[0].MinVersion != 3 {
		t.Fatalf("replayed requests = %+v, want request 1 with floor 3", reqs)
	}
}

// TestTokenlessReadsNeverWait: while session reads wait on a document, a
// token-less read that overflows the budget, or misses because the copy
// was evicted, goes upward at once; neither joins the waiting list.
func TestTokenlessReadsNeverWait(t *testing.T) {
	t.Run("overflow", func(t *testing.T) {
		s, sh, up := waitNode(t, Config{})
		read(s, "d", 1, 2)
		sh.state("d").credits.Store(0)
		c := read(s, "d", 2, 0)
		reqs := requestsUp(up)
		if len(c.sent) != 0 || len(reqs) != 1 || reqs[0].ReqID != 2 || reqs[0].MinVersion != 0 {
			t.Fatalf("token-less overflow: answers %d, upward %+v; want it forwarded alone", len(c.sent), reqs)
		}
		if st := sh.state("d"); len(st.waiting) != 1 || st.waiting[0].reqID != 1 {
			t.Fatalf("waiting = %+v, want the session read alone", st.waiting)
		}
	})
	t.Run("miss", func(t *testing.T) {
		s, sh, up := waitNode(t, Config{CacheShards: 1, CacheBudgetBytes: 10})
		read(s, "d", 1, 2)
		delegateCopy(sh, "e", 1) // no room for both bodies: d is evicted
		if s.holdsCopy("d") {
			t.Fatal("d still held; the test needs it evicted")
		}
		c := read(s, "d", 2, 0)
		reqs := requestsUp(up)
		if len(c.sent) != 0 || len(reqs) != 1 || reqs[0].ReqID != 2 {
			t.Fatalf("token-less miss: answers %d, upward %+v; want it forwarded alone", len(c.sent), reqs)
		}
		if st := sh.state("d"); len(st.waiting) != 1 || st.waiting[0].reqID != 1 {
			t.Fatalf("waiting = %+v, want the session read alone", st.waiting)
		}
	})
}
