package server

// A tunnel (Section 5.2) adopts the next copy passing down: the control
// loop's pre-claim raises the target of a document whose requests this node
// forwards and marks it stale, and the next response for it is admitted the
// way an invalidated copy is re-admitted (maybeLeaseRefresh). These tests
// drive an interior node by hand (handlers inline, links that record what
// they are sent, no sleeps).

import (
	"fmt"
	"testing"

	"webwave/internal/netproto"
	"webwave/internal/router"
)

// tunnelNode returns a hand-driven interior node (id 1 under parent 0, with
// children 2 and 3) that holds no copy of "d", its parent link recording
// what it is sent, with a tunnel's pre-claim for "d" applied.
func tunnelNode(t *testing.T) (*Server, *shard, *sinkConn) {
	t.Helper()
	s := handServer(t, Config{NumShards: 1})
	t.Cleanup(s.Stop)
	up := &sinkConn{}
	s.parent.Store(&parentLink{id: 0, conn: up})
	sh := s.shards[0]
	sh.handleCmd(event{cmd: cmdPreclaim, doc: "d", rate: 1000})
	if s.holdsCopy("d") {
		t.Fatal("the node holds a copy before any response passed")
	}
	return s, sh, up
}

// pass delivers the parent's answer to request reqID: version ver of "d",
// with the body named by prefix and version.
func pass(sh *shard, reqID, ver uint64, prefix string) {
	sh.handle(event{conn: nopConn{}, env: &netproto.Envelope{
		Kind: netproto.TypeResponse, From: 0, To: 1, Doc: "d", Origin: 9, ReqID: reqID,
		ServedBy: 0, Hops: 2, DocVersion: ver, Body: []byte(fmt.Sprintf("%s%d", prefix, ver)),
	}})
}

// TestTunnelAdoptsPassingCopy: after the pre-claim, a read the node
// forwards is answered by the parent, and its response both reaches the
// reader and leaves the copy here — at the response's version, filter
// installed, credits armed — so the next read is served locally. Adoption
// opens no connection.
func TestTunnelAdoptsPassingCopy(t *testing.T) {
	s, sh, up := tunnelNode(t)
	conns := len(s.conns)
	c := read(s, "d", 1, 0)
	if ups := requestsUp(up); len(ups) != 1 || len(c.sent) != 0 {
		t.Fatalf("first read: %d requests up, %d answers here; want it forwarded", len(ups), len(c.sent))
	}
	pass(sh, 1, 3, "body-d")
	wantAnswered(t, c, 3)
	if c.sent[0].ServedBy != 0 {
		t.Fatalf("the leader was answered by %d, want the parent's reply", c.sent[0].ServedBy)
	}
	st := sh.state("d")
	if ver, held := s.copyVersion("d"); !held || ver != 3 {
		t.Fatalf("copy after the passing response: held %v at %d, want version 3", held, ver)
	}
	if sh.rt.Classify("d") != router.Extract {
		t.Fatal("the adopted copy has no admission filter")
	}
	if st.stale || st.credits.Load() <= 0 || sh.n.leaseRefreshes != 1 {
		t.Fatalf("stale %v, credits %d, lease refreshes %d; want false, >0, 1", st.stale, st.credits.Load(), sh.n.leaseRefreshes)
	}
	c2 := read(s, "d", 2, 0)
	wantAnswered(t, c2, 3)
	if c2.sent[0].ServedBy != 1 || len(requestsUp(up)) != 1 {
		t.Fatalf("second read served by %d with %d requests up, want this node and still 1", c2.sent[0].ServedBy, len(requestsUp(up)))
	}
	if len(s.conns) != conns {
		t.Fatalf("the tunnel opened %d connections, want none", len(s.conns)-conns)
	}
}

// TestTunnelSkipsCopyBelowMark: a passing response older than a write the
// node already passed on still answers its reader — it is the best
// upstream had — but is not adopted; the next response at the write's
// version is.
func TestTunnelSkipsCopyBelowMark(t *testing.T) {
	s, sh, _ := tunnelNode(t)
	write(sh, 3, false)
	c := read(s, "d", 1, 0)
	pass(sh, 1, 2, "body-d")
	wantAnswered(t, c, 2)
	if s.holdsCopy("d") || !sh.state("d").stale || sh.n.leaseRefreshes != 0 {
		t.Fatal("a response below the write mark was adopted")
	}
	c = read(s, "d", 2, 0)
	pass(sh, 2, 3, "body-d")
	wantAnswered(t, c, 3)
	if ver, held := s.copyVersion("d"); !held || ver != 3 || sh.n.leaseRefreshes != 1 {
		t.Fatalf("copy held %v at %d (lease refreshes %d), want version 3 adopted", held, ver, sh.n.leaseRefreshes)
	}
}
