package server

// One claim rule: an under-loaded node claims passing flow whether or not it
// holds the document (cmdClaim), and tells its parent. A claim on a
// document not held is a tunnel (Section 5.2): it raises the target, marks
// the record stale, and the next response for the document is admitted the
// way an invalidated copy is re-admitted (maybeLeaseRefresh). These tests
// drive nodes by hand (handlers inline, links that record what they are
// sent, no sleeps).

import (
	"fmt"
	"testing"

	"webwave/internal/netproto"
	"webwave/internal/transport"
)

// tunnelNode returns a hand-driven interior node (id 1 under parent 0, with
// children 2 and 3) that tunnels and holds no copy of "d", its parent link
// recording what it is sent, with a claim for "d" applied.
func tunnelNode(t *testing.T) (*Server, *shard, *sinkConn) {
	t.Helper()
	s := handServer(t, Config{NumShards: 1, Tunneling: true})
	t.Cleanup(s.Stop)
	up := &sinkConn{}
	s.parent.Store(&parentLink{id: 0, conn: up})
	sh := s.shards[0]
	sh.handleCmd(event{cmd: cmdClaim, doc: "d", rate: 1000})
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

// claimsUp returns the claim frames a link was sent.
func claimsUp(c *sinkConn) []netproto.Envelope {
	var out []netproto.Envelope
	for _, f := range c.sent {
		if f.Kind == netproto.TypeClaim {
			out = append(out, f)
		}
	}
	return out
}

// TestTunnelAdoptsPassingCopy: after the claim, a read the node forwards
// is answered by the parent, and its response both reaches the reader and
// leaves the copy here — at the response's version, filter installed,
// credits armed — so the next read is served locally. Adoption opens no
// connection.
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
	if !st.filter {
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

// TestSecondClaimBeforeAdoptionDropped: a document already marked for
// adoption takes no further claim — its target would otherwise grow every
// diffusion period until a copy came — and the parent hears of the first
// claim only.
func TestSecondClaimBeforeAdoptionDropped(t *testing.T) {
	s, sh, up := tunnelNode(t)
	st := sh.state("d")
	if !st.stale || st.target != 1000 || sh.n.tunnels != 1 {
		t.Fatalf("after the claim: stale %v, target %v, tunnels %d; want true, 1000, 1", st.stale, st.target, sh.n.tunnels)
	}
	sh.handleCmd(event{cmd: cmdClaim, doc: "d", rate: 500})
	if st.target != 1000 || sh.n.tunnels != 1 || len(claimsUp(up)) != 1 {
		t.Fatalf("after a second claim: target %v, tunnels %d, claims up %d; want 1000, 1, 1",
			st.target, sh.n.tunnels, len(claimsUp(up)))
	}
	if s.holdsCopy("d") {
		t.Fatal("a claim brought a copy without a passing response")
	}
}

// TestClaimNotHeldNeedsTunneling: a node that does not tunnel claims only
// copies it holds, so a claim whose copy went since the snapshot is dropped:
// no target, no mark, nothing sent up.
func TestClaimNotHeldNeedsTunneling(t *testing.T) {
	s, sh, up := flightNode(t, Config{})
	sh.handleCmd(event{cmd: cmdClaim, doc: "d", rate: 10})
	if st := sh.state("d"); st.target != 0 || st.stale || sh.n.tunnels != 0 || len(up.sent) != 0 || s.holdsCopy("d") {
		t.Fatalf("target %v, stale %v, tunnels %d, %d frames up; want the claim dropped", st.target, st.stale, sh.n.tunnels, len(up.sent))
	}
}

// TestClaimSendsOneFrameUp: every claim applied — on a held copy or as a
// tunnel — sends the parent exactly one claim frame with its document and
// rate. A claim on a held copy raises the target and marks nothing.
func TestClaimSendsOneFrameUp(t *testing.T) {
	_, sh, up := tunnelNode(t)
	if cl := claimsUp(up); len(cl) != 1 || cl[0].Doc != "d" || cl[0].Rate != 1000 || cl[0].To != 0 || cl[0].From != 1 {
		t.Fatalf("tunnel claim sent %+v up, want one claim of 1000 for d from 1 to 0", cl)
	}
	delegateCopy(sh, "e", 1)
	before := sh.state("e").target
	sh.handleCmd(event{cmd: cmdClaim, doc: "e", rate: 7})
	st := sh.state("e")
	if st.target != before+7 || st.stale || sh.n.tunnels != 1 {
		t.Fatalf("held-copy claim: target %v (was %v), stale %v, tunnels %d; want +7, false, 1", st.target, before, st.stale, sh.n.tunnels)
	}
	if cl := claimsUp(up); len(cl) != 2 || cl[1].Doc != "e" || cl[1].Rate != 7 {
		t.Fatalf("claims up %+v, want a second one of 7 for e", cl)
	}
	if len(up.sent) != 2 {
		t.Fatalf("%d frames up, want only the two claims", len(up.sent))
	}
}

// TestClaimFrameCreditsParentLedger: at the parent, a child's claim
// credits that child's duty ledger — not reclaimed duty, not the parent's
// own targets — so the next republish goes down the child's edge with its
// body instead of as a version-only invalidate.
func TestClaimFrameCreditsParentLedger(t *testing.T) {
	s, sh, _ := waitNode(t, Config{})
	kid2, kid3 := &sinkConn{}, &sinkConn{}
	s.children.Store(&childView{conns: map[int]transport.Conn{2: kid2, 3: kid3}})
	target := sh.state("d").target
	sh.handle(event{conn: kid2, env: &netproto.Envelope{
		Kind: netproto.TypeClaim, From: 2, To: 1, Doc: "d", Rate: 4,
	}})
	if got := sh.childDuty[2]["d"]; got != 4 {
		t.Fatalf("child 2's ledger holds %v for d, want 4", got)
	}
	if sh.n.reclaimedDuty != 0 || sh.state("d").target != target {
		t.Fatalf("reclaimed %v, target %v (was %v); a claim is neither", sh.n.reclaimedDuty, sh.state("d").target, target)
	}
	write(sh, 2, true)
	if len(kid2.sent) != 1 || kid2.sent[0].Kind != netproto.TypeRepublish || string(kid2.sent[0].Body) != "body-d2" {
		t.Fatalf("child 2 was sent %+v, want the version-2 republish with its body", kid2.sent)
	}
	if len(kid3.sent) != 1 || kid3.sent[0].Kind != netproto.TypeInvalidate || kid3.sent[0].Body != nil {
		t.Fatalf("child 3 was sent %+v, want a version-only invalidate", kid3.sent)
	}
}

// TestAdmitClearsMark: a delegation that lands while a document waits for
// a passing copy ends the wait. The passing response that follows is not
// admitted a second time: no lease refresh, and the published copy is the
// delegated one.
func TestAdmitClearsMark(t *testing.T) {
	_, sh, _ := tunnelNode(t)
	delegateCopy(sh, "d", 1)
	st := sh.state("d")
	pub := st.pub
	if pub == nil || st.stale {
		t.Fatalf("after the delegation: published %v, stale %v; want the copy held and the mark gone", pub != nil, st.stale)
	}
	pass(sh, 1, 1, "body-d")
	if sh.n.leaseRefreshes != 0 || st.pub != pub {
		t.Fatalf("lease refreshes %d, copy republished %v; want 0 and the delegated copy kept", sh.n.leaseRefreshes, st.pub != pub)
	}
}
