package server

// The conn Attach returns answers a hit on its caller's goroutine
// (ServeLocal) with the read loop's own fast-path decision, and a request it
// declines then crosses the pipe as before. These tests drive flightNode's
// hand-built interior node: its loops are not running, so a request sent
// down the pipe is taken off the shard queue the read loop posts it to and
// handled inline.

import (
	"bytes"
	"testing"
	"time"

	"webwave/internal/netproto"
)

// attachedNode returns a hand-driven interior node holding a published
// copy of "d" with duty, its parent link, and the caller's end of an Attach
// pipe into it.
func attachedNode(t *testing.T) (*shard, *sinkConn, *attachedConn) {
	t.Helper()
	s, sh, up := flightNode(t, Config{})
	delegate(sh, "d", 1000)
	conn := s.Attach().(*attachedConn)
	t.Cleanup(func() { conn.Close() })
	return sh, up, conn
}

// sendDown sends req through the pipe, as the gateway does once ServeLocal
// declines, and handles the event the read loop posts to the shard.
func sendDown(t *testing.T, sh *shard, conn *attachedConn, req *netproto.Envelope) {
	t.Helper()
	if err := conn.Send(req); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-sh.events:
		sh.handle(ev)
	case <-time.After(5 * time.Second):
		t.Fatal("the read loop posted nothing to the shard")
	}
}

func gatewayRead(reqID, floor uint64) *netproto.Envelope {
	return &netproto.Envelope{
		Kind: netproto.TypeRequest, From: -1, To: 1, Origin: 1, ReqID: reqID, Doc: "d", MinVersion: floor,
	}
}

// TestServeLocalSpendsTheOneBudget: a local hit spends exactly one credit
// and answers as the node; once the copy's budget is spent ServeLocal
// declines, and the same request sent down the pipe is forwarded to the
// parent.
func TestServeLocalSpendsTheOneBudget(t *testing.T) {
	sh, up, conn := attachedNode(t)
	st := sh.state("d")
	credits := st.credits.Load()
	resp := conn.ServeLocal(gatewayRead(1, 0))
	if resp == nil {
		t.Fatal("ServeLocal declined a read of a published copy with credits")
	}
	if resp.Kind != netproto.TypeResponse || resp.ReqID != 1 || resp.ServedBy != 1 || resp.Hops != 0 ||
		!bytes.Equal(resp.Body, lendBody("d")) {
		t.Fatalf("local hit = %+v, want node 1's copy at 0 hops", resp)
	}
	netproto.PutEnvelope(resp)
	if got := st.credits.Load(); got != credits-1 {
		t.Fatalf("credits %d -> %d after one local hit, want one spent", credits, got)
	}

	st.credits.Store(0)
	if resp := conn.ServeLocal(gatewayRead(2, 0)); resp != nil {
		t.Fatalf("ServeLocal answered with the budget spent: %+v", resp)
	}
	sendDown(t, sh, conn, gatewayRead(2, 0))
	if reqs := requestsUp(up); len(reqs) != 1 || reqs[0].Doc != "d" {
		t.Fatalf("parent was sent %+v, want the one read forwarded", reqs)
	}
}

// TestServeLocalLeavesAFlooredReadToTheGate: a read whose session floor is
// above the held copy's version is not answered locally; sent down the pipe
// it reaches sessionGate and waits on the record for its write.
func TestServeLocalLeavesAFlooredReadToTheGate(t *testing.T) {
	sh, up, conn := attachedNode(t)
	if resp := conn.ServeLocal(gatewayRead(1, 1)); resp != nil {
		t.Fatalf("ServeLocal answered a floor-1 read from the version-0 copy: %+v", resp)
	}
	sendDown(t, sh, conn, gatewayRead(1, 1))
	if sh.n.sessionRefreshes != 1 || len(sh.state("d").waiting) != 1 || len(up.sent) != 0 {
		t.Fatalf("session refreshes %d, waiting %d, frames up %d; want the read waiting at the gate",
			sh.n.sessionRefreshes, len(sh.state("d").waiting), len(up.sent))
	}
}
