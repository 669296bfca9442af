package server

import (
	"encoding/binary"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"webwave/internal/core"
	"webwave/internal/netproto"
	"webwave/internal/transport"
)

// fakeParent listens at addr and lets a test play the upstream role: it
// counts forwarded requests and answers only when told to.
type fakeParent struct {
	t        *testing.T
	listener transport.Listener
	conn     atomic.Pointer[transport.Conn] // the child's dial conn
	requests atomic.Int64
	lastReq  atomic.Pointer[netproto.Envelope]
}

func newFakeParent(t *testing.T, netw transport.Network, addr string) *fakeParent {
	t.Helper()
	l, err := netw.Listen(addr)
	if err != nil {
		t.Fatalf("fake parent listen: %v", err)
	}
	fp := &fakeParent{t: t, listener: l}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			fp.conn.Store(&conn)
			go func() {
				for {
					env, err := conn.Recv()
					if err != nil {
						return
					}
					if env.Kind == netproto.TypeRequest {
						cp := *env
						fp.lastReq.Store(&cp)
						fp.requests.Add(1)
					}
				}
			}()
		}
	}()
	return fp
}

// respond sends a response for the given (origin, reqID) down to the child.
func (fp *fakeParent) respond(origin int, reqID uint64, doc core.DocID, body []byte) {
	connp := fp.conn.Load()
	if connp == nil {
		fp.t.Fatal("fake parent: no child connection")
	}
	err := (*connp).Send(&netproto.Envelope{
		Kind: netproto.TypeResponse, From: 0, To: origin,
		Doc: doc, Origin: origin, ReqID: reqID, ServedBy: 0, Hops: 1, Body: body,
	})
	if err != nil {
		fp.t.Fatalf("fake parent respond: %v", err)
	}
}

func scrapePending(t *testing.T, netw transport.Network, addr string) int {
	t.Helper()
	conn := dial(t, netw, addr)
	defer conn.Close()
	if err := conn.Send(&netproto.Envelope{Kind: netproto.TypeStatsQuery, From: -1}); err != nil {
		t.Fatal(err)
	}
	reply := recvKind(t, conn, netproto.TypeStatsReply, 2*time.Second)
	return reply.Stats.PendingLen
}

// waitPending polls addr's stats until PendingLen reaches want.
func waitPending(t *testing.T, netw transport.Network, addr string, want int, failure string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for scrapePending(t, netw, addr) != want {
		if time.Now().After(deadline) {
			t.Fatal(failure)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPendingSweptOnConnClose covers the leak fix: response-routing
// entries for a client connection that goes away must be swept, not kept
// forever.
func TestPendingSweptOnConnClose(t *testing.T) {
	netw := newTestNetwork()
	newFakeParent(t, netw, "parent")
	startServer(t, Config{
		ID: 1, Addr: "child", ParentID: 0, ParentAddr: "parent",
		Network: netw,
	})

	conn, err := netw.Dial("child")
	if err != nil {
		t.Fatal(err)
	}
	// Forward a request whose response never comes: the entry stays pending.
	if err := conn.Send(&netproto.Envelope{
		Kind: netproto.TypeRequest, From: -1, Origin: 7, ReqID: 1, Doc: "never",
	}); err != nil {
		t.Fatal(err)
	}
	waitPending(t, netw, "child", 1, "pending entry never appeared")

	conn.Close()
	waitPending(t, netw, "child", 0, "pending entry not swept after conn close")
}

// TestJSONFrameRetiresConnection has a raw TCP peer write the '{'-leading
// frame protocol v1 used to send. Its Recv fails, so the read loop retires
// the connection through the connection-closed path — the peer's pending
// route is swept although its socket is still open — while the stats
// scrapes on other connections keep being answered.
func TestJSONFrameRetiresConnection(t *testing.T) {
	netw := transport.TCPNetwork{}
	parentAddr := newFakeParent(t, netw, "127.0.0.1:0").listener.Addr()
	child := startServer(t, Config{
		ID: 1, Addr: "127.0.0.1:0", ParentID: 0, ParentAddr: parentAddr,
		Network: netw,
	})
	peer, err := net.Dial("tcp", child.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	frame, err := netproto.AppendFrameV2(nil, &netproto.Envelope{
		Kind: netproto.TypeRequest, From: -1, Origin: 7, ReqID: 1, Doc: "never",
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := peer.Write(frame); err != nil {
		t.Fatal(err)
	}
	waitPending(t, netw, child.Addr(), 1, "pending entry never appeared")

	payload := `{"v":1,"kind":"gossip","from":7,"to":1,"load":2.5}`
	frame = append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
	if _, err := peer.Write(frame); err != nil {
		t.Fatal(err)
	}
	waitPending(t, netw, child.Addr(), 0, "connection not retired after a JSON frame")
}

// TestPendingExpires covers the TTL: entries whose response is lost are
// expired even while the client connection stays open.
func TestPendingExpires(t *testing.T) {
	netw := newTestNetwork()
	newFakeParent(t, netw, "parent")
	startServer(t, Config{
		ID: 1, Addr: "child", ParentID: 0, ParentAddr: "parent",
		Network:    netw,
		PendingTTL: 80 * time.Millisecond,
	})

	conn := dial(t, netw, "child")
	if err := conn.Send(&netproto.Envelope{
		Kind: netproto.TypeRequest, From: -1, Origin: 7, ReqID: 1, Doc: "never",
	}); err != nil {
		t.Fatal(err)
	}
	waitPending(t, netw, "child", 0, "pending entry never expired")
}

// TestSingleFlightCoalesces pins the request-collapsing behavior: N
// concurrent requests for one uncached document produce one upstream
// fetch, and its response answers all N.
func TestSingleFlightCoalesces(t *testing.T) {
	netw := newTestNetwork()
	fp := newFakeParent(t, netw, "parent")
	startServer(t, Config{
		ID: 1, Addr: "child", ParentID: 0, ParentAddr: "parent",
		// A long gossip period keeps the flight-retry horizon far away, so
		// every follower coalesces rather than re-leading.
		GossipPeriod: time.Second,
		Network:      netw,
	})

	conn := dial(t, netw, "child")
	const n = 10
	for i := 1; i <= n; i++ {
		if err := conn.Send(&netproto.Envelope{
			Kind: netproto.TypeRequest, From: -1, Origin: 7, ReqID: uint64(i), Doc: "d",
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for the leader to reach the parent, then confirm no followers do.
	deadline := time.Now().Add(2 * time.Second)
	for fp.requests.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	if got := fp.requests.Load(); got != 1 {
		t.Fatalf("parent saw %d requests, want 1 (single-flight)", got)
	}

	lead := fp.lastReq.Load()
	fp.respond(lead.Origin, lead.ReqID, lead.Doc, []byte("body"))

	seen := map[uint64]bool{}
	for len(seen) < n {
		resp := recvKind(t, conn, netproto.TypeResponse, 2*time.Second)
		if string(resp.Body) != "body" || resp.ServedBy != 0 {
			t.Fatalf("bad coalesced response: %+v", resp)
		}
		seen[resp.ReqID] = true
	}
}
