package server

// A read this node cannot serve is held on its document's flight until a
// response for the document answers it. These tests drive an interior node
// by hand (handlers inline, sh.now advanced explicitly, links that record
// what they are sent): one fetch per flight, the first response answering
// every read it satisfies, each answer carrying its own read's hop count,
// and the held reads released when their connection dies or no answer comes
// within PendingTTL. TestJSONFrameRetiresConnection stays on real TCP.

import (
	"encoding/binary"
	"net"
	"testing"
	"time"

	"webwave/internal/core"
	"webwave/internal/netproto"
	"webwave/internal/transport"
)

// flightNode returns a hand-driven interior node (id 1 under parent 0, with
// children 2 and 3) with one shard, whose parent link records what it is
// sent.
func flightNode(t *testing.T, cfg Config) (*Server, *shard, *sinkConn) {
	t.Helper()
	cfg.NumShards = 1
	s := handServer(t, cfg)
	t.Cleanup(s.Stop)
	up := &sinkConn{}
	s.parent.Store(&parentLink{id: 0, conn: up})
	return s, s.shards[0], up
}

// respond delivers the parent's response for doc, named for reqID.
func respond(sh *shard, doc core.DocID, reqID uint64, hops int, ver uint64) {
	sh.handle(event{conn: nopConn{}, env: &netproto.Envelope{
		Kind: netproto.TypeResponse, From: 0, To: 1, Doc: doc, Origin: 9, ReqID: reqID,
		ServedBy: 0, Hops: hops, DocVersion: ver, Body: []byte("body"),
	}})
}

// onFlight returns the reads held on doc's flight.
func onFlight(sh *shard, doc core.DocID) []waiter {
	if fl := sh.state(doc).flight; fl != nil {
		return fl.waiters
	}
	return nil
}

// heldLen runs one tick and returns the held-read count its snapshot
// publishes, the figure a stats scrape reports as PendingLen.
func heldLen(sh *shard) int {
	sh.tick(false)
	return sh.snap.Load().held
}

// TestPendingSweptOnConnClose: the reads held for a connection that goes
// away are dropped, not kept until their TTL.
func TestPendingSweptOnConnClose(t *testing.T) {
	s, sh, up := flightNode(t, Config{})
	c := forward(s, "never", -1, 1, 1, 0)
	other := forward(s, "never", -1, 2, 1, 0)
	if n := len(requestsUp(up)); n != 1 || heldLen(sh) != 2 {
		t.Fatalf("%d fetches, %d held; want 1 fetch holding both reads", n, heldLen(sh))
	}
	sh.handleConnClosed(c)
	if fl := onFlight(sh, "never"); len(fl) != 1 || fl[0].reqID != 2 || heldLen(sh) != 1 {
		t.Fatalf("flight = %+v; want read 2 alone held", fl)
	}
	sh.handleConnClosed(other)
	if n := heldLen(sh); n != 0 || len(sh.waits) != 0 {
		t.Fatalf("%d held, %d records listed after every connection closed; want none", n, len(sh.waits))
	}
}

// TestJSONFrameRetiresConnection has a raw TCP peer write the '{'-leading
// frame protocol v1 used to send. Its Recv fails, so the read loop retires
// the connection through the connection-closed path — the peer's held read
// is dropped although its socket is still open — while the stats scrapes
// on other connections keep being answered.
func TestJSONFrameRetiresConnection(t *testing.T) {
	netw := transport.TCPNetwork{}
	l, err := netw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() { // the parent: accepts the child and reads what it is sent
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				for {
					if _, err := conn.Recv(); err != nil {
						return
					}
				}
			}()
		}
	}()
	child := startServer(t, Config{
		ID: 1, Addr: "127.0.0.1:0", ParentID: 0, ParentAddr: l.Addr(),
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
	waitStats(t, netw, child.Addr(), "held read", func(st *netproto.Stats) bool { return st.PendingLen == 1 })

	payload := `{"v":1,"kind":"gossip","from":7,"to":1,"load":2.5}`
	frame = append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
	if _, err := peer.Write(frame); err != nil {
		t.Fatal(err)
	}
	waitStats(t, netw, child.Addr(), "connection retired after a JSON frame", func(st *netproto.Stats) bool { return st.PendingLen == 0 })
}

// TestPendingExpires: each read on a flight no response answers is dropped
// PendingTTL after it arrived, even while its connection stays open and
// later reads keep sending fresh fetches; the flight is freed once it
// holds nothing, and a response arriving after that answers nobody.
func TestPendingExpires(t *testing.T) {
	s, sh, up := flightNode(t, Config{GossipPeriod: 10 * time.Millisecond, PendingTTL: 50 * time.Millisecond})
	ttl := s.cfg.PendingTTL
	c1 := forward(s, "never", -1, 1, 1, 0)
	sh.now = sh.now.Add(sh.flightRetry)
	c2 := forward(s, "never", -1, 2, 1, 0)
	if n := len(requestsUp(up)); n != 2 {
		t.Fatalf("%d fetches, want a second one past the retry horizon", n)
	}
	sh.now = sh.now.Add(ttl - sh.flightRetry)
	if n := heldLen(sh); n != 2 {
		t.Fatalf("%d held at the first read's TTL, want both still held", n)
	}
	sh.now = sh.now.Add(1)
	n := heldLen(sh)
	if fl := onFlight(sh, "never"); n != 1 || len(fl) != 1 || fl[0].reqID != 2 {
		t.Fatalf("%d held, flight = %+v past the first read's TTL; want read 2 alone held", n, fl)
	}
	sh.now = sh.now.Add(sh.flightRetry)
	if n := heldLen(sh); n != 0 || sh.state("never").flight != nil || len(sh.waits) != 0 {
		t.Fatalf("%d held past both TTLs (flight %+v), want none and the flight freed", n, sh.state("never").flight)
	}
	respond(sh, "never", 2, 1, 0)
	if len(c1.sent)+len(c2.sent) != 0 {
		t.Fatal("a response after the TTL answered a dropped read")
	}
}

// TestSingleFlightCoalesces pins the request-collapsing behavior: N
// concurrent requests for one uncached document produce one upstream
// fetch, and its response answers all N.
func TestSingleFlightCoalesces(t *testing.T) {
	s, sh, up := flightNode(t, Config{})
	const n = 10
	conns := make([]*sinkConn, n)
	for i := range conns {
		conns[i] = forward(s, "d", -1, uint64(i+1), 1, 0)
	}
	reqs := requestsUp(up)
	if len(reqs) != 1 || reqs[0].ReqID != 1 || sh.n.forwarded != 1 || sh.n.coalesced != n-1 {
		t.Fatalf("upward %+v, forwarded %d, coalesced %d; want one fetch led by request 1 and %d coalesced",
			reqs, sh.n.forwarded, sh.n.coalesced, n-1)
	}
	respond(sh, "d", 1, 1, 0)
	for i, c := range conns {
		if len(c.sent) != 1 || c.sent[0].ReqID != uint64(i+1) || string(c.sent[0].Body) != "body" || c.sent[0].ServedBy != 0 {
			t.Fatalf("request %d answered %+v, want one response from the parent", i+1, c.sent)
		}
	}
	if n := heldLen(sh); n != 0 {
		t.Fatalf("%d held after the response, want none", n)
	}
}

// TestFirstResponseAnswersEveryHeldRead: a read arriving past the retry
// horizon leads a second fetch, and the first response answers it with the
// first group; the late second response finds nothing held and sends
// nothing.
func TestFirstResponseAnswersEveryHeldRead(t *testing.T) {
	s, sh, up := flightNode(t, Config{})
	c1, c2 := forward(s, "d", -1, 1, 1, 0), forward(s, "d", -1, 2, 1, 0)
	sh.now = sh.now.Add(sh.flightRetry)
	c3 := forward(s, "d", -1, 3, 1, 0)
	reqs := requestsUp(up)
	if len(reqs) != 2 || reqs[0].ReqID != 1 || reqs[1].ReqID != 3 {
		t.Fatalf("upward requests = %+v, want fetches led by 1 and then 3", reqs)
	}
	respond(sh, "d", 1, 1, 0)
	for i, c := range []*sinkConn{c1, c2, c3} {
		if len(c.sent) != 1 || c.sent[0].ReqID != uint64(i+1) {
			t.Fatalf("request %d answered %+v, want one response", i+1, c.sent)
		}
	}
	respond(sh, "d", 3, 1, 0)
	for i, c := range []*sinkConn{c1, c2, c3} {
		if len(c.sent) != 1 {
			t.Fatalf("request %d answered %d times, want once", i+1, len(c.sent))
		}
	}
	if n := heldLen(sh); n != 0 {
		t.Fatalf("%d held after both responses, want none", n)
	}
}

// TestOrphanReplaysOneFetchPerDocument: two fetches for one document leave
// while the node is orphaned; once a parent link is back, one request goes
// up for the document, carrying the highest floor held.
func TestOrphanReplaysOneFetchPerDocument(t *testing.T) {
	s, sh, _ := flightNode(t, Config{})
	s.parent.Store(nil)
	forward(s, "d", -1, 1, 1, 2)
	sh.now = sh.now.Add(sh.flightRetry)
	forward(s, "d", -1, 2, 1, 3)
	up := &sinkConn{}
	s.parent.Store(&parentLink{id: 0, conn: up})
	sh.parentRestored()
	reqs := requestsUp(up)
	if len(reqs) != 1 || reqs[0].MinVersion != 3 || reqs[0].Doc != "d" {
		t.Fatalf("replayed requests = %+v, want one for d with floor 3", reqs)
	}
	if fl := onFlight(sh, "d"); len(fl) != 2 || fl[0].minVer != 2 || fl[1].minVer != 3 {
		t.Fatalf("flight = %+v, want both reads held for the replayed fetch", fl)
	}
}

// TestCoalescedReadReportsItsOwnHops: a child's read (arrived at 2 hops)
// coalesces behind a local read (1 hop). The parent serves the fetch, so
// the response counts 2 hops for the local read; the child's answer counts
// 3, its own path. Once the read the fetch was named for has left, the
// response's count is all there is to report.
func TestCoalescedReadReportsItsOwnHops(t *testing.T) {
	s, sh, up := flightNode(t, Config{})
	local := forward(s, "d", -1, 1, 1, 0)
	child := forward(s, "d", 2, 2, 2, 0)
	if reqs := requestsUp(up); len(reqs) != 1 || reqs[0].Hops != 2 {
		t.Fatalf("upward requests = %+v, want one fetch at 2 hops", reqs)
	}
	respond(sh, "d", 1, 2, 0)
	if len(local.sent) != 1 || local.sent[0].Hops != 2 {
		t.Fatalf("local read answered %+v, want 2 hops", local.sent)
	}
	if len(child.sent) != 1 || child.sent[0].Hops != 3 {
		t.Fatalf("child's read answered %+v, want 3 hops", child.sent)
	}

	local = forward(s, "e", -1, 3, 1, 0)
	child = forward(s, "e", 2, 4, 2, 0)
	sh.handleConnClosed(local)
	respond(sh, "e", 3, 2, 0)
	if len(child.sent) != 1 || child.sent[0].Hops != 2 {
		t.Fatalf("child's read answered %+v after the named read left, want the response's 2 hops", child.sent)
	}
}
