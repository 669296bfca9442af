package server

import (
	"bufio"
	"bytes"
	"net"
	"testing"
	"time"

	"webwave/internal/core"
	"webwave/internal/netproto"
	"webwave/internal/transport"
)

// The tests below run the read loop over real loopback sockets, where
// fast-path replies are buffered and flushed by the connection's Recv.

// rawClient dials addr with a plain socket, so a test controls how its
// requests are cut into writes.
func rawClient(t *testing.T, addr string) (net.Conn, *netproto.FrameReader) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, netproto.NewFrameReader(bufio.NewReader(c))
}

// writeRequests sends one request per document in a single write, ReqIDs
// counting up from first.
func writeRequests(t *testing.T, c net.Conn, first uint64, docs ...core.DocID) {
	t.Helper()
	var buf []byte
	for i, doc := range docs {
		var err error
		buf, err = netproto.AppendFrameV2(buf, &netproto.Envelope{
			Kind: netproto.TypeRequest, From: -1, Origin: 1, ReqID: first + uint64(i), Doc: doc,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Write(buf); err != nil {
		t.Fatal(err)
	}
}

// readReplies reads n responses and checks each against the document its
// ReqID asked for: the published body, or NotFound where want has none.
func readReplies(t *testing.T, c net.Conn, r *netproto.FrameReader, n int, asked map[uint64]core.DocID, want map[core.DocID][]byte) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	defer c.SetReadDeadline(time.Time{})
	for i := 0; i < n; i++ {
		var env netproto.Envelope
		if err := r.ReadInto(&env); err != nil {
			t.Fatalf("reply %d of %d: %v", i+1, n, err)
		}
		doc, ok := asked[env.ReqID]
		if !ok || env.Kind != netproto.TypeResponse || env.Doc != doc {
			t.Fatalf("unexpected frame %v req %d doc %q", env.Kind, env.ReqID, env.Doc)
		}
		delete(asked, env.ReqID)
		body, held := want[doc]
		if env.NotFound == held || !bytes.Equal(env.Body, body) {
			t.Fatalf("req %d for %q: body %q notFound=%v, want %q", env.ReqID, doc, env.Body, env.NotFound, body)
		}
	}
}

func tcpRoot(t *testing.T, cfg Config) *Server {
	cfg.ID, cfg.ParentID = 0, -1
	cfg.Addr, cfg.Network = "127.0.0.1:0", transport.TCPNetwork{}
	return startServer(t, cfg)
}

// TestTCPPipelinedRequestsAllAnswered: a batch of requests arriving in one
// write — fast-path hits and queued misses mixed — is answered in full.
func TestTCPPipelinedRequestsAllAnswered(t *testing.T) {
	docs := map[core.DocID][]byte{"a": []byte("body a"), "b": []byte("body b")}
	s := tcpRoot(t, Config{Docs: docs, NumShards: 2})
	c, r := rawClient(t, s.Addr())
	const n = 64
	asked := make(map[uint64]core.DocID, n)
	batch := make([]core.DocID, n)
	for i := range batch {
		batch[i] = []core.DocID{"a", "b", "a", "missing"}[i%4]
		asked[uint64(i+1)] = batch[i]
	}
	writeRequests(t, c, 1, batch...)
	readReplies(t, c, r, n, asked, docs)
}

// TestTCPLoneRequestAnswered: one request and then silence — the reply
// must not wait in the buffer for a next request that never comes.
func TestTCPLoneRequestAnswered(t *testing.T) {
	docs := map[core.DocID][]byte{"a": []byte("body a")}
	s := tcpRoot(t, Config{Docs: docs})
	c, r := rawClient(t, s.Addr())
	for id := uint64(1); id <= 3; id++ {
		writeRequests(t, c, id, "a")
		readReplies(t, c, r, 1, map[uint64]core.DocID{id: "a"}, docs)
	}
}

// TestTCPFastReplyNotHeldByFullQueue: a fast-path hit, then queued requests
// that fill the shard queue and block the read loop. The hit's reply must
// reach the client while the loop is blocked, before anything drains.
func TestTCPFastReplyNotHeldByFullQueue(t *testing.T) {
	docs := map[core.DocID][]byte{"hot": []byte("hot body")}
	s, err := New(Config{
		ID: 0, ParentID: -1, Addr: "unused", Network: transport.TCPNetwork{},
		Docs: docs, NumShards: 1, QueueDepth: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop) // never started: no shard loop drains the queue
	l, err := transport.TCPNetwork{}.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c, r := rawClient(t, l.Addr())
	conn, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	s.readLoop(conn)

	// Request 2 fills the one-slot queue; request 3 blocks the read loop.
	writeRequests(t, c, 1, "hot", "missing", "missing")
	readReplies(t, c, r, 1, map[uint64]core.DocID{1: "hot"}, docs)

	// Drain the queue by hand: both misses are answered NotFound.
	sh := s.shards[0]
	for i := 0; i < 2; i++ {
		select {
		case ev := <-sh.events:
			sh.now = time.Now()
			sh.handle(ev)
			sh.flushDirty()
		case <-time.After(5 * time.Second):
			t.Fatalf("queued request %d never posted", i+2)
		}
	}
	readReplies(t, c, r, 2, map[uint64]core.DocID{2: "missing", 3: "missing"}, docs)
}
