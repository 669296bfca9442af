package server

// A disk hit reads into its shard's one body buffer and lends it to the
// send: the next disk hit overwrites it. These tests serve disk bodies back
// to back and check that nothing downstream of a send kept the buffer — not
// the memory network's hand-over, not a TCP lane, not the memory tier a
// readmission stored the body in. Handlers run inline on the test
// goroutine; nothing sleeps.

import (
	"bytes"
	"testing"
	"time"

	"webwave/internal/core"
	"webwave/internal/netproto"
	"webwave/internal/transport"
)

// lendBody is a document's body: every byte its own, one length for all, so
// a second read fits the shard buffer the first one grew.
func lendBody(doc core.DocID) []byte { return bytes.Repeat([]byte(doc), 64) }

// delegate hands the node a copy of doc with duty rate, as its parent does.
func delegate(sh *shard, doc core.DocID, rate float64) {
	sh.handle(event{conn: nopConn{}, env: &netproto.Envelope{
		Kind: netproto.TypeDelegate, From: 0, To: 1, Doc: doc, Rate: rate, Body: lendBody(doc),
	}})
}

// linkPair returns both ends of one connection on network n: the end a
// server answers on and the end its client reads.
func linkPair(t *testing.T, n transport.Network, addr string) (server, client transport.Conn) {
	t.Helper()
	l, err := n.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	accepted := make(chan transport.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			c = nil
		}
		accepted <- c
	}()
	client, err = n.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if server = <-accepted; server == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return server, client
}

// TestDiskHitsBackToBack: two documents held on disk alone are requested
// one after the other on one connection; the second read overwrites the
// buffer the first reply was sent from. Over the memory network (which
// hands envelopes across without encoding them) and over TCP loopback
// (which encodes into the shard's lane), each reply must still carry its
// own document's body.
func TestDiskHitsBackToBack(t *testing.T) {
	for _, tc := range []struct {
		name string
		net  transport.Network
		addr string
	}{
		{"memory", transport.NewMemoryNetwork(transport.MemoryOptions{}), "lend"},
		{"tcp", transport.TCPNetwork{}, "127.0.0.1:0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := handServer(t, Config{NumShards: 1, CacheShards: 1, CacheBudgetBytes: 4, DataDir: t.TempDir()})
			t.Cleanup(s.Stop)
			sh := s.shards[0]
			docs := []core.DocID{"a", "b"}
			for _, d := range docs {
				delegate(sh, d, 1000)
				if s.cache.Contains(d) || !s.diskHas(d) {
					t.Fatalf("%s is not held on disk alone", d)
				}
			}
			srv, cli := linkPair(t, tc.net, tc.addr)
			for i, d := range docs {
				sh.handle(event{conn: srv, env: &netproto.Envelope{
					Kind: netproto.TypeRequest, From: -1, Origin: 9, ReqID: uint64(i + 1), Doc: d,
				}})
			}
			sh.flushDirty() // the loop's end-of-batch flush
			if sh.n.diskHits != 2 {
				t.Fatalf("%d disk hits, want 2", sh.n.diskHits)
			}
			for i, d := range docs {
				r, err := cli.Recv()
				if err != nil {
					t.Fatal(err)
				}
				if r.ReqID != uint64(i+1) || r.Doc != d || !bytes.Equal(r.Body, lendBody(d)) {
					t.Fatalf("reply %d: req %d for %q carries %q, want %q", i+1, r.ReqID, r.Doc, r.Body, lendBody(d))
				}
				netproto.PutEnvelope(r)
			}
		})
	}
}

// TestReadmittedBodyOwnsItsBytes: memory holds one body. Document "a"
// carries more duty than "b" but was spilled by b's admission, so a's disk
// hit is readmitted and spills b in turn; b's disk hit is then refused and
// overwrites the shard buffer a was read into. Memory, and the fast path it
// publishes, must still answer a with a's own bytes.
func TestReadmittedBodyOwnsItsBytes(t *testing.T) {
	size := int64(len(lendBody("a")))
	s := handServer(t, Config{
		NumShards: 1, CacheShards: 1, CacheBudgetBytes: size, DataDir: t.TempDir(),
		DiffusionPeriod: time.Hour, // ranks stay the targets: no served rate is measured
	})
	t.Cleanup(s.Stop)
	sh := s.shards[0]
	sh.now = time.Now()
	delegate(sh, "a", 2000)
	delegate(sh, "b", 1000)
	if s.cache.Contains("a") || !s.cache.Contains("b") {
		t.Fatal("b's admission did not spill a")
	}
	c := &sinkConn{}
	for i, d := range []core.DocID{"a", "b"} {
		sh.handle(event{conn: c, env: &netproto.Envelope{
			Kind: netproto.TypeRequest, From: -1, Origin: 9, ReqID: uint64(i + 1), Doc: d,
		}})
	}
	if sh.n.diskHits != 2 || sh.n.readmitsRefused != 1 || !s.cache.Contains("a") || s.cache.Contains("b") {
		t.Fatalf("disk hits %d, refused %d, memory holds a=%v b=%v; want 2, 1, a alone",
			sh.n.diskHits, sh.n.readmitsRefused, s.cache.Contains("a"), s.cache.Contains("b"))
	}
	if len(c.sent) != 2 {
		t.Fatalf("%d replies, want 2", len(c.sent))
	}
	for i, r := range c.sent {
		if !bytes.Equal(r.Body, lendBody(r.Doc)) {
			t.Fatalf("reply %d for %q carries %q", i+1, r.Doc, r.Body)
		}
	}
	if got, _, _ := s.cache.Peek("a"); !bytes.Equal(got, lendBody("a")) {
		t.Fatalf("memory holds %q for a", got)
	}
	fast := &sinkConn{}
	env := &netproto.Envelope{Kind: netproto.TypeRequest, From: -1, Origin: 9, ReqID: 3, Doc: "a"}
	if !s.tryFastServe(sh, shardHash("a"), env, fast) {
		t.Fatal("the readmitted copy is not on the fast path")
	}
	if r := fast.sent[0]; len(fast.sent) != 1 || !bytes.Equal(r.Body, lendBody("a")) {
		t.Fatalf("the fast path answers a with %q", r.Body)
	}
}
