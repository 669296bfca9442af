package gateway

// A GET the entry node holds a copy for is answered on the handler's own
// goroutine (localServer, which server.Attach's conn implements): no frame
// crosses the pipe into the node, and the node counts the serve exactly as
// its read loop would.

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"webwave/internal/cluster"
	"webwave/internal/core"
	"webwave/internal/netproto"
	"webwave/internal/transport"
	"webwave/internal/tree"
)

// sendCounter counts the frames the gateway sends into the pipe of each
// conn it attaches, keeping their local serving.
type sendCounter struct {
	*cluster.Cluster
	sends atomic.Int64
}

type countedConn struct {
	transport.Conn
	localServer
	sends *atomic.Int64
}

func (c *countedConn) Send(env *netproto.Envelope) error {
	c.sends.Add(1)
	return c.Conn.Send(env)
}

func (b *sendCounter) Attach(v int) (transport.Conn, error) {
	conn, err := b.Cluster.Attach(v)
	if err != nil {
		return nil, err
	}
	ls, _ := conn.(localServer)
	return &countedConn{Conn: conn, localServer: ls, sends: &b.sends}, nil
}

// rootCluster is a one-node tree whose origin holds "d".
func rootCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(tree.MustFromParents([]int{tree.NoParent}),
		map[core.DocID][]byte{"d": []byte("body")}, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

func nodeStats(t *testing.T, c *cluster.Cluster, v int) *netproto.Stats {
	t.Helper()
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	return st[v]
}

// TestGatewayLocalHitSkipsThePipe: N GETs at the node holding the document
// are each answered by it at 0 hops, its FastServed and Served each rise by
// exactly N, and not one frame is sent into the pipe.
func TestGatewayLocalHitSkipsThePipe(t *testing.T) {
	const n = 50
	c := rootCluster(t)
	conn, err := c.Attach(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := conn.(localServer); !ok {
		t.Fatalf("cluster.Attach returned %T, which cannot serve a hit locally", conn)
	}
	conn.Close()
	b := &sendCounter{Cluster: c}
	gw := New(b, Config{})
	defer gw.Close()
	before := nodeStats(t, c, 0)
	for i := 0; i < n; i++ {
		w := httptest.NewRecorder()
		gw.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/docs/d", nil))
		if w.Code != http.StatusOK || w.Body.String() != "body" ||
			w.Header().Get("X-WebWave-Served-By") != "0" || w.Header().Get("X-WebWave-Hops") != "0" {
			t.Fatalf("GET %d: status %d, body %q, served by %q at %q hops; want node 0's copy at 0 hops",
				i, w.Code, w.Body, w.Header().Get("X-WebWave-Served-By"), w.Header().Get("X-WebWave-Hops"))
		}
	}
	after := nodeStats(t, c, 0)
	if fast, served := after.FastServed-before.FastServed, after.Served-before.Served; fast != n || served != n {
		t.Fatalf("%d GETs moved FastServed by %d and Served by %d, want %d each", n, fast, served, n)
	}
	if sent := b.sends.Load(); sent != 0 {
		t.Fatalf("%d local hits sent %d frames into the pipe, want none", n, sent)
	}
}

// TestGatewayKilledNodeServesNothing: a killed entry node still holds its
// copies in memory, but a conn attached to it before the kill answers
// nothing from them, and a GET there fails.
func TestGatewayKilledNodeServesNothing(t *testing.T) {
	c := rootCluster(t)
	conn, err := c.Attach(0)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ls := conn.(localServer)
	read := &netproto.Envelope{Kind: netproto.TypeRequest, From: -1, To: 0, Origin: 0, ReqID: reqIDBase, Doc: "d"}
	resp := ls.ServeLocal(read)
	if resp == nil {
		t.Fatal("the live node declined a read of its own document")
	}
	netproto.PutEnvelope(resp)
	if !c.KillNode(0) {
		t.Fatal("KillNode(0) killed nothing")
	}
	if resp := ls.ServeLocal(read); resp != nil {
		t.Fatalf("the killed node answered from its memory: %+v", resp)
	}
	gw := New(c, Config{})
	defer gw.Close()
	w := httptest.NewRecorder()
	gw.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/docs/d", nil))
	if w.Code != http.StatusBadGateway {
		t.Fatalf("GET at the killed node: status %d, want 502", w.Code)
	}
}

// TestGatewayLocalHitAllocs pins a local hit through ServeHTTP at its
// measured count: one slice per response header set, and nothing per
// request on the way to the node and back. (BenchmarkGatewayServe's
// 1024-byte body adds its Content-Length string: 7.)
func TestGatewayLocalHitAllocs(t *testing.T) {
	c := rootCluster(t)
	gw := New(c, Config{})
	defer gw.Close()
	w := &discardWriter{h: make(http.Header)}
	r := httptest.NewRequest(http.MethodGet, "/docs/d", nil)
	gw.ServeHTTP(w, r) // attach the pooled connection first
	const want = 6
	if n := testing.AllocsPerRun(200, func() { gw.ServeHTTP(w, r) }); n != want {
		t.Fatalf("a local hit allocates %v times, want %d", n, want)
	}
	if got := w.h.Get("X-WebWave-Hops"); got != "0" {
		t.Fatalf("hops %q, want a local hit", got)
	}
}
