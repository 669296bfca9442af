package gateway

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"webwave/internal/netproto"
	"webwave/internal/transport"
)

// silentBackend implements Backend with a node that reads requests and
// answers none — the pathological tree for timeout handling.
type silentBackend struct{}

func (silentBackend) Attach(v int) (transport.Conn, error) {
	if v != 0 {
		return nil, fmt.Errorf("node %d out of range", v)
	}
	client, node := transport.Pipe()
	go func() {
		for {
			if _, err := node.Recv(); err != nil {
				return
			}
		}
	}()
	return client, nil
}

func TestGatewayTimesOutOnSilentTree(t *testing.T) {
	gw := New(silentBackend{}, Config{Timeout: 50 * time.Millisecond})
	defer gw.Close()
	srv := httptest.NewServer(gw)
	defer srv.Close()

	start := time.Now()
	resp, err := http.Get(srv.URL + "/docs/anything")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v; configured 50ms", elapsed)
	}
	// The pending map must not leak the timed-out request.
	gw.mu.Lock()
	oc := gw.conns[0]
	gw.mu.Unlock()
	if oc == nil {
		t.Fatal("no pooled connection")
	}
	oc.mu.Lock()
	pending := len(oc.pending)
	oc.mu.Unlock()
	if pending != 0 {
		t.Errorf("%d pending entries leaked after timeout", pending)
	}
}

// deadConn is a connection whose peer is gone but whose collector has not
// noticed yet: Send fails, Recv blocks until Close.
type deadConn struct {
	once   sync.Once
	closed chan struct{}
}

func (c *deadConn) Send(*netproto.Envelope) error { return transport.ErrClosed }
func (c *deadConn) Recv() (*netproto.Envelope, error) {
	<-c.closed
	return nil, transport.ErrClosed
}
func (c *deadConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// deadBackend hands out deadConns and keeps them.
type deadBackend struct{ conns []*deadConn }

func (b *deadBackend) Attach(int) (transport.Conn, error) {
	b.conns = append(b.conns, &deadConn{closed: make(chan struct{})})
	return b.conns[len(b.conns)-1], nil
}

// TestGatewayDropsConnOnFailedSend: a send that fails retires the pooled
// connection at once, closed so its collector ends, and the next request
// attaches afresh instead of failing on the same connection until the
// collector notices.
func TestGatewayDropsConnOnFailedSend(t *testing.T) {
	b := &deadBackend{}
	gw := New(b, Config{})
	defer gw.Close()
	for want := 1; want <= 2; want++ {
		w := httptest.NewRecorder()
		gw.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/docs/d", nil))
		if w.Code != http.StatusBadGateway || len(b.conns) != want {
			t.Fatalf("GET %d: status %d after %d attaches, want 502 after %d", want, w.Code, len(b.conns), want)
		}
		select {
		case <-b.conns[want-1].closed:
		default:
			t.Fatalf("GET %d: the connection a send failed on is still open", want)
		}
	}
}
