package gateway

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"webwave/internal/cluster"
	"webwave/internal/core"
	"webwave/internal/netproto"
	"webwave/internal/transport"
	"webwave/internal/tree"
)

func startCluster(t *testing.T, docs map[core.DocID][]byte) *cluster.Cluster {
	t.Helper()
	tr := tree.MustFromParents([]int{tree.NoParent, 0, 0})
	c, err := cluster.New(tr, docs, cluster.Config{
		GossipPeriod:    15 * time.Millisecond,
		DiffusionPeriod: 30 * time.Millisecond,
		Window:          300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

func TestGatewayServesDocumentsOverHTTP(t *testing.T) {
	docs := map[core.DocID][]byte{
		"index.html": []byte("<h1>hello</h1>"),
		"a/b.txt":    []byte("nested path"),
	}
	c := startCluster(t, docs)
	gw := New(c, Config{Origin: FixedOrigin(2)})
	defer gw.Close()
	srv := httptest.NewServer(gw)
	defer srv.Close()

	for name, body := range docs {
		resp, err := http.Get(srv.URL + "/docs/" + string(name))
		if err != nil {
			t.Fatalf("GET %s: %v", name, err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", name, resp.StatusCode)
		}
		if string(got) != string(body) {
			t.Errorf("GET %s: body %q, want %q", name, got, body)
		}
		if resp.Header.Get("X-WebWave-Served-By") == "" {
			t.Errorf("GET %s: missing X-WebWave-Served-By", name)
		}
		if resp.Header.Get("X-WebWave-Origin") != "2" {
			t.Errorf("GET %s: origin header %q, want 2", name, resp.Header.Get("X-WebWave-Origin"))
		}
	}
}

func TestGatewayNotFoundAndErrors(t *testing.T) {
	c := startCluster(t, map[core.DocID][]byte{"d": []byte("x")})
	gw := New(c, Config{})
	defer gw.Close()
	srv := httptest.NewServer(gw)
	defer srv.Close()

	cases := []struct {
		path string
		want int
	}{
		{"/docs/unknown.doc", http.StatusNotFound},
		{"/docs/", http.StatusBadRequest},
		{"/other/path", http.StatusNotFound},
		{"/docs/d", http.StatusOK},
	}
	for _, tc := range cases {
		resp, err := http.Get(srv.URL + tc.path)
		if err != nil {
			t.Fatalf("GET %s: %v", tc.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("GET %s: status %d, want %d", tc.path, resp.StatusCode, tc.want)
		}
	}

	req, err := http.NewRequest(http.MethodPost, srv.URL+"/docs/d", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST: status %d, want 405", resp.StatusCode)
	}
}

func TestGatewayHeadRequest(t *testing.T) {
	c := startCluster(t, map[core.DocID][]byte{"d": []byte("12345")})
	gw := New(c, Config{})
	defer gw.Close()
	srv := httptest.NewServer(gw)
	defer srv.Close()

	resp, err := http.Head(srv.URL + "/docs/d")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HEAD status %d", resp.StatusCode)
	}
	if cl := resp.Header.Get("Content-Length"); cl != "5" {
		t.Errorf("Content-Length = %q, want 5", cl)
	}
	body, _ := io.ReadAll(resp.Body)
	if len(body) != 0 {
		t.Errorf("HEAD returned a body: %q", body)
	}
}

func TestGatewayConcurrentClients(t *testing.T) {
	docs := map[core.DocID][]byte{
		"a": []byte(strings.Repeat("A", 512)),
		"b": []byte(strings.Repeat("B", 512)),
	}
	c := startCluster(t, docs)
	gw := New(c, Config{Origin: HashOrigin([]int{0, 1, 2})})
	defer gw.Close()
	srv := httptest.NewServer(gw)
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := "a"
			if i%2 == 1 {
				name = "b"
			}
			for j := 0; j < 8; j++ {
				resp, err := http.Get(srv.URL + "/docs/" + name)
				if err != nil {
					errs <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if string(body) != string(docs[core.DocID(name)]) {
					errs <- io.ErrUnexpectedEOF
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent client: %v", err)
	}
}

func TestGatewayClosedReturnsBadGateway(t *testing.T) {
	c := startCluster(t, map[core.DocID][]byte{"d": []byte("x")})
	gw := New(c, Config{})
	srv := httptest.NewServer(gw)
	defer srv.Close()
	gw.Close()

	resp, err := http.Get(srv.URL + "/docs/d")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("status %d after Close, want 502", resp.StatusCode)
	}
}

func TestGatewayOriginOutOfRange(t *testing.T) {
	c := startCluster(t, map[core.DocID][]byte{"d": []byte("x")})
	gw := New(c, Config{Origin: FixedOrigin(99)})
	defer gw.Close()
	srv := httptest.NewServer(gw)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/docs/d")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("status %d for bad origin, want 502", resp.StatusCode)
	}
}

func TestHashOriginStableAndInRange(t *testing.T) {
	pick := HashOrigin([]int{3, 5, 7})
	req := httptest.NewRequest(http.MethodGet, "/docs/d", nil)
	req.RemoteAddr = "10.1.2.3:5555"
	first := pick(req)
	for i := 0; i < 10; i++ {
		if got := pick(req); got != first {
			t.Fatalf("HashOrigin not stable: %d vs %d", got, first)
		}
	}
	switch first {
	case 3, 5, 7:
	default:
		t.Fatalf("HashOrigin returned %d, not in the node set", first)
	}
	// Ports must not affect placement (same client, new ephemeral port).
	req2 := httptest.NewRequest(http.MethodGet, "/docs/d", nil)
	req2.RemoteAddr = "10.1.2.3:9999"
	if pick(req2) != first {
		t.Error("HashOrigin varies with the client port")
	}
	if FixedOrigin(4)(req) != 4 {
		t.Error("FixedOrigin broken")
	}
	if HashOrigin(nil)(req) != 0 {
		t.Error("empty HashOrigin should fall back to node 0")
	}
}

// attachLog records the connections a gateway attaches successfully.
type attachLog struct {
	*cluster.Cluster
	conns []transport.Conn
}

func (b *attachLog) Attach(v int) (transport.Conn, error) {
	conn, err := b.Cluster.Attach(v)
	if err == nil {
		b.conns = append(b.conns, conn)
	}
	return conn, err
}

// TestGatewayReattachesAcrossKill: the pooled connection into an origin
// dies with its node. While the node is down a GET there is a 502; once it
// is restarted the next GET attaches afresh and is served. Close closes
// what the gateway attached, and Close and Stop leave no goroutine of
// either behind.
func TestGatewayReattachesAcrossKill(t *testing.T) {
	base := runtime.NumGoroutine()
	c, err := cluster.New(tree.MustFromParents([]int{tree.NoParent, 0}),
		map[core.DocID][]byte{"d": []byte("body")}, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	b := &attachLog{Cluster: c}
	gw := New(b, Config{Origin: FixedOrigin(1)})
	get := func(want, wantAttached int) {
		t.Helper()
		w := httptest.NewRecorder()
		gw.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/docs/d", nil))
		if w.Code != want || len(b.conns) != wantAttached {
			t.Fatalf("GET: status %d after %d attaches, want %d after %d", w.Code, len(b.conns), want, wantAttached)
		}
	}
	get(http.StatusOK, 1)
	if !c.KillNode(1) {
		t.Fatal("KillNode(1) killed nothing")
	}
	get(http.StatusBadGateway, 1)
	if err := c.RestartNode(1); err != nil {
		t.Fatal(err)
	}
	get(http.StatusOK, 2)

	gw.Close()
	for i, conn := range b.conns {
		if err := conn.Send(&netproto.Envelope{Kind: netproto.TypeRequest, Doc: "d"}); !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("attached conn %d still open after Close (Send: %v)", i, err)
		}
	}
	c.Stop()
	// The collectors and read loops end as their connections close: yield
	// until they have returned.
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		runtime.Gosched()
	}
	if n > base {
		t.Fatalf("%d goroutines before the cluster, %d after Close and Stop", base, n)
	}
}
