package gateway

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"webwave/internal/cluster"
	"webwave/internal/core"
	"webwave/internal/transport"
	"webwave/internal/tree"
)

// discardWriter is a ResponseWriter reused across requests: one header map,
// the body dropped.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

// BenchmarkGatewayServe is one GET through the gateway: the HTTP edge's
// cost per request, the trip into the node included. In memory and tcp the
// node it enters at holds the document, so the gateway answers on the
// handler's goroutine; the node listens on the memory network or on
// loopback TCP, and the gateway, in the node's process, enters it the same
// way on both. In forward the entry node is a leaf without a copy (its
// parent never diffuses duty down within the run), so every GET crosses the
// pipe, is forwarded to the root and comes back through the collector.
func BenchmarkGatewayServe(b *testing.B) {
	for _, tc := range []struct {
		name    string
		parents []int
		cfg     cluster.Config
	}{
		{"memory", []int{tree.NoParent}, cluster.Config{}},
		{"tcp", []int{tree.NoParent}, cluster.Config{Network: transport.TCPNetwork{}, AddrFor: func(int) string { return "127.0.0.1:0" }}},
		{"forward", []int{tree.NoParent, 0}, cluster.Config{DiffusionPeriod: time.Hour}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			c, err := cluster.New(tree.MustFromParents(tc.parents),
				map[core.DocID][]byte{"d": make([]byte, 1024)}, tc.cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Stop()
			entry := len(tc.parents) - 1
			gw := New(c, Config{Origin: FixedOrigin(entry)})
			defer gw.Close()
			w := &discardWriter{h: make(http.Header)}
			r := httptest.NewRequest(http.MethodGet, "/docs/d", nil)
			gw.ServeHTTP(w, r) // attach the pooled connection outside the timing
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gw.ServeHTTP(w, r)
			}
			b.StopTimer()
			if hops, want := w.h.Get("X-WebWave-Hops"), strconv.Itoa(entry); hops != want {
				b.Fatalf("last GET took %s hops, want %s", hops, want)
			}
		})
	}
}
