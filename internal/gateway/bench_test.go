package gateway

import (
	"net/http"
	"net/http/httptest"
	"testing"

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

// BenchmarkGatewayServe is one GET through the gateway for a document the
// node it enters at holds: the HTTP edge's cost per request on top of the
// node's fast path, the trip into the node included. The node listens on
// the memory network or on loopback TCP; the gateway, in the node's
// process, enters it the same way on both.
func BenchmarkGatewayServe(b *testing.B) {
	for _, tc := range []struct {
		name string
		cfg  cluster.Config
	}{
		{"memory", cluster.Config{}},
		{"tcp", cluster.Config{Network: transport.TCPNetwork{}, AddrFor: func(int) string { return "127.0.0.1:0" }}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			c, err := cluster.New(tree.MustFromParents([]int{tree.NoParent}),
				map[core.DocID][]byte{"d": make([]byte, 1024)}, tc.cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Stop()
			gw := New(c, Config{})
			defer gw.Close()
			w := &discardWriter{h: make(http.Header)}
			r := httptest.NewRequest(http.MethodGet, "/docs/d", nil)
			gw.ServeHTTP(w, r) // attach the pooled connection outside the timing
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gw.ServeHTTP(w, r)
			}
		})
	}
}
