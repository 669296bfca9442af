package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"time"

	"webwave/internal/cluster"
	"webwave/internal/core"
	"webwave/internal/gateway"
	"webwave/internal/netproto"
	"webwave/internal/transport"
	"webwave/internal/tree"
)

// originHeader carries each open-loop request's entry node to the gateway.
const originHeader = "X-Bench-Origin"

// stack is the live system under test: a TCP cluster on loopback, plus a
// gateway (open loop) or one raw client connection per entry node (closed
// loop).
type stack struct {
	sp      spec
	c       *cluster.Cluster
	gw      *gateway.Gateway
	conns   []transport.Conn // closed loop: conns[i] enters at in.Entries[i]
	dataDir string
	closed  bool

	clusterDur time.Duration // cluster.New alone
}

// buildStack starts the cluster and its clients and primes them: it
// returns once the hottest documents have been fetched and verified
// through every entry point. Disk-tier directories are created under
// tmpRoot, which must be inside the checkout.
func buildStack(sp spec, in *inputs, tmpRoot string) (*stack, error) {
	start := time.Now()
	t, err := tree.FromParents(treeParents[:sp.Nodes])
	if err != nil {
		return nil, err
	}
	st := &stack{sp: sp}
	cfg := cluster.Config{
		Network:          transport.TCPNetwork{Version: netproto.Version2},
		AddrFor:          func(int) string { return "127.0.0.1:0" },
		GossipPeriod:     gossipPeriod,
		DiffusionPeriod:  diffusionPeriod,
		Window:           rateWindow,
		Tunneling:        true,
		CacheBudgetBytes: sp.CacheBudgetBytes,
		DiskBudgetBytes:  sp.DiskBudgetBytes,
	}
	if sp.DiskBudgetBytes > 0 {
		if st.dataDir, err = os.MkdirTemp(tmpRoot, "disk-"); err != nil {
			return nil, err
		}
		cfg.DataDir = st.dataDir
	}
	docs := make(map[core.DocID][]byte, len(in.DocIDs))
	for i, id := range in.DocIDs {
		docs[id] = in.Bodies[i]
	}
	if st.c, err = cluster.New(t, docs, cfg); err != nil {
		st.close()
		return nil, err
	}
	st.clusterDur = time.Since(start)

	if sp.closed() {
		for _, v := range in.Entries {
			conn, err := st.c.Network().Dial(st.c.Addr(v))
			if err != nil {
				st.close()
				return nil, fmt.Errorf("dial entry %d: %w", v, err)
			}
			st.conns = append(st.conns, conn)
		}
	} else {
		st.gw = gateway.New(st.c, gateway.Config{
			Origin:  gateway.OriginFromHeader(originHeader, gateway.FixedOrigin(t.Root())),
			Timeout: gatewayTimeout,
		})
	}
	if err := st.prime(in); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// prime fetches the hottest documents once through every entry point and
// verifies them, so set-up ends with every client path proven to work.
func (st *stack) prime(in *inputs) error {
	n := min(primeDocs, len(in.DocIDs))
	for i, v := range in.Entries {
		for d := 0; d < n; d++ {
			var body []byte
			var err error
			if st.sp.closed() {
				body, err = fetchRaw(st.conns[i], v, in.DocIDs[d], uint64(d+1))
			} else {
				res := serve(st.gw, newRequest(http.MethodGet, in.DocIDs[d], v, "", nil))
				body = res.body
				if res.status != http.StatusOK {
					err = fmt.Errorf("status %d", res.status)
				}
			}
			if err != nil {
				return fmt.Errorf("prime %s at node %d: %w", in.DocIDs[d], v, err)
			}
			if !in.checkBody(d, 0, body) {
				return fmt.Errorf("prime %s at node %d: wrong body", in.DocIDs[d], v)
			}
		}
	}
	return nil
}

// fetchRaw sends one request on a raw connection and waits for its
// response.
func fetchRaw(conn transport.Conn, origin int, doc core.DocID, reqID uint64) ([]byte, error) {
	err := conn.Send(&netproto.Envelope{
		Kind: netproto.TypeRequest, From: -1, To: origin,
		Origin: origin, ReqID: reqID, Doc: doc,
	})
	if err != nil {
		return nil, err
	}
	for {
		env, err := conn.Recv()
		if err != nil {
			return nil, err
		}
		if env.Kind != netproto.TypeResponse || env.ReqID != reqID {
			netproto.PutEnvelope(env)
			continue
		}
		body, notFound := env.Body, env.NotFound
		netproto.PutEnvelope(env) // the pool drops Body, never reuses it
		if notFound {
			return nil, fmt.Errorf("not found")
		}
		return body, nil
	}
}

// close tears the stack down and removes its disk-tier directory. Closing
// twice is harmless.
func (st *stack) close() {
	if st.closed {
		return
	}
	st.closed = true
	for _, conn := range st.conns {
		conn.Close()
	}
	if st.gw != nil {
		st.gw.Close()
	}
	if st.c != nil {
		st.c.Stop()
	}
	if st.dataDir != "" {
		os.RemoveAll(st.dataDir)
	}
}

// httpResult is what the benchmark keeps of one gateway response.
type httpResult struct {
	status int
	header http.Header
	body   []byte
}

func (r *httpResult) Header() http.Header { return r.header }

func (r *httpResult) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

// Write keeps the slice: the gateway writes the envelope's body in one
// call, and a recycled envelope drops its body rather than reusing it.
func (r *httpResult) Write(b []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	if r.body == nil {
		r.body = b
	} else {
		r.body = append(r.body, b...)
	}
	return len(b), nil
}

// serve calls the gateway's handler directly, as an HTTP server would.
func serve(gw *gateway.Gateway, req *http.Request) *httpResult {
	res := &httpResult{header: make(http.Header, 8)}
	gw.ServeHTTP(res, req)
	res.WriteHeader(http.StatusOK)
	return res
}

// newRequest builds the request an HTTP server would hand the gateway.
func newRequest(method string, doc core.DocID, entry int, session string, body []byte) *http.Request {
	req := &http.Request{
		Method: method,
		URL:    &url.URL{Path: "/docs/" + string(doc)},
		Header: http.Header{originHeader: {strconv.Itoa(entry)}},
		Body:   http.NoBody,
	}
	if session != "" {
		req.Header.Set(gateway.SessionHeader, session)
	}
	if body != nil {
		req.Body = io.NopCloser(bytes.NewReader(body))
	}
	return req
}
