// Package gateway fronts a live WebWave cluster with a plain HTTP document
// service: GET /docs/<name> injects a request packet at a tree node and
// returns the document body that comes back, with headers reporting which
// cache server answered and how far the request traveled. It runs in the
// process of the nodes it fronts: a hit at the entry node is answered on
// the request's goroutine, and a miss enters through an in-process pipe.
//
// This is the adoption path for the library — a browser-facing edge that
// publishes a WebWave tree as an ordinary web service — and it doubles as
// an end-to-end demonstration that the protocol serves real clients, not
// just harness counters.
package gateway

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"webwave/internal/core"
	"webwave/internal/netproto"
	"webwave/internal/transport"
)

// DefaultTimeout bounds how long a request waits for the tree to answer.
const DefaultTimeout = 5 * time.Second

// reqIDBase offsets gateway request ids above the cluster harness's
// sequential ids: a node names a read it holds by (Origin, ReqID) for hop
// attribution (answerFlight), so injector and gateway must not collide.
const reqIDBase = uint64(1) << 62

// Backend is the slice of a live cluster the gateway needs. Implemented by
// *cluster.Cluster.
type Backend interface {
	// Attach opens an in-process connection into tree node v; it fails
	// for a node out of range or down.
	Attach(v int) (transport.Conn, error)
}

// OriginPicker chooses which tree node a client's request enters at — the
// "first cache server on the route from the client" of the paper's model.
type OriginPicker func(r *http.Request) int

// FixedOrigin always enters the tree at node v.
func FixedOrigin(v int) OriginPicker {
	return func(*http.Request) int { return v }
}

// OriginFromHeader reads the entry node from an integer request header —
// the hook load generators use to replay a schedule with exact per-request
// origins through the gateway. Requests without the header (or with an
// unparsable value) fall back to the given picker.
func OriginFromHeader(header string, fallback OriginPicker) OriginPicker {
	return func(r *http.Request) int {
		if s := r.Header.Get(header); s != "" {
			if v, err := strconv.Atoi(s); err == nil && v >= 0 {
				return v
			}
		}
		return fallback(r)
	}
}

// HashOrigin spreads clients over the given nodes by a hash of their
// remote address, emulating geographically scattered entry points.
func HashOrigin(nodes []int) OriginPicker {
	return func(r *http.Request) int {
		if len(nodes) == 0 {
			return 0
		}
		h := uint32(2166136261)
		host := r.RemoteAddr
		if i := strings.LastIndexByte(host, ':'); i >= 0 {
			host = host[:i]
		}
		for i := 0; i < len(host); i++ {
			h = (h ^ uint32(host[i])) * 16777619
		}
		return nodes[int(h)%len(nodes)]
	}
}

// Result is the per-request observation delivered to Config.OnResult.
type Result struct {
	Doc     core.DocID
	Origin  int           // entry node
	Served  int           // serving node (-1 on error)
	Hops    int           // tree edges traversed
	Latency time.Duration // gateway-measured response time
	Err     error         // nil on success (NotFound is a success)
}

// Config parameterizes a Gateway.
type Config struct {
	// Origin picks the entry node per request; default FixedOrigin(0).
	Origin OriginPicker
	// Timeout bounds the wait for a response; default DefaultTimeout.
	Timeout time.Duration
	// Prefix is the URL path prefix for documents; default "/docs/".
	Prefix string
	// OnResult, when set, is called synchronously with every completed
	// document fetch — an observability hook for wiring counters or
	// request logs onto a deployed gateway. (The benchmark's live runner
	// reads the response headers instead: it needs per-request identity,
	// which the hook deliberately omits.) Must be safe for concurrent use.
	OnResult func(Result)
}

func (c Config) withDefaults() Config {
	if c.Origin == nil {
		c.Origin = FixedOrigin(0)
	}
	if c.Timeout <= 0 {
		c.Timeout = DefaultTimeout
	}
	if c.Prefix == "" {
		c.Prefix = "/docs/"
	}
	return c
}

// Gateway is an http.Handler serving documents out of a WebWave tree.
type Gateway struct {
	backend Backend
	cfg     Config

	seq atomic.Uint64

	mu    sync.Mutex
	conns map[int]*originConn // entry node -> pooled connection
	done  bool
}

// localServer is a node's attached conn (server.Attach) answering a hit on
// the caller's goroutine; it returns nil for a request that needs the pipe.
type localServer interface {
	ServeLocal(req *netproto.Envelope) *netproto.Envelope
}

// originConn is one pooled connection into the tree, shared by every
// request entering at the same node, with response correlation by request
// id.
type originConn struct {
	conn transport.Conn

	mu      sync.Mutex
	pending map[uint64]chan *netproto.Envelope
	dead    bool
}

// New builds a gateway over a running cluster.
func New(b Backend, cfg Config) *Gateway {
	return &Gateway{
		backend: b,
		cfg:     cfg.withDefaults(),
		conns:   make(map[int]*originConn),
	}
}

// Close releases the gateway's pooled connections. In-flight requests fail
// with 502.
func (g *Gateway) Close() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.done {
		return
	}
	g.done = true
	for _, oc := range g.conns {
		oc.conn.Close()
	}
	g.conns = make(map[int]*originConn)
}

var (
	// errClosed reports a gateway shut down mid-request.
	errClosed = errors.New("gateway: closed")
	// errTimeout reports a tree that did not answer within Config.Timeout.
	errTimeout = errors.New("gateway: timed out")
)

// originConnFor returns (creating on demand) the pooled connection for an
// entry node and starts its response collector.
func (g *Gateway) originConnFor(origin int) (*originConn, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.done {
		return nil, errClosed
	}
	if oc, ok := g.conns[origin]; ok && !oc.isDead() {
		return oc, nil
	}
	conn, err := g.backend.Attach(origin)
	if err != nil {
		return nil, fmt.Errorf("gateway: origin %d: %w", origin, err)
	}
	oc := &originConn{conn: conn, pending: make(map[uint64]chan *netproto.Envelope)}
	g.conns[origin] = oc
	go oc.collect()
	return oc, nil
}

func (oc *originConn) isDead() bool {
	oc.mu.Lock()
	defer oc.mu.Unlock()
	return oc.dead
}

// collect routes responses to their waiting request handlers until the
// connection dies, then fails every outstanding request.
func (oc *originConn) collect() {
	for {
		env, err := oc.conn.Recv()
		if err != nil {
			oc.mu.Lock()
			oc.dead = true
			for id, ch := range oc.pending {
				close(ch)
				delete(oc.pending, id)
			}
			oc.mu.Unlock()
			return
		}
		if env.Kind != netproto.TypeResponse {
			netproto.PutEnvelope(env)
			continue
		}
		oc.mu.Lock()
		ch, ok := oc.pending[env.ReqID]
		if ok {
			delete(oc.pending, env.ReqID)
		}
		oc.mu.Unlock()
		if ok {
			ch <- env // ownership moves to the waiting request handler
		} else {
			netproto.PutEnvelope(env) // late response: its waiter timed out
		}
	}
}

// fetch asks origin for doc: a hit there is answered on this goroutine, and
// anything else is injected through the pipe and waited for. minVer
// is the session's version floor for doc (0 = any): it rides the request,
// so nodes holding an older copy bypass it instead of serving it.
func (g *Gateway) fetch(origin int, doc core.DocID, minVer uint64, timeout time.Duration) (*netproto.Envelope, error) {
	oc, err := g.originConnFor(origin)
	if err != nil {
		return nil, err
	}
	id := reqIDBase + g.seq.Add(1)
	req := netproto.GetEnvelope()
	*req = netproto.Envelope{
		Kind: netproto.TypeRequest, From: -1, To: origin,
		Origin: origin, ReqID: id, Doc: doc, MinVersion: minVer,
	}
	if ls, ok := oc.conn.(localServer); ok {
		if env := ls.ServeLocal(req); env != nil {
			netproto.PutEnvelope(req)
			return env, nil
		}
	}
	ch := make(chan *netproto.Envelope, 1)
	oc.mu.Lock()
	if oc.dead {
		oc.mu.Unlock()
		netproto.PutEnvelope(req)
		return nil, errClosed
	}
	oc.pending[id] = ch
	oc.mu.Unlock()

	err = oc.conn.Send(req) // Send copies req
	netproto.PutEnvelope(req)
	if err != nil {
		oc.mu.Lock()
		delete(oc.pending, id)
		oc.dead = true // the node is gone: attach afresh, without waiting for collect
		oc.mu.Unlock()
		oc.conn.Close()
		return nil, fmt.Errorf("gateway: send: %w", err)
	}

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case env, ok := <-ch:
		if !ok {
			return nil, errClosed
		}
		return env, nil
	case <-timer.C:
		oc.mu.Lock()
		delete(oc.pending, id)
		oc.mu.Unlock()
		return nil, fmt.Errorf("%w: request for %q after %v", errTimeout, doc, timeout)
	}
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead && r.Method != http.MethodPut {
		w.Header().Set("Allow", "GET, HEAD, PUT")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if !strings.HasPrefix(r.URL.Path, g.cfg.Prefix) {
		http.NotFound(w, r)
		return
	}
	name := strings.TrimPrefix(r.URL.Path, g.cfg.Prefix)
	if name == "" {
		http.Error(w, "missing document name", http.StatusBadRequest)
		return
	}
	if r.Method == http.MethodPut {
		g.handlePut(w, r, core.DocID(name))
		return
	}
	// The session header's floor for this document (0 without one) rides
	// the request: any node holding an older copy bypasses it, so a client
	// that threads the header returned by its PUT through this GET reads
	// its own write through any edge.
	minVer := sessionFloor(r.Header.Get(SessionHeader), core.DocID(name))

	origin := g.cfg.Origin(r)
	start := time.Now()
	env, err := g.fetch(origin, core.DocID(name), minVer, g.cfg.Timeout)
	if env != nil {
		defer netproto.PutEnvelope(env) // recycled once the body is written
	}
	if g.cfg.OnResult != nil {
		res := Result{Doc: core.DocID(name), Origin: origin, Served: -1, Latency: time.Since(start), Err: err}
		if err == nil {
			res.Served, res.Hops = env.ServedBy, env.Hops
		}
		g.cfg.OnResult(res)
	}
	switch {
	case err == nil:
	case errors.Is(err, errClosed):
		http.Error(w, "gateway shutting down", http.StatusBadGateway)
		return
	case errors.Is(err, errTimeout):
		http.Error(w, err.Error(), http.StatusGatewayTimeout)
		return
	default:
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	if env.NotFound {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("X-Webwave-Served-By", strconv.Itoa(env.ServedBy))
	w.Header().Set("X-Webwave-Hops", strconv.Itoa(env.Hops))
	w.Header().Set("X-Webwave-Origin", strconv.Itoa(origin))
	w.Header().Set(DocVersionHeader, strconv.FormatUint(env.DocVersion, 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(env.Body)))
	if r.Method == http.MethodHead {
		return
	}
	if _, err := w.Write(env.Body); err != nil {
		// The client went away; nothing useful to do.
		return
	}
}

var _ http.Handler = (*Gateway)(nil)
