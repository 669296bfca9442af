// Package cluster assembles live WebWave servers (internal/server) into a
// routing tree over a transport, injects client request traffic from a
// schedule, and scrapes per-node metrics — the test and demonstration
// harness for the live protocol.
//
// Beyond assembly, the cluster is a topology registry with failure
// injection: KillNode / RestartNode stop and revive whole servers (the
// restarted node rebinds its old address, so surviving ancestor lists stay
// valid), PartitionEdge / HealEdge drop traffic on a tree edge without
// killing anything, and Topology scrapes each node's current parent so the
// repaired tree — children failed over to ancestors, restarted nodes
// re-attached — is observable rather than assumed.
package cluster

import (
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"webwave/internal/core"
	"webwave/internal/netproto"
	"webwave/internal/server"
	"webwave/internal/stats"
	"webwave/internal/trace"
	"webwave/internal/transport"
	"webwave/internal/tree"
)

// Config parameterizes a cluster.
type Config struct {
	// Network is the transport; nil means a zero-latency in-memory network.
	Network transport.Network
	// AddrFor maps a node id to its listen address. nil yields "node-<id>"
	// (memory networks) — pass 127.0.0.1:0-style addresses for TCP.
	AddrFor func(id int) string

	GossipPeriod    time.Duration
	DiffusionPeriod time.Duration
	Window          time.Duration

	Tunneling bool

	// CacheBudgetBytes bounds every server's cached bytes (0 = unlimited).
	// The home server's published documents are pinned and exempt.
	CacheBudgetBytes int64
	// DataDir enables each server's disk persistence tier: node v gets
	// DataDir/node-v as its server.Config.DataDir, so a KillNode followed
	// by RestartNode comes back warm — journal replayed, held copies
	// re-announced. Empty disables the tier. DiskBudgetBytes bounds each
	// node's on-disk body bytes (0 = unlimited).
	DataDir         string
	DiskBudgetBytes int64
	// CacheShards is each server's cache-store stripe count (default: the
	// server's NumShards, keeping evictions local to the owning shard).
	CacheShards int

	// NumShards is each server's doc-sharded event loop count (0 =
	// GOMAXPROCS). See server.Config.
	NumShards int

	// Ancestors gives every non-root server a failover candidate list
	// ([parent, grandparent, ..., root]): a node whose parent link dies
	// re-attaches to the nearest answering ancestor and replays its held
	// duty. HeartbeatPeriod (>0 implies Ancestors) additionally enables the
	// liveness detector, which is what turns a silent failure — a partition,
	// a wedged peer — into a detected one; HeartbeatMisses is the silence
	// budget (0 = server default of 3 periods). See server.Config.
	Ancestors       bool
	HeartbeatPeriod time.Duration
	HeartbeatMisses int
}

// Cluster is a running tree of live servers.
type Cluster struct {
	t       *tree.Tree
	cfg     Config
	net     transport.Network
	servers []*server.Server
	addrs   []string

	// Topology registry: the per-node server configs (kept so KillNode /
	// RestartNode can revive a node on its original address) and each
	// node's liveness.
	regMu sync.Mutex
	scfgs []server.Config
	dead  []bool

	injectMu    sync.Mutex
	injectConns []transport.Conn
	reqSeq      []uint64

	outstanding atomic.Int64
	responses   atomic.Int64
	totalHops   atomic.Int64
	servedByMu  sync.Mutex
	servedBy    map[int]int64
	sentAt      map[pendingKey]sentInfo
	latencies   []float64 // seconds, one per answered request

	// rmwViolations counts read-my-writes violations: responses that
	// carried an older version than the injecting session had already
	// written (session.go). The detector runs on every session read whether
	// or not the token rode the wire, so the token-less arm of the session
	// scenario measures the violation rate the tokens eliminate.
	rmwViolations atomic.Int64

	// Mutable-document write log (update.go): the latest version assigned
	// per document, when each version was written, and the staleness age of
	// every response for a written document.
	verMu     sync.Mutex
	docVers   map[core.DocID]uint64
	writeAt   map[core.DocID][]time.Time
	staleness []float64 // seconds; 0 = served the latest version
}

// pendingKey identifies an in-flight request for latency accounting.
type pendingKey struct {
	origin int
	reqID  uint64
}

// sentInfo is one in-flight request's accounting record: when it was
// injected, and — for session reads — the version the session expects the
// response to be at or beyond (0 for version-oblivious reads).
type sentInfo struct {
	at     time.Time
	expect uint64
}

// New starts one server per tree node (parents before children, so child
// dials succeed) and attaches an in-process injection connection to every
// node (see Attach).
func New(t *tree.Tree, docs map[core.DocID][]byte, cfg Config) (*Cluster, error) {
	netw := cfg.Network
	if netw == nil {
		netw = transport.NewMemoryNetwork(transport.MemoryOptions{})
	}
	addrFor := cfg.AddrFor
	if addrFor == nil {
		addrFor = func(id int) string { return fmt.Sprintf("node-%d", id) }
	}
	c := &Cluster{
		t:           t,
		cfg:         cfg,
		net:         netw,
		servers:     make([]*server.Server, t.Len()),
		addrs:       make([]string, t.Len()),
		scfgs:       make([]server.Config, t.Len()),
		dead:        make([]bool, t.Len()),
		injectConns: make([]transport.Conn, t.Len()),
		reqSeq:      make([]uint64, t.Len()),
		servedBy:    make(map[int]int64),
		sentAt:      make(map[pendingKey]sentInfo),
		docVers:     make(map[core.DocID]uint64),
		writeAt:     make(map[core.DocID][]time.Time),
	}

	recovery := cfg.Ancestors || cfg.HeartbeatPeriod > 0
	for _, v := range t.BFSOrder() {
		scfg := server.Config{
			ID:               v,
			Addr:             addrFor(v),
			ParentID:         -1,
			GossipPeriod:     cfg.GossipPeriod,
			DiffusionPeriod:  cfg.DiffusionPeriod,
			Window:           cfg.Window,
			Tunneling:        cfg.Tunneling,
			Network:          netw,
			CacheBudgetBytes: cfg.CacheBudgetBytes,
			CacheShards:      cfg.CacheShards,
			NumShards:        cfg.NumShards,
			DiskBudgetBytes:  cfg.DiskBudgetBytes,
			HeartbeatPeriod:  cfg.HeartbeatPeriod,
			HeartbeatMisses:  cfg.HeartbeatMisses,
		}
		if cfg.DataDir != "" {
			scfg.DataDir = filepath.Join(cfg.DataDir, fmt.Sprintf("node-%d", v))
		}
		if v == t.Root() {
			scfg.Docs = docs
		} else {
			scfg.ParentID = t.Parent(v)
			scfg.ParentAddr = c.addrs[t.Parent(v)]
			if recovery {
				// Failover candidates: parent first (a healed or restarted
				// parent is always preferred), then each farther ancestor.
				// BFS order guarantees every ancestor's address is known.
				for p := t.Parent(v); p >= 0; p = t.Parent(p) {
					scfg.AncestorAddrs = append(scfg.AncestorAddrs, c.addrs[p])
				}
			}
		}
		srv, err := server.New(scfg)
		if err != nil {
			c.Stop()
			return nil, fmt.Errorf("cluster: node %d: %w", v, err)
		}
		if err := srv.Start(); err != nil {
			srv.Stop() // not in c.servers yet: release its journal and disk tier
			c.Stop()
			return nil, fmt.Errorf("cluster: start node %d: %w", v, err)
		}
		c.servers[v] = srv
		c.addrs[v] = srv.Addr()
		// Registry copy with the concrete bound address, so a restart
		// rebinds exactly where the ancestors expect the node.
		scfg.Addr = srv.Addr()
		c.scfgs[v] = scfg
		c.injectConns[v] = srv.Attach()
		go c.collect(c.injectConns[v])
	}
	return c, nil
}

func (c *Cluster) collect(conn transport.Conn) {
	for {
		env, err := conn.Recv()
		if err != nil {
			return
		}
		if env.Kind != netproto.TypeResponse {
			netproto.PutEnvelope(env)
			continue
		}
		now := time.Now()
		c.outstanding.Add(-1)
		c.responses.Add(1)
		c.totalHops.Add(int64(env.Hops))
		key := pendingKey{origin: env.Origin, reqID: env.ReqID}
		c.servedByMu.Lock()
		c.servedBy[env.ServedBy]++
		if sent, ok := c.sentAt[key]; ok {
			delete(c.sentAt, key)
			c.latencies = append(c.latencies, now.Sub(sent.at).Seconds())
			if isRMWViolation(sent.expect, env.DocVersion, env.NotFound) {
				c.rmwViolations.Add(1)
			}
		}
		c.servedByMu.Unlock()
		c.noteServedVersion(env, now)
		netproto.PutEnvelope(env) // fully consumed: recycle
	}
}

// Inject sends one client request for doc entering the tree at origin. A
// failed send (the origin node is down) rolls its accounting back, so Drain
// still converges on the requests that actually entered the tree.
func (c *Cluster) Inject(origin int, doc core.DocID) error {
	return c.inject(origin, doc, 0, 0)
}

// inject is the shared injection path: expect is the version the session
// expects back (violation accounting only), minVer what rides the wire as
// the request's MinVersion (0 = no token).
func (c *Cluster) inject(origin int, doc core.DocID, expect, minVer uint64) error {
	if origin < 0 || origin >= c.t.Len() {
		return fmt.Errorf("cluster: origin %d out of range", origin)
	}
	c.injectMu.Lock()
	c.reqSeq[origin]++
	seq := c.reqSeq[origin]
	conn := c.injectConns[origin]
	c.injectMu.Unlock()
	key := pendingKey{origin: origin, reqID: seq}
	c.servedByMu.Lock()
	c.sentAt[key] = sentInfo{at: time.Now(), expect: expect}
	c.servedByMu.Unlock()
	c.outstanding.Add(1)
	err := conn.Send(&netproto.Envelope{
		Kind: netproto.TypeRequest, From: -1, To: origin,
		Origin: origin, ReqID: seq, Doc: doc, MinVersion: minVer,
	})
	if err != nil {
		c.outstanding.Add(-1)
		c.servedByMu.Lock()
		delete(c.sentAt, key)
		c.servedByMu.Unlock()
	}
	return err
}

// LatencySummary returns descriptive statistics of per-request response
// latencies in seconds (inject to response at the origin).
func (c *Cluster) LatencySummary() stats.Summary {
	c.servedByMu.Lock()
	samples := append([]float64(nil), c.latencies...)
	c.servedByMu.Unlock()
	return stats.Summarize(samples)
}

// Play replays a request schedule, compressing time by `speedup` (a request
// at schedule time T is injected at wall time T/speedup after start).
func (c *Cluster) Play(reqs []trace.Request, speedup float64) error {
	if speedup <= 0 {
		speedup = 1
	}
	start := time.Now()
	for i := range reqs {
		due := start.Add(time.Duration(reqs[i].Time / speedup * float64(time.Second)))
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		if err := c.Inject(reqs[i].Origin, reqs[i].Doc); err != nil {
			return fmt.Errorf("cluster: inject request %d: %w", i, err)
		}
	}
	return nil
}

// Drain waits until every injected request has been answered or the timeout
// elapses. It returns the number still outstanding.
func (c *Cluster) Drain(timeout time.Duration) int64 {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if c.outstanding.Load() <= 0 {
			return 0
		}
		time.Sleep(5 * time.Millisecond)
	}
	return c.outstanding.Load()
}

// Responses returns the number of answered requests so far.
func (c *Cluster) Responses() int64 { return c.responses.Load() }

// Addr returns node v's transport address (empty when out of range).
func (c *Cluster) Addr(v int) string {
	if v < 0 || v >= len(c.addrs) {
		return ""
	}
	return c.addrs[v]
}

// Network returns the transport the cluster runs on.
func (c *Cluster) Network() transport.Network { return c.net }

// Attach opens an in-process connection into node v (server.Attach) for a
// caller in the cluster's process. It fails for a node out of range or dead.
func (c *Cluster) Attach(v int) (transport.Conn, error) {
	c.regMu.Lock()
	defer c.regMu.Unlock()
	if v < 0 || v >= len(c.servers) || c.dead[v] {
		return nil, fmt.Errorf("cluster: node %d out of range or down", v)
	}
	return c.servers[v].Attach(), nil
}

// Tree returns the routing tree the cluster was built on.
func (c *Cluster) Tree() *tree.Tree { return c.t }

// MeanHops returns the average number of tree edges requests traversed
// before being served — the paper's "requests stumble on cache copies en
// route" effect made measurable.
func (c *Cluster) MeanHops() float64 {
	n := c.responses.Load()
	if n == 0 {
		return 0
	}
	return float64(c.totalHops.Load()) / float64(n)
}

// ServedBy returns how many requests each node has served (by responses).
func (c *Cluster) ServedBy() map[int]int64 {
	c.servedByMu.Lock()
	defer c.servedByMu.Unlock()
	out := make(map[int]int64, len(c.servedBy))
	for k, v := range c.servedBy {
		out[k] = v
	}
	return out
}

// ServedVector returns ServedBy as a dense per-node vector.
func (c *Cluster) ServedVector() core.Vector {
	m := c.ServedBy()
	out := make(core.Vector, c.t.Len())
	for v, n := range m {
		if v >= 0 && v < len(out) {
			out[v] = float64(n)
		}
	}
	return out
}

// Stats scrapes every server and returns the replies ordered by node id.
// Killed nodes yield a nil entry instead of failing the whole scrape, so
// the harness can observe a cluster mid-failure.
func (c *Cluster) Stats() ([]*netproto.Stats, error) {
	out := make([]*netproto.Stats, c.t.Len())
	for v := range out {
		st, err := c.scrape(v)
		// A node killed mid-scrape leaves its entry nil, not a failed scrape.
		if err != nil && !c.NodeDead(v) {
			return nil, err
		}
		out[v] = st
	}
	return out, nil
}

// scrape asks node v for its stats over a connection attached for it.
func (c *Cluster) scrape(v int) (*netproto.Stats, error) {
	conn, err := c.Attach(v)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := conn.Send(&netproto.Envelope{Kind: netproto.TypeStatsQuery, From: -1, To: v}); err != nil {
		return nil, fmt.Errorf("cluster: stats query %d: %w", v, err)
	}
	for {
		env, err := conn.Recv()
		if err != nil {
			return nil, fmt.Errorf("cluster: stats reply %d: %w", v, err)
		}
		kind, st := env.Kind, env.Stats
		netproto.PutEnvelope(env) // keep Stats; the envelope shell recycles
		if kind == netproto.TypeStatsReply && st != nil {
			return st, nil
		}
	}
}

// Loads returns the per-node served rate (requests/second over each
// server's sliding window) via a stats scrape.
func (c *Cluster) Loads() (core.Vector, error) {
	sts, err := c.Stats()
	if err != nil {
		return nil, err
	}
	out := make(core.Vector, len(sts))
	for i, st := range sts {
		if st != nil {
			out[i] = st.Load
		}
	}
	return out, nil
}

// CachedDocs returns each node's cache contents, by node id.
func (c *Cluster) CachedDocs() (map[int][]core.DocID, error) {
	sts, err := c.Stats()
	if err != nil {
		return nil, err
	}
	out := make(map[int][]core.DocID, len(sts))
	for i, st := range sts {
		if st == nil {
			continue
		}
		docs := append([]core.DocID(nil), st.CachedDocs...)
		sort.Slice(docs, func(a, b int) bool { return docs[a] < docs[b] })
		out[i] = docs
	}
	return out, nil
}

// PartitionEdge cuts the routing-tree edge between node v and its parent
// (failure injection): traffic between the two servers is silently dropped
// in both directions until HealEdge. It returns false when v is the root or
// the transport does not support link faults (only the in-memory network
// does).
func (c *Cluster) PartitionEdge(v int) bool {
	return c.setEdge(v, true)
}

// HealEdge reverses PartitionEdge for node v.
func (c *Cluster) HealEdge(v int) bool {
	return c.setEdge(v, false)
}

func (c *Cluster) setEdge(v int, down bool) bool {
	if v < 0 || v >= c.t.Len() || v == c.t.Root() {
		return false
	}
	mem, ok := c.net.(*transport.MemoryNetwork)
	if !ok {
		return false
	}
	child, parent := c.addrs[v], c.addrs[c.t.Parent(v)]
	if down {
		mem.Partition(child, parent)
	} else {
		mem.Heal(child, parent)
	}
	return true
}

// StopServer kills one node's server (failure injection). Requests that
// would route through the dead node go unanswered; the rest of the tree
// keeps serving (and, with Ancestors configured, repairs around the hole).
// Alias of KillNode, kept for existing callers.
func (c *Cluster) StopServer(v int) { c.KillNode(v) }

// KillNode stops node v's server and marks it dead in the registry: stats
// scrapes skip it, injections at it fail, and — when the cluster runs with
// Ancestors — its children detect the loss and fail over to surviving
// ancestors while its parent re-absorbs the duty it had delegated to it.
// It reports whether a live node was actually killed.
func (c *Cluster) KillNode(v int) bool {
	if v < 0 || v >= len(c.servers) || c.servers[v] == nil {
		return false
	}
	c.regMu.Lock()
	if c.dead[v] {
		c.regMu.Unlock()
		return false
	}
	c.dead[v] = true
	srv := c.servers[v]
	c.regMu.Unlock()
	srv.Stop()
	c.injectMu.Lock()
	if conn := c.injectConns[v]; conn != nil {
		conn.Close()
	}
	c.injectMu.Unlock()
	return true
}

// RestartNode revives a killed node on its original address with its
// original configuration (the root re-publishes its pinned documents). The
// revived node dials its configured parent — or, if that parent is still
// down and ancestors are configured, comes up orphaned and fails over —
// and rejoins the tree as a leaf: its former children have already
// re-attached elsewhere. With Config.DataDir set the restart is warm: the
// node replays its journal against the surviving body files and comes up
// holding (and re-announcing) what it held when it was killed, instead of
// an empty cache. A fresh injection connection is attached so traffic can
// enter at the node again.
func (c *Cluster) RestartNode(v int) error {
	if v < 0 || v >= len(c.servers) {
		return fmt.Errorf("cluster: restart node %d out of range", v)
	}
	c.regMu.Lock()
	if !c.dead[v] {
		c.regMu.Unlock()
		return fmt.Errorf("cluster: restart node %d: not dead", v)
	}
	scfg := c.scfgs[v]
	c.regMu.Unlock()
	srv, err := server.New(scfg)
	if err != nil {
		return fmt.Errorf("cluster: restart node %d: %w", v, err)
	}
	if err := srv.Start(); err != nil {
		srv.Stop() // release the journal and the bodies warm recovery opened
		return fmt.Errorf("cluster: restart node %d: %w", v, err)
	}
	conn := srv.Attach()
	c.regMu.Lock()
	c.servers[v] = srv
	c.dead[v] = false
	c.regMu.Unlock()
	c.injectMu.Lock()
	c.injectConns[v] = conn
	c.injectMu.Unlock()
	go c.collect(conn)
	return nil
}

// NodeDead reports whether node v is currently killed.
func (c *Cluster) NodeDead(v int) bool {
	if v < 0 || v >= len(c.dead) {
		return true
	}
	c.regMu.Lock()
	defer c.regMu.Unlock()
	return c.dead[v]
}

// Topology scrapes each live node's current parent id — the repaired
// routing tree after failures, as the nodes themselves see it. Dead nodes
// and (transiently) orphaned nodes report -1; index Root() is always -1.
func (c *Cluster) Topology() ([]int, error) {
	sts, err := c.Stats()
	if err != nil {
		return nil, err
	}
	out := make([]int, len(sts))
	for v, st := range sts {
		out[v] = -1
		if st != nil {
			out[v] = st.ParentID
		}
	}
	return out, nil
}

// Stop shuts every server down.
func (c *Cluster) Stop() {
	c.injectMu.Lock()
	for _, conn := range c.injectConns {
		if conn != nil {
			conn.Close()
		}
	}
	c.injectMu.Unlock()
	c.regMu.Lock()
	servers := append([]*server.Server(nil), c.servers...)
	c.regMu.Unlock()
	for _, s := range servers {
		if s != nil {
			s.Stop()
		}
	}
}
