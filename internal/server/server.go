// Package server implements a live WebWave cache server: a multi-core node
// that serves document requests, measures its load and the per-child
// forwarded rates over sliding windows, gossips load to its tree neighbors,
// delegates document service duty down the tree, sheds it up, and claims
// passing request flow when under-loaded — for a document it holds no copy
// of too, tunneling across potential barriers by adopting the next copy
// passing down — the full protocol of the paper's Sections 3–5 over real
// message passing (in-memory or TCP transports).
//
// Unlike the fluid simulators (internal/wave, internal/docwave), nothing
// here conserves load by construction: requests physically travel up the
// routing tree and are served by the first willing cache copy or, finally,
// by the home server. Protocol state (targets, gossip views) is soft; lost
// or stale messages degrade balance, never correctness.
//
// The runtime is built for multi-core throughput. Per-document protocol
// state — admission filters, serve targets, rate windows, the reads held
// for upstream answers — is partitioned by hash(doc) across NumShards
// independent shard loops with no cross-shard locking; a separate control
// loop owns gossip and diffusion, exchanging aggregate heat and duty with
// the shards through epoch-stamped snapshot mailboxes (atomic.Pointer)
// instead of shared maps. On top of that sits a lock-free
// read fast path: each connection's read goroutine consults a copy-on-write
// publication index and serves cached hits in place — zero event-loop hops —
// falling back to the owning shard's queue only on a miss, a rate-limited
// admission decision, or an eviction race.
//
// The runtime is also fault-tolerant: heartbeat ping/pong liveness
// detection turns silent failures (partitions, wedged peers) into closed
// connections; a node that loses its parent enters a degraded orphan mode
// (it keeps serving everything it holds and parks upward flow), fails over
// along Config.AncestorAddrs with a handshake that rejects dead-but-
// dialable links, and replays its held duty as reclaim frames across the
// repaired edge; a parent that loses a child re-absorbs the duty its
// per-child ledger says lived below the dead link. See failover.go and
// docs/ARCHITECTURE.md.
package server

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"webwave/internal/cachestore"
	"webwave/internal/core"
	"webwave/internal/diskstore"
	"webwave/internal/netproto"
	"webwave/internal/transport"
)

// Config describes one server's place in the routing tree.
type Config struct {
	ID   int
	Addr string // listen address on Network

	ParentID   int    // -1 for the home server
	ParentAddr string // empty for the home server

	// AncestorAddrs is the failover candidate list a non-root node walks
	// when its parent link dies: typically [parent, grandparent, ..., root].
	// Candidates are tried in order with a ping/pong handshake (a dial that
	// succeeds but answers nothing — a partitioned link — is rejected), and
	// the node re-identifies and replays a reclaim summary of its held duty
	// to whichever ancestor answers first. Empty disables failover: a node
	// that loses its parent stays orphaned (pre-failure behavior).
	AncestorAddrs []string

	// DialAttempts is the bounded dial budget Start spends on the
	// configured parent (jittered backoff between tries) before giving up:
	// with ancestors configured the node then starts orphaned and fails
	// over in the background; without them Start errors. Default 1 — the
	// historical single try. Multi-process swarms raise it so a node
	// exec'd moments before its parent attaches cleanly instead of
	// orphan-starting.
	DialAttempts int

	// ReconnectCap bounds the failover hunt's backoff: rounds over the
	// ancestor list are paced by a jittered exponential schedule from
	// GossipPeriod up to this cap (default 2s), so a node that outlives a
	// dying rack settles into a slow, desynchronized redial instead of a
	// crash-loop — and a whole subtree of orphans does not stampede a
	// restarted parent in lockstep.
	ReconnectCap time.Duration

	// HeartbeatPeriod enables the liveness detector: every period the
	// control loop pings its tree neighbors and counts the periods that
	// elapsed with no traffic from each. A neighbor silent for
	// HeartbeatMisses consecutive periods (default 3) is declared dead and
	// its connection closed, which triggers the same repair paths as a
	// transport-level error — this is what detects partitions and wedged
	// peers that never produce a read error. 0 disables the detector.
	HeartbeatPeriod time.Duration
	HeartbeatMisses int

	// Docs lists the documents homed at this server (root only), with
	// bodies. Non-root servers start with empty caches.
	Docs map[core.DocID][]byte

	GossipPeriod    time.Duration // default 50ms; a shard that owes work ticks once a period
	DiffusionPeriod time.Duration // default 100ms
	Window          time.Duration // rate-estimation window, default 1s

	// PendingTTL bounds how long a shard holds a read it cannot answer yet,
	// counted from the read's arrival: a read no response for its document
	// answered within it is dropped, so lost responses do not leak memory.
	// At the root, a read waiting for a write is held as long. Default 30s.
	PendingTTL time.Duration

	// NumShards is the number of independent doc-sharded event loops
	// (default GOMAXPROCS). Each shard owns the per-document protocol state
	// for its hash slice; 1 restores the single-loop behavior.
	NumShards int
	// MaxBatch bounds how many queued events one loop iteration drains
	// under a single clock reading (default 256).
	MaxBatch int
	// QueueDepth is the capacity of each shard loop's (and the control
	// loop's) inbound event queue (default 1024). Full queues apply
	// backpressure to the posting connection goroutine.
	QueueDepth int

	// CacheBudgetBytes bounds the bytes of cached document bodies (0 =
	// unlimited, the paper's idealized assumption). Under pressure memory
	// displaces the copy carrying the least serve duty per byte — its
	// target plus its measured served rate, which each shard pushes into
	// the store as it moves. Documents homed at this server are pinned and
	// exempt: origin copies must survive any pressure. When a delegated or
	// adopted copy is displaced, the server tears down the document's
	// admission filter (requests resume flowing toward the home server)
	// and hints the eviction to its parent so the abandoned serve duty is
	// absorbed by a surviving copy upstream.
	CacheBudgetBytes int64
	// CacheShards is the cache store's lock-stripe count (default
	// NumShards). The store's striping is aligned with the server's shard
	// hash, so when the counts match a Put's evictions always fall in the
	// putting shard's own slice (victim locality).
	CacheShards int

	// DataDir enables the disk persistence tier: evicted-but-warm bodies
	// spill to DataDir/bodies under DiskBudgetBytes, and an append-only
	// journal (DataDir/journal.wal) records admissions, drops and duty so
	// a killed node restarts warm — replaying the journal against the
	// surviving bodies and re-announcing held duty as reclaim frames.
	// Empty disables the tier (pre-existing memory-only behavior).
	DataDir string
	// DiskBudgetBytes bounds the disk tier's body bytes (0 = unlimited).
	// Ignored when DataDir is empty.
	DiskBudgetBytes int64

	// Tunneling lets a node claim passing flow for documents it holds no
	// copy of (Section 5.2): the next response passing down is adopted.
	Tunneling bool

	Network transport.Network
}

func (c Config) withDefaults() Config {
	if c.GossipPeriod <= 0 {
		c.GossipPeriod = 50 * time.Millisecond
	}
	if c.DiffusionPeriod <= 0 {
		c.DiffusionPeriod = 100 * time.Millisecond
	}
	if c.Window <= 0 {
		c.Window = time.Second
	}
	if c.PendingTTL <= 0 {
		c.PendingTTL = 30 * time.Second
	}
	if c.HeartbeatMisses <= 0 {
		c.HeartbeatMisses = 3
	}
	if c.DialAttempts <= 0 {
		c.DialAttempts = 1
	}
	if c.ReconnectCap <= 0 {
		c.ReconnectCap = 2 * time.Second
	}
	if c.NumShards <= 0 {
		c.NumShards = runtime.GOMAXPROCS(0)
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.CacheShards <= 0 {
		c.CacheShards = c.NumShards
	}
	return c
}

// event is an inbound envelope tagged with its connection, a notification
// that the connection's read side ended (closed), or an internal command
// from the control loop to a shard (cmd != cmdNone). cmdParentUp travels
// the other way: from a failover goroutine to the control loop, carrying
// the handshaken connection in conn and the new parent's id in child.
type event struct {
	env    *netproto.Envelope
	conn   transport.Conn
	closed bool

	cmd   cmdKind
	doc   core.DocID
	child int
	rate  float64
	reply chan *shardSnap
}

// cmdKind discriminates control→shard commands.
type cmdKind uint8

const (
	cmdNone cmdKind = iota
	// cmdSnap with a reply is a stats scrape: the shard ticks and replies
	// with the fresh snapshot. Without one it is the control loop's wake
	// for a shard that owes a tick (shard.step).
	cmdSnap
	// cmdDelegate applies one diffusion decision: move `rate` duty for
	// `doc` down to `child`, shipping the body.
	cmdDelegate
	// cmdShed moves `rate` duty for `doc` up to the parent.
	cmdShed
	// cmdClaim raises the local serve target for `doc` by `rate` (claiming
	// passing flow) and tells the parent (claim). A document not held is
	// marked so the next response passing down adopts its body.
	cmdClaim
	// cmdChildGone tells shards a child link died: its flow windows drop and
	// the delegated duty recorded in the child's ledger is re-absorbed into
	// this node's own targets (or hinted upward when the copy is gone).
	cmdChildGone
	// cmdParentUp is posted to the control loop by a failover goroutine once
	// an ancestor answered the handshake; conn and child carry the new link.
	cmdParentUp
	// cmdParentRestored tells shards a new parent link is live: each shard
	// sends one fetch per flight upward (the fetches before it died with the
	// old link) and re-announces its held duty via reclaim.
	cmdParentRestored
)

// waiter is a read held on a document's record: on its flight, for the
// document's upstream answer, or waiting for a write (docState.waiting).
// origin and reqID name the read, conn is where its answer goes, and hops is
// its hop count on arrival, at its arrival time (the tick's sweep drops it
// PendingTTL later). minVer is the session's version floor (0 = any): a
// response older than it must not answer this read, which stays held for
// the next fetch instead.
type waiter struct {
	origin int
	reqID  uint64
	conn   transport.Conn
	minVer uint64
	hops   int
	at     time.Time
}

// flight holds the reads waiting for a document's upstream answer, the one
// that led the fetch included; any response for the document answers them.
// at is when the last fetch for them went up. A document's flight is
// allocated on its first forward and reused until the tick's sweep finds
// it empty and frees it: an empty one has no fetch to wait for.
type flight struct {
	at      time.Time
	waiters []waiter
}

// childView is the copy-on-write registry of attached children. The
// control loop rebuilds it on (un)registration; shard loops and the fast
// path read it without locking.
type childView struct {
	conns map[int]transport.Conn
}

// parentLink is the current upward edge: the parent's node id and the
// connection to it. It lives behind an atomic pointer — the control loop
// swaps it on failover, shard loops read it per forward — and is nil while
// the node is orphaned (or at the root).
type parentLink struct {
	id   int
	conn transport.Conn
}

// Server is a live WebWave node. Create with New, start with Start, stop
// with Stop.
type Server struct {
	cfg    Config
	isRoot bool

	// cache is shared by all shards (internally striped, aligned with the
	// server's shard hash). The bodies it holds are immutable, so a send
	// of one goes unmarked (never BodyLent).
	cache *cachestore.Store

	// disk and journal form the persistence tier (nil with DataDir unset);
	// warmDocs counts documents recovered at New time, nSpills the memory
	// evictions that became disk-resident spills instead of losses.
	disk     *diskstore.Store
	journal  *diskstore.Journal
	warmDocs int
	nSpills  atomic.Int64

	shards []*shard
	ctrl   *control

	parent                  atomic.Pointer[parentLink] // swapped by the control loop on failover; nil = root or orphaned
	children                atomic.Pointer[childView]  // COW, written by the control loop
	seq                     atomic.Uint64              // wire sequence, stamped per send
	gotDelegate             atomic.Bool                // set by shards, drained by diffusion
	nEvicted, nEvictedBytes atomic.Int64               // bumped by the evicting shard at Put time

	events   chan event // control loop's queue
	stopOnce sync.Once
	stopped  chan struct{}
	wg       sync.WaitGroup
	listener transport.Listener

	connsMu sync.Mutex
	conns   []transport.Conn
}

// New validates cfg and creates a server (not yet started).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Network == nil {
		return nil, errors.New("server: nil network")
	}
	if cfg.Addr == "" {
		return nil, errors.New("server: empty listen address")
	}
	isRoot := cfg.ParentID < 0
	if !isRoot && cfg.ParentAddr == "" {
		return nil, fmt.Errorf("server %d: non-root without parent address", cfg.ID)
	}
	s := &Server{
		cfg:     cfg,
		isRoot:  isRoot,
		events:  make(chan event, cfg.QueueDepth),
		stopped: make(chan struct{}),
	}
	s.children.Store(&childView{conns: map[int]transport.Conn{}})
	s.shards = make([]*shard, cfg.NumShards)
	for i := range s.shards {
		s.shards[i] = newShard(s, i)
	}
	s.ctrl = newControl(s)
	s.cache = cachestore.New(cachestore.Config{
		BudgetBytes: cfg.CacheBudgetBytes,
		Shards:      cfg.CacheShards,
		// Align the store's striping with the server's shard hash: when
		// CacheShards == NumShards a Put's evictions are always documents
		// of the putting shard.
		ShardOf: shardHash,
	})
	if isRoot {
		for id, body := range cfg.Docs {
			s.cache.Pin(id, body) // origin copies are immune to eviction
			sh := s.shardFor(id)
			sh.installFilter(sh.state(id))
			sh.publish(id, body, 0)
		}
	}
	if cfg.DataDir != "" {
		// Warm recovery runs here, single-threaded, before any loop exists:
		// the journal replays against the surviving body files and the node
		// comes up already holding what it held when it was killed.
		if err := s.openPersist(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// shardHash is the document→shard hash (FNV-1a), shared with the cache
// store's striping so victim locality holds when the stripe counts match.
func shardHash(doc core.DocID) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(doc); i++ {
		h = (h ^ uint32(doc[i])) * 16777619
	}
	return h
}

func (s *Server) shardIndex(doc core.DocID) int {
	if len(s.shards) == 1 {
		return 0
	}
	return int(shardHash(doc) % uint32(len(s.shards)))
}

func (s *Server) shardFor(doc core.DocID) *shard { return s.shards[s.shardIndex(doc)] }

// Start begins listening and, for non-root servers, connects to the parent.
// It returns once the server is operational. When the parent cannot be
// dialed and an ancestor list is configured, the server starts orphaned and
// fails over in the background instead of failing Start — a restarted node
// must come up even while its configured parent is still down.
func (s *Server) Start() error {
	l, err := s.cfg.Network.Listen(s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("server %d: %w", s.cfg.ID, err)
	}
	s.listener = l

	startFailover := false
	if !s.isRoot {
		// The startup dial spends a bounded budget (DialAttempts, jittered
		// backoff between tries) on the configured parent: in a multi-process
		// launch a child is routinely exec'd a beat before its parent
		// listens, and a couple of paced retries attach it to the right
		// place instead of orphan-starting it onto a grandparent.
		conn, err := transport.DialRetry(s.cfg.Network, s.cfg.Addr, s.cfg.ParentAddr,
			&transport.Backoff{Base: s.cfg.GossipPeriod, Cap: s.cfg.ReconnectCap},
			s.cfg.DialAttempts, s.stopped)
		if err != nil {
			if len(s.cfg.AncestorAddrs) == 0 {
				l.Close()
				return fmt.Errorf("server %d: dial parent: %w", s.cfg.ID, err)
			}
			startFailover = true
		} else {
			s.parent.Store(&parentLink{id: s.cfg.ParentID, conn: conn})
			// Identify ourselves to the parent immediately.
			s.stampAndSend(conn, &netproto.Envelope{Kind: netproto.TypeGossip, From: s.cfg.ID, To: s.cfg.ParentID})
			s.readLoop(conn)
		}
	}

	// Accept loop.
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			s.readLoop(conn)
		}
	}()

	// Shard loops and the control loop.
	for _, sh := range s.shards {
		s.wg.Add(1)
		go sh.loop()
	}
	s.wg.Add(1)
	go s.ctrl.loop()
	if startFailover {
		s.ctrl.failoverOn.Store(true)
		s.wg.Add(1)
		go s.failover()
	}
	if s.warmDocs > 0 && !s.isRoot && s.parentLink() != nil {
		// Warm restart: re-announce recovered duty upstream right away. The
		// parentRestored handler is exactly the failover replay — reclaim
		// frames for every held target — so a warm node needs zero new
		// repair protocol to resume carrying what it carried before the kill.
		for _, sh := range s.shards {
			s.post(sh.events, event{cmd: cmdParentRestored})
		}
	}
	return nil
}

// readLoop pumps a connection: requests hitting the publication index are
// served right here (the lock-free fast path); everything else is routed to
// the owning shard or the control loop. When the read side ends it posts a
// close notification to every loop so each can sweep the state tied to the
// connection (the reads its shards hold, child registration), and drops the
// connection from s.conns.
func (s *Server) readLoop(conn transport.Conn) {
	s.connsMu.Lock()
	s.conns = append(s.conns, conn)
	s.connsMu.Unlock()
	// Stop sweeps s.conns once, after closing s.stopped. A conn registered
	// after that sweep (an accept or a failover hand-off racing with
	// shutdown) would never be closed and its Recv below would block
	// forever, wedging Stop's wg.Wait. The append above is serialized with
	// the sweep by connsMu, so observing s.stopped closed here means the
	// sweep may have already run: close the conn ourselves (double-close is
	// safe).
	select {
	case <-s.stopped:
		conn.Close()
	default:
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			env, err := conn.Recv()
			if err != nil {
				// Untracked, the conn is no longer closed by Stop's sweep:
				// close it now, or its socket lingers until collected.
				s.untrack(conn)
				conn.Close()
				closed := event{conn: conn, closed: true}
				s.post(s.events, closed)
				for _, sh := range s.shards {
					s.post(sh.events, closed)
				}
				return
			}
			s.dispatch(env, conn)
		}
	}()
}

// Attach opens an in-process connection into the server and returns the
// caller's end; readLoop serves the other exactly like an accepted conn.
func (s *Server) Attach() transport.Conn {
	client, conn := transport.Pipe()
	s.readLoop(conn)
	return client
}

// untrack drops every registration of conn from s.conns (a failover
// hand-off registers its conn twice), so a closed connection's buffers are
// not kept until Stop.
func (s *Server) untrack(conn transport.Conn) {
	s.connsMu.Lock()
	defer s.connsMu.Unlock()
	for i := len(s.conns) - 1; i >= 0; i-- {
		if s.conns[i] == conn {
			last := len(s.conns) - 1
			s.conns[i] = s.conns[last]
			s.conns[last] = nil
			s.conns = s.conns[:last]
		}
	}
}

// dispatch routes one inbound envelope: cached request hits are served on
// this goroutine; per-document kinds go to the owning shard; neighborhood
// kinds (gossip, stats, shutdown) go to the control loop. Before a post
// that would block on a full queue, the connection is flushed: replies the
// fast path left for Recv to flush must not wait behind the queue.
func (s *Server) dispatch(env *netproto.Envelope, conn transport.Conn) {
	ch := s.events
	switch env.Kind {
	case netproto.TypeRequest:
		h := shardHash(env.Doc) // hashed once: shard choice and index bucket share it
		sh := s.shards[h%uint32(len(s.shards))]
		if s.tryFastServe(sh, h, env, conn) {
			netproto.PutEnvelope(env)
			return
		}
		ch = sh.events
	case netproto.TypeResponse, netproto.TypeDelegate, netproto.TypeShed,
		netproto.TypeEvict, netproto.TypeReclaim, netproto.TypeClaim,
		netproto.TypeRepublish, netproto.TypeInvalidate:
		ch = s.shardFor(env.Doc).events
	}
	ev := event{env: env, conn: conn}
	if s.tryPost(ch, ev) {
		return
	}
	if bc, ok := conn.(transport.BatchConn); ok {
		_ = bc.Flush()
	}
	s.post(ch, ev)
}

// post enqueues an event, releasing the envelope if the server stopped.
func (s *Server) post(ch chan event, ev event) {
	select {
	case ch <- ev:
	case <-s.stopped:
		if ev.env != nil {
			netproto.PutEnvelope(ev.env)
		}
	}
}

// tryPost enqueues without blocking, reporting whether the event landed.
// The control loop uses it for every command it sends a shard: commands
// are soft state (a dropped tick or duty movement is re-issued or re-derived
// next period), and the control loop must never stall node-wide gossip and
// diffusion behind one saturated shard queue.
func (s *Server) tryPost(ch chan event, ev event) bool {
	select {
	case ch <- ev:
		return true
	default:
		return false
	}
}

// tryFastServe is the lock-free read fast path: one atomic load of the
// owning shard's copy-on-write publication index (h is shardHash(env.Doc),
// which picks the bucket), and a hit is answered on the connection
// goroutine — no event-loop hop, no lock. It declines (the request then
// takes the shard queue) on an index miss, a dead entry (an eviction race;
// the queued path re-checks the store and forwards), or a spent admission
// budget (the queued filter spends the same budget, so it forwards). Serve
// and flow counts accumulate on the document record's atomics, which the
// owning shard drains into its rate windows each tick, so diffusion sees
// fast-path demand exactly like queued demand. On a BatchConn the reply is
// buffered: the read loop's next Recv flushes it unless another request is
// already waiting, so a pipelined batch's replies share one write while
// they fit in the connection's write buffer together (4 KiB on TCP; a
// larger reply leaves at once, see transport.BatchConn).
func (s *Server) tryFastServe(sh *shard, h uint32, env *netproto.Envelope, conn transport.Conn) bool {
	e := sh.pub.get(h, env.Doc)
	if e == nil || e.dead.Load() {
		return false
	}
	if !versionOK(e.version, env.MinVersion, 0) {
		// The session has seen a newer version than this copy: decline
		// before spending a credit so the queued path can hold the request
		// for the write (sessionGate) instead of serving it stale. A
		// published copy is never below the write mark: a write that moves
		// the mark refreshes or unpublishes it.
		return false
	}
	if !s.isRoot && e.st.credits.Add(-1) < 0 {
		return false
	}
	e.st.bumpFlow(env.From)
	e.st.served.Add(1)
	sh.nFastServed.Add(1)
	resp := netproto.GetEnvelope()
	*resp = netproto.Envelope{
		Kind: netproto.TypeResponse, From: s.cfg.ID, To: env.Origin,
		Doc: env.Doc, Origin: env.Origin, ReqID: env.ReqID,
		ServedBy: s.cfg.ID, Hops: env.Hops, Body: e.body,
		DocVersion: e.version,
		// Seq deliberately unstamped: no receiver consumes it, and the
		// global counter would be the one shared cacheline every core's
		// fast path contends on. Loop-emitted frames keep their stamps.
	}
	if bc, ok := conn.(transport.BatchConn); ok {
		_ = bc.SendBuffered(resp) // soft state: a failed send is equivalent to loss
	} else {
		_ = conn.Send(resp)
	}
	netproto.PutEnvelope(resp)
	return true
}

// stampAndSend stamps the wire sequence and transmits immediately
// (plain Send — transports coalesce concurrent senders' flushes). Loops
// that batch many frames per iteration use their laneSender instead.
func (s *Server) stampAndSend(conn transport.Conn, env *netproto.Envelope) {
	if conn == nil {
		return
	}
	env.Seq = s.seq.Add(1)
	_ = conn.Send(env) // soft state: a failed send is equivalent to loss
}

// laneSender is the buffered-send state each loop (shard or control) owns:
// one lane index on every lane-capable connection, plus the set of lanes
// dirtied since the last flush. Buffering here and flushing once at the
// end of a loop iteration means a batch of frames costs one flush per
// connection rather than one per frame, and distinct loops sharing a
// connection never contend on an encoder.
type laneSender struct {
	s     *Server
	lane  int
	dirty []transport.BatchLane
}

// sendOn stamps and transmits env: buffered on this loop's lane where the
// transport supports it, plain Send otherwise.
func (ls *laneSender) sendOn(conn transport.Conn, env *netproto.Envelope) {
	if conn == nil {
		return
	}
	env.Seq = ls.s.seq.Add(1)
	if lc, ok := conn.(transport.LaneConn); ok {
		ln := lc.Lane(ls.lane)
		_ = ln.SendBuffered(env) // soft state: a failed send is equivalent to loss
		ls.markDirty(ln)
		return
	}
	_ = conn.Send(env)
}

func (ls *laneSender) markDirty(ln transport.BatchLane) {
	for _, d := range ls.dirty {
		if d == ln {
			return
		}
	}
	ls.dirty = append(ls.dirty, ln)
}

// flushDirty flushes every lane sendOn buffered to since the last call.
func (ls *laneSender) flushDirty() {
	for i, ln := range ls.dirty {
		_ = ln.Flush()
		ls.dirty[i] = nil
	}
	ls.dirty = ls.dirty[:0]
}

// childConn returns the registered child's connection, if any.
func (s *Server) childConn(id int) transport.Conn {
	return s.children.Load().conns[id]
}

// parentLink returns the current upward edge, nil at the root or while
// orphaned. Safe from any goroutine.
func (s *Server) parentLink() *parentLink { return s.parent.Load() }

// Stop shuts the server down and waits for its goroutines.
func (s *Server) Stop() {
	s.stopOnce.Do(func() {
		close(s.stopped)
		if s.listener != nil {
			s.listener.Close()
		}
		if pl := s.parent.Load(); pl != nil {
			pl.conn.Close()
		}
		s.connsMu.Lock()
		for _, c := range s.conns {
			c.Close()
		}
		s.connsMu.Unlock()
	})
	s.wg.Wait()
	s.closePersist()
}

// Addr returns the listen address (useful with TCP port 0).
func (s *Server) Addr() string {
	if s.listener != nil {
		return s.listener.Addr()
	}
	return s.cfg.Addr
}

// queueLens returns the per-shard and control-loop backlog right now.
func (s *Server) queueLens() (shards []int, ctrl int, total int) {
	shards = make([]int, len(s.shards))
	for i, sh := range s.shards {
		shards[i] = len(sh.events)
		total += shards[i]
	}
	ctrl = len(s.events)
	total += ctrl
	return shards, ctrl, total
}
