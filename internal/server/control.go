package server

import (
	"cmp"
	"maps"
	"math"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"webwave/internal/core"
	"webwave/internal/netproto"
	"webwave/internal/transport"
)

// control is the server's control loop: it owns the neighborhood — gossip
// timers and load figures, child registration, diffusion decisions, stats
// scrapes — while the shard loops own per-document state.
// It never reads shard state directly: decisions are computed from the
// shards' epoch-stamped snapshot mailboxes and applied by posting commands
// into the shard queues, so the two layers share nothing but atomics.
type control struct {
	s *Server

	now         time.Time
	childLoad   map[int]float64
	parentLoad  float64
	parentKnown bool

	nGossip                     int64
	gossipAt, diffuseAt, beatAt int64 // the periodic jobs' next due times, ns since epoch (due)

	// sent is the load figure last gossiped to each neighbor and when
	// (gossipTo). moved (a neighbor gossiped) and stepEpochs (each shard's
	// snapshot epoch) are what doDiffusion skips a step for when unchanged.
	sent       map[int]sentLoad
	moved      bool
	stepEpochs []uint64

	// Failure-detector state (loop-owned except failoverOn, which the
	// Start-time orphan path also sets). lastParent / childSeen record when
	// each neighbor last produced control-visible traffic (gossip, pings,
	// pongs); the heartbeat tick turns prolonged silence into a closed
	// connection, which funnels into the same repair paths as a transport
	// error.
	failoverOn       atomic.Bool // a failover goroutine is hunting ancestors
	lastParent       time.Time
	parentMisses     int
	childSeen        map[int]time.Time
	childMisses      map[int]int
	nReconnects      int64
	nHeartbeatMisses int64

	batch      []event
	gossipSeen map[int]int // reused per-batch newest-gossip index by sender
	gossipEnv  netproto.Envelope
	laneSender                        // lane index NumShards, after the shard lanes
	snapsBuf   []*shardSnap           // reused mailbox-read scratch (loop-owned)
	cands      []dutyCand             // delegateDown's scratch
	flowOf     map[core.DocID]float64 // claimPassing's scratch
}

type sentLoad struct {
	load float64
	at   time.Time
}

// dutyCand is one stream delegateDown may hand a child, capped at cap.
type dutyCand struct {
	doc core.DocID
	cap float64
}

func newControl(s *Server) *control {
	return &control{
		s:           s,
		now:         time.Now(),
		childLoad:   make(map[int]float64, 8),
		childSeen:   make(map[int]time.Time, 8),
		childMisses: make(map[int]int, 8),
		batch:       make([]event, 0, s.cfg.MaxBatch),
		gossipSeen:  make(map[int]int, 8),
		sent:        make(map[int]sentLoad, 8),
		stepEpochs:  make([]uint64, len(s.shards)),
		snapsBuf:    make([]*shardSnap, len(s.shards)),
		flowOf:      make(map[core.DocID]float64, 16),
		laneSender:  laneSender{s: s, lane: len(s.shards)},
	}
}

func (c *control) loop() {
	s := c.s
	defer s.wg.Done()
	timer := time.NewTimer(0) // the node's one timer: its first wake runs every job
	defer timer.Stop()
	for {
		select {
		case <-s.stopped:
			return
		case ev := <-s.events:
			c.now = time.Now()
			c.handleBatch(ev)
		case <-timer.C:
			c.now = time.Now()
			timer.Reset(c.runDue())
		}
		c.flushDirty()
	}
}

var epoch = time.Now() // the period edges' base: monotonic, and shared by a process's nodes

// runDue runs the jobs due at c.now and returns the wait until the next. A
// gossip wake first wakes, never blocking, each shard busy or with fast
// serves past its idle mark.
func (c *control) runDue() time.Duration {
	cfg := &c.s.cfg
	if c.due(&c.gossipAt, cfg.GossipPeriod) {
		for _, sh := range c.s.shards {
			if m := sh.idleMark.Load(); m == busy || sh.nFastServed.Load() > m {
				c.s.tryPost(sh.events, event{cmd: cmdSnap})
			}
		}
		c.doGossip()
	}
	if c.due(&c.diffuseAt, cfg.DiffusionPeriod) {
		c.doDiffusion()
	}
	if c.due(&c.beatAt, cfg.HeartbeatPeriod) {
		c.doHeartbeat()
	}
	return time.Duration(min(c.gossipAt, c.diffuseAt, c.beatAt)) - c.now.Sub(epoch)
}

// due reports whether the job due at *at is, and if so moves *at to the next
// multiple of its period p (0 is off) since epoch. A due time more than a
// period off is stale, left by a clock set back, and falls due at once.
func (c *control) due(at *int64, p time.Duration) bool {
	now := int64(c.now.Sub(epoch))
	switch {
	case p <= 0:
		*at = math.MaxInt64
	case now >= *at || *at-now > int64(p):
		*at = (now/int64(p) + 1) * int64(p)
		return true
	}
	return false
}

// handleBatch drains the control queue (bounded by MaxBatch) under one
// clock reading. Queued gossip coalesces per neighbor — under backlog only
// the newest load figure matters, so stale ones are dropped instead of
// handled. Consumed envelopes return to netproto's pool.
func (c *control) handleBatch(first event) {
	c.batch = append(c.batch[:0], first)
drain:
	for len(c.batch) < c.s.cfg.MaxBatch {
		select {
		case ev := <-c.s.events:
			c.batch = append(c.batch, ev)
		default:
			break drain
		}
	}
	gossipSeen := c.gossipSeen
	if len(c.batch) > 1 {
		for i, ev := range c.batch {
			if !ev.closed && ev.env != nil && ev.env.Kind == netproto.TypeGossip {
				gossipSeen[ev.env.From] = i
			}
		}
	}
	for i, ev := range c.batch {
		if ev.closed {
			c.handleConnClosed(ev.conn)
			continue
		}
		if ev.cmd != cmdNone { // cmdParentUp, the one command the control loop takes
			c.installParent(ev.child, ev.conn)
			continue
		}
		if ev.env.Kind == netproto.TypeGossip && len(gossipSeen) > 0 {
			if last, ok := gossipSeen[ev.env.From]; ok && last != i {
				netproto.PutEnvelope(ev.env) // stale: a newer figure is queued
				continue
			}
		}
		c.handle(ev)
		netproto.PutEnvelope(ev.env)
	}
	clear(gossipSeen)
	clear(c.batch) // drop envelope/conn refs before reuse
}

func (c *control) handle(ev event) {
	env := ev.env
	s := c.s
	c.noteAlive(env.From)
	switch env.Kind {
	case netproto.TypeGossip:
		c.moved = true // neighbors gossip on change: the next diffusion step has news
		if pl := s.parentLink(); pl != nil && env.From == pl.id {
			c.parentLoad = env.Load
			c.parentKnown = true
			return
		}
		// First gossip from an unknown conn registers a child: the child
		// view is copy-on-write, so shard loops and the fast path observe
		// the registration without locking. It learns our figure at once
		// rather than at the next change or refresh.
		if s.childConn(env.From) == nil {
			c.registerChild(env.From, ev.conn)
			c.gossipTo(env.From, ev.conn, sumLoad(c.snaps()), true)
		}
		c.childLoad[env.From] = env.Load

	case netproto.TypePing:
		// Answer on the same connection; the pong both proves liveness to a
		// monitoring neighbor and completes an orphan's failover handshake.
		c.sendOn(ev.conn, &netproto.Envelope{
			Kind: netproto.TypePong, From: s.cfg.ID, To: env.From,
		})

	case netproto.TypePong:
		// Liveness only, recorded by noteAlive above.

	case netproto.TypeStatsQuery:
		s.stampAndSend(ev.conn, &netproto.Envelope{
			Kind: netproto.TypeStatsReply, From: s.cfg.ID, To: env.From,
			Stats: c.snapshot(),
		})

	case netproto.TypeShutdown:
		go s.Stop()
	}
}

// noteAlive records control-visible traffic from a tree neighbor for the
// failure detector.
func (c *control) noteAlive(from int) {
	if pl := c.s.parentLink(); pl != nil && from == pl.id {
		c.lastParent = c.now
		c.parentMisses = 0
		return
	}
	if _, ok := c.childSeen[from]; ok || c.s.childConn(from) != nil {
		c.childSeen[from] = c.now
		c.childMisses[from] = 0
	}
}

// registerChild rebuilds the copy-on-write child view with one more child.
func (c *control) registerChild(id int, conn transport.Conn) {
	conns := maps.Clone(c.s.children.Load().conns)
	conns[id] = conn
	c.s.children.Store(&childView{conns: conns})
}

// handleConnClosed routes a dead connection to the right repair path: the
// parent link's death makes this node an orphan (degraded serving plus a
// background failover hunt); a child's death tears down its registration
// and flow windows and re-absorbs the duty delegated to it. (Shard loops
// sweep their own per-connection routing state from the same close
// notification.)
func (c *control) handleConnClosed(conn transport.Conn) {
	if pl := c.s.parentLink(); pl != nil && pl.conn == conn {
		c.parentLost(pl)
		return
	}
	old := c.s.children.Load()
	gone := -1
	for id, cc := range old.conns {
		if cc == conn {
			gone = id
			break
		}
	}
	if gone < 0 {
		return
	}
	conns := maps.Clone(old.conns)
	delete(conns, gone)
	c.s.children.Store(&childView{conns: conns})
	delete(c.childLoad, gone)
	delete(c.sent, gone)
	delete(c.childSeen, gone)
	delete(c.childMisses, gone)
	for _, sh := range c.s.shards {
		// Blocking post: cmdChildGone now re-absorbs the child's delegated
		// duty, and dropping it would strand that duty in a deleted ledger.
		// The shard loops drain continuously and never post back to the
		// control queue, so this cannot deadlock.
		c.s.post(sh.events, event{cmd: cmdChildGone, child: gone})
	}
}

// parentLost flips the node into orphan mode: the parent pointer clears (so
// shards queue upward flow instead of sending it into a dead link), gossip
// figures for the parent reset, and — when an ancestor list is configured —
// a single failover goroutine starts hunting for a live ancestor.
func (c *control) parentLost(pl *parentLink) {
	s := c.s
	s.parent.Store(nil)
	pl.conn.Close() // idempotent; ensures a heartbeat-declared link really dies
	c.parentKnown = false
	c.parentLoad = 0
	c.parentMisses = 0
	delete(c.sent, pl.id)
	if len(s.cfg.AncestorAddrs) == 0 {
		return
	}
	if !c.failoverOn.CompareAndSwap(false, true) {
		return // a hunt is already running
	}
	// wg.Add here is safe: the control loop itself is wg-tracked, so the
	// counter cannot have reached zero while this runs.
	s.wg.Add(1)
	go s.failover()
}

// installParent wires a handshaken ancestor connection in as the new
// parent: the link goes live for the shards, the node re-identifies itself
// (the ancestor registers it as a child on the gossip), and every shard
// replays its held duty (reclaim) and one fetch per flight holding reads.
func (c *control) installParent(id int, conn transport.Conn) {
	s := c.s
	c.failoverOn.Store(false)
	if s.isRoot || s.parentLink() != nil {
		s.untrack(conn)
		conn.Close() // stale hand-off: a parent is already live
		return
	}
	s.parent.Store(&parentLink{id: id, conn: conn})
	c.nReconnects++
	c.lastParent = c.now
	c.parentMisses = 0
	s.readLoop(conn)
	c.gossipTo(id, conn, sumLoad(c.snaps()), true)
	for _, sh := range s.shards {
		// Blocking post, like cmdChildGone: losing this command would strand
		// the reads the shard holds for upstream until PendingTTL drops them.
		s.post(sh.events, event{cmd: cmdParentRestored})
	}
}

// doHeartbeat pings every tree neighbor and turns prolonged silence into a
// closed connection. Closing is the whole intervention: the read loop's
// error then posts the close notifications every loop already repairs from,
// so a partition (no read error, traffic silently dropped) and a crashed
// peer (read error) converge on one code path.
func (c *control) doHeartbeat() {
	s := c.s
	period := s.cfg.HeartbeatPeriod
	env := netproto.Envelope{Kind: netproto.TypePing, From: s.cfg.ID}
	if pl := s.parentLink(); pl != nil {
		env.To = pl.id
		c.sendOn(pl.conn, &env)
		if c.lastParent.IsZero() {
			c.lastParent = c.now
		} else if c.now.Sub(c.lastParent) > period {
			c.parentMisses++
			c.nHeartbeatMisses++
			if c.parentMisses >= s.cfg.HeartbeatMisses {
				pl.conn.Close() // the read loop's error triggers parentLost
			}
		}
	}
	for id, conn := range s.children.Load().conns {
		env.To = id
		c.sendOn(conn, &env)
		last, ok := c.childSeen[id]
		if !ok {
			c.childSeen[id] = c.now
			continue
		}
		if c.now.Sub(last) > period {
			c.childMisses[id]++
			c.nHeartbeatMisses++
			if c.childMisses[id] >= s.cfg.HeartbeatMisses {
				conn.Close() // the read loop's error triggers the child-gone path
			}
		}
	}
}

// snaps returns the latest mailbox snapshot of every shard. The backing
// slice is loop-owned scratch, valid until the next call.
func (c *control) snaps() []*shardSnap {
	for i, sh := range c.s.shards {
		c.snapsBuf[i] = sh.snap.Load()
	}
	return c.snapsBuf
}

// sumLoad totals the shards' served rates from their snapshots.
func sumLoad(snaps []*shardSnap) float64 {
	load := 0.0
	for _, sn := range snaps {
		load += sn.load
	}
	return load
}

// doGossip tells each tree neighbor this node's load figure when it has
// news for it (gossipTo); most periods under steady load send nothing.
func (c *control) doGossip() {
	s := c.s
	load := sumLoad(c.snaps())
	if pl := s.parentLink(); pl != nil {
		c.gossipTo(pl.id, pl.conn, load, false)
	}
	for id, conn := range s.children.Load().conns {
		c.gossipTo(id, conn, load, false)
	}
}

// gossipTo sends one neighbor the load figure if it differs from the one
// it was last sent by more than the rate estimator's own noise, if that one
// is a full Window old (it describes none of the current sample, and the
// re-send heals a lost frame), or at once when asked: a neighbor that just
// attached. The envelope is loop-owned scratch; transports copy it per send.
func (c *control) gossipTo(id int, conn transport.Conn, load float64, atOnce bool) {
	window := c.s.cfg.Window
	if last, ok := c.sent[id]; ok && !atOnce && c.now.Sub(last.at) < window &&
		math.Abs(load-last.load) <= rateNoise(max(load, last.load), window) {
		return
	}
	c.sent[id] = sentLoad{load: load, at: c.now}
	c.gossipEnv = netproto.Envelope{Kind: netproto.TypeGossip, From: c.s.cfg.ID, To: id, Load: load}
	c.sendOn(conn, &c.gossipEnv)
	c.nGossip++
}

// alpha returns the paper's diffusion parameter, 1/(degree+1), over the
// neighbors this node knows now (children attach dynamically).
func (c *control) alpha() float64 {
	deg := len(c.s.children.Load().conns)
	if c.s.parentLink() != nil {
		deg++
	}
	return 1.0 / float64(deg+1)
}

// doDiffusion runs the Figure 5 body on current local knowledge: the
// neighbors' gossiped loads (control-owned) and the shards' snapshot
// mailboxes. Duty movements are posted to the owning shards as commands.
func (c *control) doDiffusion() {
	s := c.s
	snaps := c.snaps()
	load := sumLoad(snaps)
	a := c.alpha()
	gotDelegate := s.gotDelegate.Swap(false)

	// A step works from the neighbors' figures and the shards' snapshots,
	// and a shard publishes only what moved: with no news from either it
	// would find what the last step found.
	quiet := !c.moved && !gotDelegate
	for i, sn := range snaps {
		if sn.epoch != c.stepEpochs[i] {
			c.stepEpochs[i], quiet = sn.epoch, false
		}
	}
	c.moved = false
	if quiet {
		return
	}

	// (2.1) Delegate down to less-loaded children, capped by A_j.
	for id, childLoad := range c.childLoad {
		if load <= childLoad {
			continue
		}
		want := a * (load - childLoad)
		c.delegateDown(id, want, snaps)
	}

	// (2.2) Shed up toward a less-loaded parent.
	if c.parentKnown && load > c.parentLoad {
		want := a * (load - c.parentLoad)
		c.shedUp(want, snaps)
	}

	// Claim passing flow when under-loaded (the "handle it if your rate is
	// smaller than it should be" rule).
	if c.parentKnown && load < c.parentLoad {
		c.claimPassing(a*(c.parentLoad-load), snaps)
	}
}

// delegateDown picks the child's largest forwarded streams we actually
// serve and posts delegation commands to the owning shards.
func (c *control) delegateDown(child int, want float64, snaps []*shardSnap) {
	if c.s.childConn(child) == nil {
		return
	}
	cands := c.cands[:0]
	for _, sn := range snaps {
		flows := sn.flows[child]
		for doc, flow := range flows {
			if !c.s.holdsCopy(doc) {
				continue
			}
			cap := min(flow, sn.served[doc]) // can only hand off duty we are actually carrying
			if cap > 0 {
				cands = append(cands, dutyCand{doc: doc, cap: cap})
			}
		}
	}
	c.cands = cands
	// Largest stream first, deterministic tie-break by doc id.
	slices.SortFunc(cands, func(x, y dutyCand) int {
		return cmp.Or(cmp.Compare(y.cap, x.cap), cmp.Compare(x.doc, y.doc))
	})
	moved := 0.0
	for _, cd := range cands {
		if moved >= want {
			break
		}
		amt := min(want-moved, cd.cap)
		if c.s.tryPost(c.s.shardFor(cd.doc).events, event{cmd: cmdDelegate, child: child, doc: cd.doc, rate: amt}) {
			moved += amt
		}
	}
}

// shedUp posts shed commands for served documents until `want` duty moved.
func (c *control) shedUp(want float64, snaps []*shardSnap) {
	if c.s.parentLink() == nil {
		return
	}
	shed := 0.0
	for _, sn := range snaps {
		for doc, srv := range sn.served {
			if shed >= want {
				return
			}
			if srv <= 0 {
				continue
			}
			amt := min(want-shed, srv)
			if c.s.tryPost(c.s.shardFor(doc).events, event{cmd: cmdShed, doc: doc, rate: amt}) {
				shed += amt
			}
		}
	}
}

// claimPassing raises targets on documents whose requests still flow
// through this node, up to `want`; the upstream copies lose that flow
// automatically. When tunneling (Section 5.2), a document this node holds
// no copy of is claimed too: the shard marks it, and the next response
// passing down brings the copy (cmdClaim).
func (c *control) claimPassing(want float64, snaps []*shardSnap) {
	claimed := 0.0
	for _, sn := range snaps {
		// Union of docs with observed flow, totaled across senders.
		flowOf := c.flowOf
		clear(flowOf)
		for _, flows := range sn.flows {
			for doc, r := range flows {
				flowOf[doc] += r
			}
		}
		for doc, flow := range flowOf {
			if claimed >= want {
				return
			}
			if !c.s.cfg.Tunneling && !c.s.holdsCopy(doc) {
				continue
			}
			spare := flow - sn.served[doc]
			if spare <= 0 {
				continue
			}
			amt := min(want-claimed, spare)
			if c.s.tryPost(c.s.shardFor(doc).events, event{cmd: cmdClaim, doc: doc, rate: amt}) {
				claimed += amt
			}
		}
	}
}

// snapshot assembles the stats scrape. Counters come from synchronous
// shard snapshots (cmdSnap forces a fresh drain of the fast-path atomics,
// so a scrape right after traffic observes it all); queue depths and
// cache figures are read live.
func (c *control) snapshot() *netproto.Stats {
	s := c.s
	snaps := c.freshSnaps()
	st := &netproto.Stats{
		Node:       s.cfg.ID,
		Targets:    make(map[core.DocID]float64, 16),
		GossipSent: c.nGossip,
		// Maintained incrementally by the store — no per-scrape walk over
		// every cached body.
		CacheBytes:       s.cache.Bytes(),
		CacheBudgetBytes: s.cfg.CacheBudgetBytes,
		EvictedDocs:      s.nEvicted.Load(),
		EvictedBytes:     s.nEvictedBytes.Load(),
		MaxCacheBytes:    s.cache.MaxBytes(),
		Shards:           len(s.shards),
		ParentID:         -1,
		Reconnects:       c.nReconnects,
		HeartbeatMisses:  c.nHeartbeatMisses,
	}
	if pl := s.parentLink(); pl != nil {
		st.ParentID = pl.id
	} else if !s.isRoot {
		st.Orphaned = 1
	}
	st.ShardSnapEpochs = make([]uint64, len(snaps))
	for i, sn := range snaps {
		st.ShardSnapEpochs[i] = sn.epoch
		st.Load += sn.load
		st.Served += sn.counters.served
		st.Forwarded += sn.counters.forwarded
		st.Coalesced += sn.counters.coalesced
		st.DelegationsIn += sn.counters.delegIn
		st.DelegationsOut += sn.counters.delegOut
		st.ShedsIn += sn.counters.shedIn
		st.ShedsOut += sn.counters.shedOut
		st.Tunnels += sn.counters.tunnels
		st.EvictHintsIn += sn.counters.evictHintsIn
		st.ReclaimedDuty += sn.counters.reclaimedDuty
		st.AbsorbedDuty += sn.counters.absorbedDuty
		st.DiskHits += sn.counters.diskHits
		st.ReadmitsRefused += sn.counters.readmitsRefused
		st.RepublishesIn += sn.counters.republishesIn
		st.InvalidationsIn += sn.counters.invalidationsIn
		st.StaleDrops += sn.counters.staleDrops
		st.LeaseRefreshes += sn.counters.leaseRefreshes
		st.SessionRefreshes += sn.counters.sessionRefreshes
		// Snapshot-carried (not a live atomic), so a scrape never reports
		// more fast serves than the Served it sits inside.
		st.FastServed += sn.counters.fastServed
		st.PendingLen += sn.held
		for d, t := range sn.targets {
			st.Targets[d] = t
		}
		// Filter state comes from the same snapshot as the duty figures —
		// never a live read that could be newer than the targets beside it.
		st.FilterStats.Extracted += sn.counters.extracted
		st.FilterStats.Passed += sn.counters.passed
		st.CachedDocs = append(st.CachedDocs, sn.installed...)
	}
	sort.Slice(st.CachedDocs, func(i, j int) bool { return st.CachedDocs[i] < st.CachedDocs[j] })
	// The publication index is the filter's lock-free fast lane: count its
	// serves as inspected-and-extracted packets so filter accounting still
	// covers every request.
	st.FilterStats.Extracted += st.FastServed
	st.FilterStats.Inspected = st.FilterStats.Extracted + st.FilterStats.Passed
	st.ShardQueueLens, st.CtrlQueueLen, st.QueueLen = s.queueLens()
	if s.disk != nil {
		st.DiskDocs = int64(s.disk.Len())
		st.DiskBytes = s.disk.Bytes()
		st.DiskBudgetBytes = s.disk.Budget()
		st.DiskSpills = s.nSpills.Load()
		st.WarmDocs = int64(s.warmDocs)
	}
	if s.journal != nil {
		st.JournalLag = s.journal.Lag()
	}
	return st
}

// freshSnaps asks every shard for a synchronous snapshot (draining its
// fast-path counters first) and falls back to the mailbox where a shard is
// too backlogged to answer in time. The cap trades a stalled control loop
// (gossip and diffusion pause while a scrape waits on a wedged shard)
// against scrape freshness; because every figure in a snapshot — targets,
// filters, counters — is captured together, a timeout degrades a scrape to
// uniformly stale, never to torn.
func (c *control) freshSnaps() []*shardSnap {
	s := c.s
	reply := make(chan *shardSnap, len(s.shards))
	asked := 0
	for _, sh := range s.shards {
		select {
		case sh.events <- event{cmd: cmdSnap, reply: reply}:
			asked++
		case <-s.stopped:
		default:
			// Shard queue full: don't block the scrape behind a saturated
			// shard; its mailbox is at most a tick stale.
		}
	}
	// Bound the stall relative to the protocol's own cadence: long enough
	// that an idle shard always answers (the harness asserts scrape
	// freshness), short enough that a wedged shard costs a few gossip
	// periods of control-loop time, not a fixed second.
	timeout := time.NewTimer(min(max(8*s.cfg.GossipPeriod, 200*time.Millisecond), time.Second))
	defer timeout.Stop()
	got := 0
	for got < asked {
		select {
		case <-reply:
			got++
		case <-timeout.C:
			asked = got // stop waiting; stale mailboxes cover the rest
		case <-s.stopped:
			asked = got
		}
	}
	return c.snaps()
}
