package server

import (
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"webwave/internal/cachestore"
	"webwave/internal/core"
	"webwave/internal/netproto"
	"webwave/internal/transport"
)

// pubIndex is a shard's publication index: the documents this shard
// currently serves, readable lock-free by every connection goroutine. It is
// a fixed array of copy-on-write maps keyed by the document hash, so a
// publish or an unpublish copies one small bucket however many documents
// the shard holds — under memory pressure a disk hit whose body memory
// takes back publishes one document and unpublishes another. An empty bucket is nil. Only the owning
// shard loop writes it (load, copy, store — no CAS needed); other shards
// may at most set an entry's dead flag on an eviction.
type pubIndex [pubBuckets]atomic.Pointer[pubMap]

type pubMap = map[core.DocID]*pubEntry

// 256 buckets keep a publish within 2x of its empty-shard cost up to a
// thousand published documents (BenchmarkPublishChurn) for 2 KiB a shard.
const (
	pubBucketBits = 8
	pubBuckets    = 1 << pubBucketBits
)

// pubBucket maps shardHash(doc) to doc's bucket. The hash's low bits chose
// the shard and FNV-1a's high bits barely differ between similar ids, so a
// Fibonacci multiply folds every bit into the top ones first.
func pubBucket(h uint32) uint32 { return h * 0x9E3779B1 >> (32 - pubBucketBits) }

// get is the lock-free lookup: one atomic load and one map read. h is
// shardHash(doc).
func (ix *pubIndex) get(h uint32, doc core.DocID) *pubEntry {
	if m := ix[pubBucket(h)].Load(); m != nil {
		return (*m)[doc]
	}
	return nil
}

// set installs e for doc, or removes doc when e is nil, by swapping in a
// modified copy of doc's bucket. Owner loop only.
func (ix *pubIndex) set(doc core.DocID, e *pubEntry) {
	b := &ix[pubBucket(shardHash(doc))]
	nm := pubMap{}
	if m := b.Load(); m != nil {
		nm = maps.Clone(*m)
	}
	delete(nm, doc)
	if e != nil {
		nm[doc] = e
	}
	if len(nm) == 0 {
		b.Store(nil)
		return
	}
	b.Store(&nm)
}

// pubEntry is one published copy of a document. The body is immutable; its
// fast-path serves are counted, and its admissions paid for, on the
// document's record (st), which outlives the entry.
type pubEntry struct {
	body []byte
	// version is the document version of body (0 = never republished),
	// the label every fast-path reply carries.
	version uint64
	// dead is set (possibly by another shard's Put displacing this copy)
	// the moment the document leaves the store, so the fast path stops
	// serving a stale body before the owning shard gets around to
	// unpublishing.
	dead atomic.Bool
	st   *docState // the document's record, where the fast path counts and spends

	slot int // owner loop only: position in shard.entries, -1 once out of the index
}

// docState is everything a shard keeps about one document, in one
// pointer-stable record: created on the document's first event and never
// freed, like the rate windows it holds. The fast-path counters and the
// admission budget live here rather than on the published entry, so a serve
// counted through an entry that was unpublished or replaced meanwhile still
// reaches the windows, and a spill, a readmit or a republish neither resets
// nor refills the budget.
type docState struct {
	doc core.DocID
	// served counts fast-path serves since the owner last drained them
	// into its rate windows.
	served atomic.Int64
	// credits is the document's one admission budget, whichever tier holds
	// its copy: the owner tops it up at the target rate (refreshCredit);
	// the fast path and the queued filter each spend one per serve, and a
	// request finding it spent is forwarded. The origin spends none.
	credits atomic.Int64
	// flows counts fast-path arrivals per sender id (-1 = locally
	// injected) since the last drain — the A_j^d accounting the diffusion
	// protocol needs, kept even for requests that never touch a loop.
	flows atomic.Pointer[map[int]*atomic.Int64]

	// Owner loop only.
	pub       *pubEntry  // the entry in the publication index, nil if none
	target    float64    // serve duty
	creditAt  time.Time  // credits accrue from here (zero = never earned)
	hot       bool       // on shard.hot
	filter    bool       // the packet filter is up: queued requests may be extracted (extract)
	servedWin *docWindow // measured served rate, never read for admission; nil until served
	// servedRate is servedWin's rate as the last rebuild of the snapshot's
	// rate maps read it: the served half of the copy's rank (rank).
	servedRate float64
	flowWin    *docWindow // local demand (From -1); nil until requested
	flight     *flight    // reads held for the upstream answer; nil until the first forward
	// waiting holds the session reads whose floor is above the write mark,
	// waiting for the write that set it (sessionGate) apart from flight, so
	// no other read waits behind them. They share one deadline, counted
	// from the first one's arrival. applyWrite and the tick's deadline
	// release them (releaseWaiting).
	waiting []waiter
	onWaits bool // on shard.waits
	// ver is the write mark: the newest version a write frame brought here
	// (after a warm restart, the recovered copy's). Only applyWrite moves
	// it. It never labels a reply: a copy carries its own version.
	ver uint64
	// stranded parks duty that should have been hinted upward (an
	// eviction's residual, a dead child's un-absorbable ledger) while the
	// node is orphaned: with no parent link the hint has nowhere to go, and
	// dropping it would silently zero that share of the wave.
	// parentRestored flushes it across the repaired edge.
	stranded float64
	// The journal's view (persist.go, disk tier only): the last target
	// journaled for the document, and whether an admit record is open for
	// it.
	jTarget  float64
	admitted bool
	// stale marks a body dropped by an invalidation (or bypassed upward by
	// a session floor) while its filter and duty stayed, or a document
	// claimed before holding it: the next passing response is admitted
	// (maybeLeaseRefresh). Any admission clears it (admit).
	stale bool
}

// versionOK is the one serving predicate: may a copy at copyVer answer a
// request with session floor floor, given the document's write mark? Below
// the floor it would break read-my-writes; below the mark a write this node
// passed on superseded it. Mark 0 means no local write can disqualify the
// copy: at the origin (shard.mark), for a reply relayed from upstream.
func versionOK(copyVer, floor, mark uint64) bool {
	return copyVer >= floor && copyVer >= mark
}

// mark is the write mark a local copy of st's document is held to: none at
// the origin, whose copy is the document itself until a write's body
// arrives.
func (sh *shard) mark(st *docState) uint64 {
	if sh.s.isRoot {
		return 0
	}
	return st.ver
}

// bumpFlow counts one fast-path arrival from the given sender. New senders
// install their counter with a copy-on-write swap (existing counters are
// carried by pointer, so no concurrent increment is lost); the steady state
// is a single atomic add.
func (st *docState) bumpFlow(from int) {
	for {
		m := st.flows.Load()
		if m != nil {
			if c, ok := (*m)[from]; ok {
				c.Add(1)
				return
			}
		}
		nm := make(map[int]*atomic.Int64, 4)
		if m != nil {
			nm = maps.Clone(*m)
		}
		c := new(atomic.Int64)
		nm[from] = c
		if st.flows.CompareAndSwap(m, &nm) {
			c.Add(1)
			return
		}
	}
}

// shardSnap is the epoch-stamped snapshot a shard publishes to its mailbox:
// the aggregate heat/duty figures the control loop reads for gossip and
// diffusion, and other shards read for eviction ranking — all without
// touching loop-owned state. A tick publishes only when a figure moved, and
// the per-document maps are immutable and shared between successive
// snapshots until a consumer needs them fresh (publishSnap).
type shardSnap struct {
	// epoch increments per publication. Every stats scrape publishes, so an
	// epoch frozen across scrapes means a shard loop too wedged to answer
	// one — the scrape exposes it per shard so exactly that is observable.
	epoch uint64
	load  float64 // served req/s over the window, fast path included
	held  int     // reads the shard holds (sweepHeld), scraped as PendingLen

	// Per-document figures, zero entries omitted (readers index the maps,
	// and a missing key reads as zero).
	targets map[core.DocID]float64
	served  map[core.DocID]float64         // measured served rates
	flows   map[int]map[core.DocID]float64 // per sender id; -1 = local demand

	// The documents whose filter is up (unsorted), captured with the duty
	// figures so a scrape served from this snapshot is consistent: a
	// torn-down filter never appears beside its already-deleted target's
	// stale value, however stale the snapshot itself is.
	installed []core.DocID

	counters shardCounters
}

// shardCounters is the loop-owned counter block carried in snapshots.
// fastServed is the cumulative fast-serve count captured just before the
// snapshot's drain, and served is the queued serves plus that same figure:
// both are exact, and a scrape always sees FastServed inside Served.
type shardCounters struct {
	served, forwarded, coalesced       int64
	delegIn, delegOut, shedIn, shedOut int64
	evictHintsIn, fastServed           int64
	extracted, passed                  int64 // queued requests the filter took or passed on (extract)
	diskHits, readmitsRefused          int64
	republishesIn, invalidationsIn     int64
	staleDrops, leaseRefreshes         int64
	sessionRefreshes, tunnels          int64
	reclaimedDuty, absorbedDuty        float64
}

// shard is one doc-sharded event loop. Everything below `events` is owned
// by the loop goroutine; the atomics at the bottom are the lock-free
// surfaces other goroutines touch.
type shard struct {
	s      *Server
	idx    int
	events chan event

	now         time.Time // loop-owned clock, read once per event batch
	docs        map[core.DocID]*docState
	totalServed *rateWindow
	childFlow   map[int]map[core.DocID]*docWindow // A_j^d estimates
	// childDuty is the per-child delegated-duty ledger: how much serve duty
	// for each document is believed to live at (or below) each child —
	// credited by outgoing delegations and incoming reclaims, debited when
	// the child sheds duty back or abandons it with an evict hint. When a
	// child dies the ledger is what the node re-absorbs, so the wave does
	// not silently lose the dead subtree's share.
	childDuty   map[int]map[core.DocID]float64
	flightRetry time.Duration
	batch       []event
	laneSender

	// n counts what this loop did (exported via snapshots). n.served holds
	// the queued serves only and n.fastServed stays zero here: a snapshot
	// adds the fast path's own counter to both, see shardCounters.
	n shardCounters

	jMoved []*docState // targets moved since the last journalTick (disk tier only)

	// diskBuf is the loop's disk-read buffer: every disk body this loop
	// serves or hands over is read into it and lent to the send (readDisk).
	diskBuf []byte

	// Lock-free surfaces.
	pub         pubIndex                  // publication index (single writer: this loop)
	snap        atomic.Pointer[shardSnap] // epoch-stamped mailbox
	nFastServed atomic.Int64              // cumulative fast-path serves

	// What a tick has to look at, so its cost follows what changed and not
	// what exists. entries mirrors the index as a flat list (this loop is
	// its only writer); fastDrained counts the fast serves drained so far,
	// so while nFastServed has not passed it no record has serves pending.
	// hot lists the records whose budget is below full (spent, or asked
	// for, since it last was), live the docWindows counted into since they
	// last read empty (all a rebuild of the snapshot's rate maps reads);
	// targetsMoved and ratesAt say whether and when one is due
	// (publishSnap); waits lists the records holding reads, on a flight or
	// waiting for a write (sweepHeld).
	entries      []*pubEntry
	fastDrained  int64
	hot          []*docState
	waits        []*docState
	live         []*docWindow
	targetsMoved bool
	filtersMoved bool // a filter went up or down since the last snapshot
	ratesAt      time.Time

	tickSlot int64        // the gossip period step last ticked in
	idleMark atomic.Int64 // busy, or fastDrained (noteIdle); off nFastServed's cache line

	evictMu   sync.Mutex
	evictedIn []core.DocID // posted by other shards' Puts, drained by this loop
}

func newShard(s *Server, idx int) *shard {
	cfg := s.cfg
	sh := &shard{
		s:           s,
		idx:         idx,
		events:      make(chan event, cfg.QueueDepth),
		now:         time.Now(),
		docs:        make(map[core.DocID]*docState, 16),
		childFlow:   make(map[int]map[core.DocID]*docWindow, 8),
		childDuty:   make(map[int]map[core.DocID]float64, 8),
		batch:       make([]event, 0, cfg.MaxBatch),
		totalServed: newRateWindow(cfg.Window, rateBuckets),
		laneSender:  laneSender{s: s, lane: idx},
	}
	sh.snap.Store(&shardSnap{}) // never nil: readers need no check before the first tick
	sh.idleMark.Store(busy)
	sh.flightRetry = max(2*cfg.GossipPeriod, 20*time.Millisecond)
	return sh
}

// state returns doc's record, creating it on first use.
func (sh *shard) state(doc core.DocID) *docState {
	st := sh.docs[doc]
	if st == nil {
		st = &docState{doc: doc}
		sh.docs[doc] = st
	}
	return st
}

func (sh *shard) loop() {
	defer sh.s.wg.Done()
	for {
		select {
		case <-sh.s.stopped:
			return
		case ev := <-sh.events:
			sh.now = time.Now()
			sh.step(ev)
		}
	}
}

// step is one pass of the loop at sh.now: a batch, then the tick if this
// gossip period since epoch has had none, so a flooded queue still ticks.
func (sh *shard) step(ev event) {
	sh.drainEvicted()
	sh.handleBatch(ev)
	sh.idleMark.Store(busy) // the batch may have left work: only a tick says not
	if slot := int64(sh.now.Sub(epoch) / sh.s.cfg.GossipPeriod); slot != sh.tickSlot {
		sh.tickSlot = slot
		sh.tick(false)
	}
	sh.flushDirty()
}

// handleBatch drains the shard queue (bounded by MaxBatch) and processes it
// under one clock reading. Consumed envelopes return to netproto's pool.
func (sh *shard) handleBatch(first event) {
	sh.batch = append(sh.batch[:0], first)
drain:
	for len(sh.batch) < sh.s.cfg.MaxBatch {
		select {
		case ev := <-sh.events:
			sh.batch = append(sh.batch, ev)
		default:
			break drain
		}
	}
	for _, ev := range sh.batch {
		if ev.closed {
			sh.handleConnClosed(ev.conn)
			continue
		}
		if ev.cmd != cmdNone {
			sh.handleCmd(ev)
			continue
		}
		sh.handle(ev)
		netproto.PutEnvelope(ev.env)
	}
	clear(sh.batch) // drop envelope/conn refs before reuse
}

func (sh *shard) handleCmd(ev event) {
	switch ev.cmd {
	case cmdSnap:
		if ev.reply != nil {
			sh.tick(true)
			ev.reply <- sh.snap.Load()
		}
	case cmdDelegate:
		sh.delegateOut(ev.child, ev.doc, ev.rate)
	case cmdShed:
		sh.shedOut(ev.doc, ev.rate)
	case cmdClaim:
		sh.claim(ev.doc, ev.rate)
	case cmdChildGone:
		for _, w := range sh.childFlow[ev.child] {
			w.Clear() // may still sit on the live list
		}
		delete(sh.childFlow, ev.child)
		sh.absorbChildDuty(ev.child)
	case cmdParentRestored:
		sh.parentRestored()
	}
}

// claim applies one claimPassing decision and tells the parent, whose duty
// ledger then sends write bodies down to the claimed copy. A document not
// held is a tunnel: marked stale, it adopts the next response passing down
// (maybeLeaseRefresh). The claim is dropped if the document is already
// marked, or if the node does not tunnel and its copy went since the
// snapshot.
func (sh *shard) claim(doc core.DocID, rate float64) {
	st := sh.state(doc)
	if !sh.s.holdsCopy(doc) {
		if st.stale || !sh.s.cfg.Tunneling {
			return
		}
		st.stale = true
		sh.n.tunnels++
	}
	sh.addTarget(doc, rate)
	if pl := sh.s.parentLink(); pl != nil {
		sh.sendOn(pl.conn, &netproto.Envelope{
			Kind: netproto.TypeClaim, From: sh.s.cfg.ID, To: pl.id,
			Doc: doc, Rate: rate,
		})
	}
}

// absorbChildDuty re-absorbs a dead child's ledgered duty: documents this
// node still holds take the rate back into their own targets (the parent
// resumes serving what the dead subtree carried); documents it no longer
// holds get the stranded rate hinted upward like an eviction, so a
// surviving ancestor copy absorbs it instead of the wave zeroing out.
func (sh *shard) absorbChildDuty(child int) {
	ledger := sh.childDuty[child]
	if ledger == nil {
		return
	}
	delete(sh.childDuty, child)
	for doc, rate := range ledger {
		if rate <= 0 {
			continue
		}
		if sh.s.holdsCopy(doc) {
			sh.addTarget(doc, rate)
			sh.n.absorbedDuty += rate
			continue
		}
		sh.hintUp(doc, rate)
	}
}

// hintUp forwards abandoned duty toward the parent as an evict hint so a
// surviving copy upstream absorbs it. While orphaned the hint has no live
// edge to travel; the rate is parked on the record (stranded) and flushed
// by parentRestored, so duty conservation survives a double failure
// (losing a child and the parent in the same window).
func (sh *shard) hintUp(doc core.DocID, rate float64) {
	if rate <= 0 {
		return
	}
	pl := sh.s.parentLink()
	if pl == nil {
		sh.state(doc).stranded += rate
		return
	}
	sh.sendOn(pl.conn, &netproto.Envelope{
		Kind: netproto.TypeEvict, From: sh.s.cfg.ID, To: pl.id,
		Doc: doc, Rate: rate,
	})
}

// parentRestored replays this shard's state onto a freshly failed-over
// parent link: one reclaim frame per held target (so the new parent's duty
// ledger mirrors what actually lives below the repaired edge), then one
// fetch per flight holding reads (the fetches before it died with the old
// link; the response answers the flight by document).
func (sh *shard) parentRestored() {
	pl := sh.s.parentLink()
	if pl == nil {
		return // lost again before the command drained
	}
	for doc, st := range sh.docs {
		if st.target > 0 {
			sh.sendOn(pl.conn, &netproto.Envelope{
				Kind: netproto.TypeReclaim, From: sh.s.cfg.ID, To: pl.id,
				Doc: doc, Rate: st.target,
			})
		}
		// Duty stranded while orphaned: re-absorb what we meanwhile hold
		// again (an adopted copy, say), hint the rest across the repaired
		// edge.
		if rate := st.stranded; rate > 0 {
			st.stranded = 0
			if sh.s.holdsCopy(doc) {
				sh.addTarget(doc, rate)
				sh.n.absorbedDuty += rate
			} else {
				sh.hintUp(doc, rate)
			}
		}
	}
	for _, st := range sh.waits {
		if fl := st.flight; fl != nil && len(fl.waiters) > 0 {
			sh.fetch(st, fl.waiters[0])
		}
	}
}

// dutyLedger returns (creating if needed) the delegated-duty ledger for one
// child.
func (sh *shard) dutyLedger(child int) map[core.DocID]float64 {
	m := sh.childDuty[child]
	if m == nil {
		m = make(map[core.DocID]float64, 8)
		sh.childDuty[child] = m
	}
	return m
}

// dropLedgerDuty debits duty a child handed back (shed) or abandoned
// (evict hint), clamped at zero.
func (sh *shard) dropLedgerDuty(child int, doc core.DocID, rate float64) {
	m := sh.childDuty[child]
	if m == nil {
		return
	}
	if r := m[doc] - rate; r > 1e-9 {
		m[doc] = r
	} else {
		delete(m, doc)
	}
}

// tick is the shard's periodic self-maintenance, run by step once per
// gossip period (and by cmdSnap for scrapes): fold fast-path activity into
// the rate windows, top up admission credits, sweep the held reads, publish
// what moved to the snapshot mailbox, and say if the next tick is owed. Each
// step reads only what changed since the last tick, and an idle shard's
// tick does no per-entry work and allocates nothing.
func (sh *shard) tick(scrape bool) {
	// Read the cumulative fast-serve counter before the drain: every serve
	// it covers bumped its record's counter first (program order, seq-cst
	// atomics), so the windows the drain below feeds cover every serve the
	// snapshot counts. Unless it passed the drained count no record has
	// serves pending (one that has bumped its record but not yet the
	// counter is drained early or waits for the next tick); when it did,
	// the published records with serves on them are folded into the
	// loop-owned rate windows, where gossip, diffusion and the admission
	// filters see them like queued demand. Serves still missing after that
	// went through an entry unpublished or replaced since its connection
	// goroutine loaded it, and one walk over every record finds them.
	fast := sh.nFastServed.Load()
	if fast > sh.fastDrained {
		for _, e := range sh.entries {
			if e.st.served.Load() != 0 {
				sh.drain(e.st)
			}
		}
		if sh.fastDrained < fast {
			for _, st := range sh.docs {
				if st.served.Load() != 0 {
					sh.drain(st)
				}
			}
		}
	}
	sh.refreshHot()
	held := sh.sweepHeld()
	sh.journalTick()
	sh.publishSnap(fast, held, scrape)
	sh.noteIdle()
}

const busy = -1 // the idleMark of a shard that owes a tick

// noteIdle marks the shard idle if its next tick would find nothing to do;
// postEvicted marks it busy under the same lock.
func (sh *shard) noteIdle() {
	mark := int64(busy)
	sh.evictMu.Lock()
	if len(sh.hot)+len(sh.waits)+len(sh.live)+len(sh.evictedIn) == 0 && !sh.targetsMoved &&
		sh.snap.Load().load == 0 && (sh.s.journal == nil || sh.s.journal.Lag() == 0) {
		mark = sh.fastDrained
	}
	sh.idleMark.Store(mark)
	sh.evictMu.Unlock()
}

// drain folds one record's pending fast-path counts into the windows.
func (sh *shard) drain(st *docState) {
	if n := st.served.Swap(0); n > 0 {
		sh.fastDrained += n
		sh.countServed(st, float64(n))
		sh.markHot(st)
	}
	if fm := st.flows.Load(); fm != nil {
		for from, c := range *fm {
			if n := c.Swap(0); n > 0 {
				sh.count(sh.flowWindow(from, st), float64(n))
			}
		}
	}
}

// markHot lists a record that spent credits for top-ups on the coming
// ticks. The origin spends none.
func (sh *shard) markHot(st *docState) {
	if !st.hot && !sh.s.isRoot {
		st.hot = true
		sh.hot = append(sh.hot, st)
	}
}

// refreshHot tops up the credits of the hot records and drops those whose
// budget is full: it stands until the next spend, which lists them again.
func (sh *shard) refreshHot() {
	kept := sh.hot[:0]
	for _, st := range sh.hot {
		if st.hot = !sh.refreshCredit(st); st.hot {
			kept = append(kept, st)
		}
	}
	clear(sh.hot[len(kept):])
	sh.hot = kept
}

// publishSnap stores a new snapshot in the mailbox if any figure in it
// moved since the last one (a scrape always gets a new epoch). fast is the
// cumulative fast-serve count captured before the preceding drain, held the
// count of reads the shard holds (sweepHeld). Load and counters are read
// every tick, the installed list after a filter moved; the per-document
// maps are carried over unless a consumer needs them fresh — a scrape, or
// diffusion, once per DiffusionPeriod — and something in them can have
// moved: a target changed, or a window holds (or in the maps being carried
// still held) counts. The cache ranks copies by the served rates a rebuild reads
// (buildRates) and makes do with this cadence: the rate windows span a
// whole Window, so a fresher reading of them moves little.
func (sh *shard) publishSnap(fast int64, held int, scrape bool) {
	now, cfg := sh.now, &sh.s.cfg
	snap := shardSnap{
		load:     sh.totalServed.Rate(now),
		held:     held,
		counters: sh.n,
	}
	snap.counters.served += fast
	snap.counters.fastServed = fast
	prev := sh.snap.Load()
	snap.installed, snap.targets, snap.served, snap.flows = prev.installed, prev.targets, prev.served, prev.flows
	// Half a tick of slack keeps timer jitter from stretching the cadence.
	wanted := scrape || now.Sub(sh.ratesAt) >= cfg.DiffusionPeriod-cfg.GossipPeriod/2
	rebuilt := wanted && (sh.targetsMoved || len(sh.live)+len(prev.served)+len(prev.flows) > 0)
	if rebuilt {
		sh.buildRates(&snap)
	} else if !scrape && !sh.filtersMoved && snap.load == prev.load && snap.held == prev.held &&
		snap.counters == prev.counters {
		return // the mailbox already says all of this
	}
	if sh.filtersMoved {
		sh.filtersMoved, snap.installed = false, nil
		for d, st := range sh.docs {
			if st.filter {
				snap.installed = append(snap.installed, d)
			}
		}
	}
	snap.epoch = prev.epoch + 1
	out := new(shardSnap) // allocated only here, so an unchanged tick allocates nothing
	*out = snap
	sh.snap.Store(out)
}

// buildRates fills snap's per-document maps from the live windows and, if
// they moved, the targets, pushes each copy's new served rate into its rank,
// and drops the windows that have emptied from the live list.
func (sh *shard) buildRates(snap *shardSnap) {
	sh.ratesAt = sh.now
	if sh.targetsMoved {
		sh.targetsMoved = false
		snap.targets = make(map[core.DocID]float64, len(snap.targets))
		for d, st := range sh.docs {
			if st.target > 0 {
				snap.targets[d] = st.target
			}
		}
	}
	was := snap.flows // the maps being replaced size their successors
	snap.served = make(map[core.DocID]float64, len(snap.served))
	snap.flows = make(map[int]map[core.DocID]float64, len(was))
	kept := sh.live[:0]
	for _, w := range sh.live {
		r := w.Rate(sh.now)
		if w.from == servedRate {
			sh.pushServed(w, r)
		}
		if r <= 0 {
			w.live = false
			continue
		}
		kept = append(kept, w)
		if w.from == servedRate {
			snap.served[w.doc] = r
			continue
		}
		m := snap.flows[w.from]
		if m == nil {
			m = make(map[core.DocID]float64, len(was[w.from]))
			snap.flows[w.from] = m
		}
		m[w.doc] = r
	}
	clear(sh.live[len(kept):])
	sh.live = kept
}

// pushServed moves a copy's rank to the served rate a rebuild read from its
// window. A window dropDuty let go of no longer speaks for the record.
func (sh *shard) pushServed(w *docWindow, r float64) {
	if st := sh.docs[w.doc]; st != nil && st.servedWin == w && st.servedRate != r {
		st.servedRate = r
		sh.s.cache.SetRank(st.doc, sh.rank(st))
	}
}

// rank is the serve duty a held copy carries, the order memory evicts by:
// its target plus its measured served rate (so a freshly delegated copy
// with no serve history yet is not evicted on arrival, and among copies of
// one target the busier stays). Pass-through flow is deliberately
// excluded — requests that stream through but are served elsewhere must
// not make a bystander copy look hot.
func (sh *shard) rank(st *docState) float64 { return st.target + st.servedRate }

// drainEvicted applies eviction cleanups posted by other shards' Puts.
func (sh *shard) drainEvicted() {
	sh.evictMu.Lock()
	notes := sh.evictedIn
	sh.evictedIn = nil
	sh.evictMu.Unlock()
	for _, doc := range notes {
		sh.dropEvicted(doc)
	}
}

// postEvicted queues an eviction cleanup for this (non-owning caller's)
// shard, which drains it at its next step: marked busy, it is woken for one.
func (sh *shard) postEvicted(doc core.DocID) {
	sh.evictMu.Lock()
	sh.evictedIn = append(sh.evictedIn, doc)
	sh.idleMark.Store(busy)
	sh.evictMu.Unlock()
}

// killPub marks a published entry dead so the fast path stops serving it.
// Safe from any goroutine — this is the one cross-shard write, a single
// atomic flag.
func (sh *shard) killPub(doc core.DocID) {
	if e := sh.published(doc); e != nil {
		e.dead.Store(true)
	}
}

// published returns doc's publication entry (live or dead), nil when there
// is none. Safe from any goroutine.
func (sh *shard) published(doc core.DocID) *pubEntry {
	return sh.pub.get(shardHash(doc), doc)
}

// publish installs (or refreshes) a document in the copy-on-write
// publication index, stamping the copy's version for response frames. The
// budget is the record's and is left as it stands. Owner loop only (single
// writer). Counts pending on the record are drained first.
func (sh *shard) publish(doc core.DocID, body []byte, version uint64) {
	st := sh.state(doc)
	sh.drain(st)
	if st.pub != nil {
		sh.delist(st.pub)
	}
	e := &pubEntry{body: body, version: version, st: st, slot: len(sh.entries)}
	st.pub = e
	sh.entries = append(sh.entries, e)
	sh.pub.set(doc, e)
}

// delist takes an entry that left the index out of the flat list.
func (sh *shard) delist(e *pubEntry) {
	last := len(sh.entries) - 1
	moved := sh.entries[last]
	sh.entries[e.slot], moved.slot = moved, e.slot
	sh.entries[last] = nil
	sh.entries = sh.entries[:last]
	e.slot = -1
}

// unpublish takes a document out of the publication index (owner loop
// only) and drains its pending counts. A connection goroutine that loaded
// the entry just before sees it dead; one that already counted a serve on
// it counted on the record, which the next tick drains.
func (sh *shard) unpublish(st *docState) {
	if st.pub == nil {
		return
	}
	st.pub.dead.Store(true)
	sh.drain(st)
	sh.pub.set(st.doc, nil)
	sh.delist(st.pub)
	st.pub = nil
}

// count records n events in a per-document window and lists the window as
// live, so the next rebuild of the snapshot's rate maps reads it.
func (sh *shard) count(w *docWindow, n float64) {
	w.Add(sh.now, n)
	if !w.live {
		w.live = true
		sh.live = append(sh.live, w)
	}
}

// countServed records n serves of a document in the node-wide and
// per-document served-rate windows.
func (sh *shard) countServed(st *docState, n float64) {
	sh.totalServed.Add(sh.now, n)
	if st.servedWin == nil {
		st.servedWin = sh.newWindow(st.doc, servedRate)
	}
	sh.count(st.servedWin, n)
}

func (sh *shard) newWindow(doc core.DocID, from int) *docWindow {
	return &docWindow{rateWindow: *newRateWindow(sh.s.cfg.Window, rateBuckets), doc: doc, from: from}
}

// flowWindow returns the arrival-rate window for a document as seen from
// sender `from`: a child's A_j^d estimate for forwarded requests (requests
// only travel up the tree, so any non-negative sender id is a child), or
// local demand for client-injected ones (From -1). Keying on the
// envelope's id rather than the registration view keeps attribution
// correct even when a child's first requests overtake its registering
// gossip across the shard and control queues — the single event loop's
// per-connection FIFO no longer orders those two.
func (sh *shard) flowWindow(from int, st *docState) *docWindow {
	if from < 0 {
		if st.flowWin == nil {
			st.flowWin = sh.newWindow(st.doc, -1)
		}
		return st.flowWin
	}
	flows := sh.childFlow[from]
	if flows == nil {
		flows = make(map[core.DocID]*docWindow, 16)
		sh.childFlow[from] = flows
	}
	w := flows[st.doc]
	if w == nil {
		w = sh.newWindow(st.doc, from)
		flows[st.doc] = w
	}
	return w
}

// addTarget moves doc's serve target by delta, never below zero, and
// re-arms the document's budget for the new figure instead of leaving that
// to the next tick.
func (sh *shard) addTarget(doc core.DocID, delta float64) {
	st := sh.state(doc)
	st.target = max(st.target+delta, 0)
	sh.noteTarget(st)
	sh.refreshCredit(st)
}

// noteTarget records a changed target for the snapshot and the journal,
// and pushes it into the copy's rank.
func (sh *shard) noteTarget(st *docState) {
	sh.targetsMoved = true
	sh.s.cache.SetRank(st.doc, sh.rank(st))
	if sh.s.journal != nil {
		sh.jMoved = append(sh.jMoved, st)
	}
}

// dropDuty forgets doc's serve target and served-rate window — the copy is
// gone — and returns the target it carried.
func (sh *shard) dropDuty(st *docState) float64 {
	residual := st.target
	st.target, st.servedRate = 0, 0
	sh.noteTarget(st)
	if st.servedWin != nil {
		st.servedWin.Clear() // may still sit on the live list
		st.servedWin = nil
	}
	return residual
}

func (sh *shard) handle(ev event) {
	env := ev.env
	switch env.Kind {
	case netproto.TypeRequest:
		sh.handleRequest(ev)

	case netproto.TypeResponse:
		// A response moves no version: one that overtakes a write must not
		// make the write look stale.
		st := sh.state(env.Doc)
		if fl := st.flight; fl != nil && len(fl.waiters) > 0 {
			sh.answerFlight(st, env)
		}
		sh.maybeLeaseRefresh(st, env)

	case netproto.TypeDelegate:
		sh.n.delegIn++
		sh.s.gotDelegate.Store(true)
		if env.Body != nil {
			// A copy that does not fit under the byte budget is simply not
			// admitted: the delegated flow keeps passing toward the home
			// server and the parent reclaims it via claimPassing.
			sh.admit(env.Doc, env.Body, env.DocVersion)
		}
		if sh.s.holdsCopy(env.Doc) {
			sh.addTarget(env.Doc, env.Rate) // arm the budget without waiting a tick
		}

	case netproto.TypeShed:
		sh.n.shedIn++
		// Duty coming back up is no longer the sender's: debit its ledger.
		sh.dropLedgerDuty(env.From, env.Doc, env.Rate)
		// Pick up shed duty only for documents we hold (either tier);
		// otherwise the request flow simply continues to the home server.
		if sh.s.holdsCopy(env.Doc) {
			sh.addTarget(env.Doc, env.Rate)
		}

	case netproto.TypeEvict:
		// A neighbor displaced its copy under memory pressure. Absorb the
		// serve duty it abandoned if we still hold the document; otherwise
		// the flow simply continues toward the home server, which always
		// can serve (origin copies are pinned).
		sh.n.evictHintsIn++
		sh.dropLedgerDuty(env.From, env.Doc, env.Rate)
		if sh.s.holdsCopy(env.Doc) {
			sh.addTarget(env.Doc, env.Rate)
		}

	case netproto.TypeReclaim, netproto.TypeClaim:
		// A child re-announces duty after failing over here (reclaim) or
		// claimed passing flow (claim). Credit its ledger — sheds and evict
		// hints debit it — so writes send it bodies (diffuseDown) and its
		// loss re-absorbs what lives below it. The duty stays at the child.
		if env.Kind == netproto.TypeReclaim {
			sh.n.reclaimedDuty += env.Rate
		}
		sh.dutyLedger(env.From)[env.Doc] += env.Rate

	case netproto.TypeRepublish:
		sh.handleRepublish(env)

	case netproto.TypeInvalidate:
		sh.handleInvalidate(env)
	}
}

// refreshCredit is the one top-up rule for a document's admission budget:
// credits accrue at the target rate, on the loop's clock, for the time
// since they were last earned (a fraction of a credit carries to the next
// top-up). Unspent credits carry over up to one gossip period's worth plus
// one, so neither a late tick nor a burst of scrapes (each one a tick)
// admits more than the target; the one also absorbs a serve racing the
// Load-then-Store. It reports whether the budget is full, with nothing left
// to earn.
func (sh *shard) refreshCredit(st *docState) (full bool) {
	target := st.target
	if target <= 0 {
		st.credits.Store(0) // creditAt stays: a copy handed duty later is armed at once
		return true
	}
	budget := int64(target*sh.s.cfg.GossipPeriod.Seconds()) + 1
	have := max(st.credits.Load(), 0)
	due := target * sh.now.Sub(st.creditAt).Seconds()
	if due >= float64(budget-have) {
		st.creditAt = sh.now
		st.credits.Store(budget)
		return true
	}
	if n := int64(due); n > 0 {
		st.creditAt = st.creditAt.Add(time.Duration(float64(n) / target * float64(time.Second)))
		st.credits.Store(have + n)
	}
	return false
}

// handleConnClosed drops the reads held for a connection that died: their
// answers have nowhere to go. Child registration is control-loop state; the
// control loop additionally posts cmdChildGone so the flow windows drop.
func (sh *shard) handleConnClosed(conn transport.Conn) {
	for _, st := range sh.waits {
		if fl := st.flight; fl != nil {
			fl.waiters = dropConn(fl.waiters, conn)
		}
		st.waiting = dropConn(st.waiting, conn)
	}
}

// dropConn filters out, in place, the waiters answered on conn.
func dropConn(ws []waiter, conn transport.Conn) []waiter {
	kept := ws[:0]
	for _, w := range ws {
		if w.conn != conn {
			kept = append(kept, w)
		}
	}
	clear(ws[len(kept):])
	return kept
}

// handleRequest implements the queued data path: the document's filter
// (extract) either serves the request here or passes it toward the home
// server. (Requests the fast path already answered never reach this point.)
func (sh *shard) handleRequest(ev event) {
	env := ev.env
	st := sh.state(env.Doc)
	// Account per-child forwarded flow (A_j^d) when the request came from a
	// registered child, or local demand otherwise. Accounting happens
	// before single-flight coalescing, so the local protocol signals see
	// the full demand even when the upstream fetch is shared.
	sh.count(sh.flowWindow(env.From, st), 1)

	// Every copy passes versionOK when a version-0 one does, so the held
	// copy's version is looked up only when a floor or a mark is in play.
	if mark := sh.mark(st); !versionOK(0, env.MinVersion, mark) {
		if ver, held := sh.s.copyVersion(env.Doc); held && !versionOK(ver, env.MinVersion, mark) {
			sh.sessionGate(st, ev)
			return
		}
	}
	if sh.extract(st) {
		sh.serveRequest(st, ev)
		return
	}
	sh.forwardUp(st, sh.readOf(ev))
}

// readOf is the read a request event holds while it waits on a record.
func (sh *shard) readOf(ev event) waiter {
	env := ev.env
	return waiter{origin: env.Origin, reqID: env.ReqID, conn: ev.conn, minVer: env.MinVersion, hops: env.Hops, at: sh.now}
}

// listHeld puts a record that just took a read onto shard.waits, where the
// tick's sweep finds it (sweepHeld).
func (sh *shard) listHeld(st *docState) {
	if !st.onWaits {
		st.onWaits = true
		sh.waits = append(sh.waits, st)
	}
}

// sessionGate handles a request the held copy may not answer (versionOK
// failed): serving it would break read-my-writes. A floor above the write
// mark names a write this node has not applied yet. Writes start at the
// root and diffuseDown sends each down every tree edge, so it is already on
// its way: the request waits on the record for it, at the root as at any
// other node, and applyWrite releases it (releaseWaiting). A floor at or
// below the mark means a write already superseded the copy: the request
// bypasses it upward on the document's flight, the copy marked stale so
// the passing response re-admits the fresh one (maybeLeaseRefresh). The
// root has no upward edge, so there every gated read waits.
func (sh *shard) sessionGate(st *docState, ev event) {
	env := ev.env
	sh.n.sessionRefreshes++
	if env.MinVersion <= st.ver && !sh.s.isRoot {
		st.stale = true
		sh.forwardUp(st, sh.readOf(ev))
		return
	}
	st.waiting = append(st.waiting, sh.readOf(ev))
	sh.listHeld(st)
}

// releaseWaiting answers or sends on the session reads waiting on st, after
// a write (applyWrite) or at their deadline (expired). A read the held copy
// now satisfies is served from it, through the document's filter like any
// queued read (the root always serves). A read whose floor is still above
// the mark keeps waiting for its own write until the deadline. The rest go
// upward together on the document's flight (forwardUp): the write came as
// a version-only frame, the store refused its body, the filter passed the
// read on, or the write never came (an orphaned or partitioned node). The
// root has no upward step: there an unsatisfied read keeps waiting, and at
// its deadline it is dropped.
func (sh *shard) releaseWaiting(st *docState, expired bool) {
	if len(st.waiting) == 0 {
		return
	}
	doc, root := st.doc, sh.s.isRoot
	body, ver, lent, held := sh.bodyOf(doc)
	kept, up := st.waiting[:0], []waiter(nil)
	out := netproto.GetEnvelope()
	for _, w := range st.waiting {
		switch {
		case held && versionOK(ver, w.minVer, sh.mark(st)) && sh.extract(st):
			sh.n.served++
			sh.countServed(st, 1)
			*out = netproto.Envelope{
				Kind: netproto.TypeResponse, From: sh.s.cfg.ID, To: w.origin,
				Doc: doc, Origin: w.origin, ReqID: w.reqID, ServedBy: sh.s.cfg.ID, Hops: w.hops,
				Body: body, BodyLent: lent, DocVersion: ver,
			}
			sh.sendOn(w.conn, out)
		case !expired && (root || w.minVer > st.ver):
			kept = append(kept, w)
		case !root:
			if held && ver < w.minVer {
				st.stale = true // bypassed: the passing response re-admits the fresh copy
			}
			up = append(up, w)
		}
	}
	netproto.PutEnvelope(out)
	clear(st.waiting[len(kept):])
	st.waiting = kept
	if len(up) > 0 {
		sh.forwardUp(st, up...)
	}
}

// sweepHeld is the tick's pass over the records holding reads: it releases
// session reads whose write has not come within the flight-retry horizon
// (PendingTTL at the root, which has nowhere to send them), drops each read
// on a flight that arrived more than PendingTTL ago, however many fetches
// went up for it since (a lost message, a dead subtree), delists the
// records left holding none, freeing their flights, and returns the count.
func (sh *shard) sweepHeld() (held int) {
	ttl := sh.s.cfg.PendingTTL
	deadline := sh.flightRetry
	if sh.s.isRoot {
		deadline = ttl
	}
	kept := sh.waits[:0]
	for _, st := range sh.waits {
		if len(st.waiting) > 0 && sh.now.Sub(st.waiting[0].at) >= deadline {
			sh.releaseWaiting(st, true) // may hold reads on st's flight; st stays listed
		}
		n := len(st.waiting)
		if fl := st.flight; fl != nil {
			live := fl.waiters[:0]
			for _, w := range fl.waiters {
				if sh.now.Sub(w.at) <= ttl {
					live = append(live, w)
				}
			}
			clear(fl.waiters[len(live):])
			fl.waiters = live
			n += len(live)
		}
		if n == 0 {
			st.onWaits, st.flight = false, nil
			continue
		}
		held += n
		kept = append(kept, st)
	}
	clear(sh.waits[len(kept):])
	sh.waits = kept
	return held
}

// forwardUp holds reads on the document's flight, where any response for
// the document answers them, and sends a fetch led by the first of them
// unless one went up within the retry horizon (single-flight): past it, a
// lost message or a healed partition, a fresh fetch goes. While orphaned
// parentRestored sends the fetch once a failover lands.
func (sh *shard) forwardUp(st *docState, ws ...waiter) {
	fl := st.flight
	if fl == nil {
		fl = &flight{}
		st.flight = fl
	}
	inFlight := len(fl.waiters) > 0 && sh.now.Sub(fl.at) < sh.flightRetry
	fl.waiters = append(fl.waiters, ws...)
	sh.listHeld(st)
	if inFlight {
		sh.n.coalesced += int64(len(ws))
		return
	}
	sh.fetch(st, ws[0])
}

// fetch sends one request upward for the reads held on st's flight, in
// lead's name and with their highest floor, which ancestors gate on, so
// its response satisfies every one of them.
func (sh *shard) fetch(st *docState, lead waiter) {
	fl := st.flight
	fl.at = sh.now
	sh.n.forwarded++
	pl := sh.s.parentLink()
	if pl == nil {
		return // orphaned: sent by parentRestored
	}
	var floor uint64
	for _, w := range fl.waiters {
		floor = max(floor, w.minVer)
	}
	fwd := netproto.GetEnvelope()
	*fwd = netproto.Envelope{
		Kind: netproto.TypeRequest, From: sh.s.cfg.ID, To: pl.id,
		Doc: st.doc, Origin: lead.origin, ReqID: lead.reqID, Hops: lead.hops + 1, MinVersion: floor,
	}
	sh.sendOn(pl.conn, fwd)
	netproto.PutEnvelope(fwd)
}

// answerFlight answers the reads on st's flight that a response for the
// document satisfies (the write mark does not disqualify a relayed reply);
// a read whose floor is above its version stays held for the next fetch,
// sent at once. An answer counts its read's own hops: those it arrived with
// plus the response's above the read the fetch was named for, or the
// response's alone if that read has left.
func (sh *shard) answerFlight(st *docState, resp *netproto.Envelope) {
	fl := st.flight
	above, named := 0, false
	for _, w := range fl.waiters {
		if w.origin == resp.Origin && w.reqID == resp.ReqID {
			above, named = resp.Hops-w.hops, true
			break
		}
	}
	kept := fl.waiters[:0]
	out := netproto.GetEnvelope()
	for _, w := range fl.waiters {
		if !resp.NotFound && !versionOK(resp.DocVersion, w.minVer, 0) {
			kept = append(kept, w)
			continue
		}
		hops := resp.Hops
		if named {
			hops = w.hops + above
		}
		*out = netproto.Envelope{
			Kind: netproto.TypeResponse, From: sh.s.cfg.ID, To: w.origin,
			Doc: resp.Doc, Origin: w.origin, ReqID: w.reqID,
			ServedBy: resp.ServedBy, Hops: hops,
			Body: resp.Body, NotFound: resp.NotFound,
			DocVersion: resp.DocVersion,
		}
		sh.sendOn(w.conn, out)
	}
	netproto.PutEnvelope(out)
	clear(fl.waiters[len(kept):])
	fl.waiters = kept
	if len(kept) > 0 {
		sh.fetch(st, kept[0])
	}
}

// admit caches a document copy under the byte budget and wires the
// eviction feedback into the protocol. It returns whether the copy was
// admitted (a body that cannot fit is rejected, not cached).
//
// For every displaced document: the fast path is cut immediately (the
// entry's dead flag), and the owning shard — usually this one, always
// this one when the cache striping is aligned — tears down the admission
// filter so requests resume traveling toward the home server, drops the
// serve target and rate window, and hints the eviction to the parent with
// the abandoned target rate so a surviving copy upstream absorbs the duty
// instead of waiting a diffusion period to notice the imbalance.
func (sh *shard) admit(doc core.DocID, body []byte, ver uint64) bool {
	st := sh.state(doc)
	if cur, _ := sh.s.copyVersion(doc); !versionOK(ver, cur, sh.mark(st)) {
		// A stale body (a delegation or passing response that raced a
		// republish, or older than the copy held here): refuse it —
		// admitting it would roll the document back. An admit moves no
		// mark; the body carries its version into the tiers.
		sh.n.staleDrops++
		return false
	}
	if !sh.storeCopy(st, body, ver) {
		return false
	}
	st.stale = false // the fresh copy is here: no passing response need bring it
	// Disk-only is still admitted: the node accepts the copy and its duty,
	// which is what lets a corpus larger than RAM keep serving below the
	// home server. The read path serves it from disk until a hit re-admits
	// it to memory.
	sh.installFilter(st)
	sh.journalAdmit(st)
	return true
}

// storeCopy puts body, at version ver, into both tiers: disk first, so the
// body is crash-safe (and eviction-safe) before any duty is accepted for
// it, then memory, publishing it there for the fast path. If memory cannot
// take it (it outgrew the budget) but disk did, an older copy memory holds
// is dropped, so the tiers never serve two versions. Reports whether
// either tier holds the body; if not, memory may still hold an older one.
func (sh *shard) storeCopy(st *docState, body []byte, ver uint64) bool {
	doc := st.doc
	sh.diskWriteThrough(doc, body, ver)
	evs, inMem := sh.s.cache.PutVersion(doc, body, ver, sh.rank(st))
	sh.applyEvictions(evs)
	if inMem {
		sh.publish(doc, body, ver)
		return true
	}
	if !sh.s.diskHas(doc) {
		return false
	}
	sh.unpublish(st)
	sh.s.cache.Delete(doc)
	return true
}

// applyEvictions runs the protocol-side cleanup for a Put's displaced
// documents: cut the fast path now, route the owner-side teardown (or
// spill) to each document's owning shard.
func (sh *shard) applyEvictions(evs []cachestore.Eviction) {
	for _, ev := range evs {
		sh.s.nEvicted.Add(1)
		sh.s.nEvictedBytes.Add(int64(ev.Bytes))
		owner := sh.s.shardFor(ev.Doc)
		owner.killPub(ev.Doc) // stop fast-path serves of the stale body now
		if owner == sh {
			sh.dropEvicted(ev.Doc)
		} else {
			owner.postEvicted(ev.Doc)
		}
	}
}

// dropEvicted is the owner-side eviction cleanup: filter down, publication
// entry out, duty handed to the parent. Skipped when the document was
// re-admitted before the cleanup drained (the note is then stale).
func (sh *shard) dropEvicted(doc core.DocID) {
	st := sh.state(doc)
	if sh.s.cache.Contains(doc) {
		// Re-admitted since the note was posted. The evictor's killPub may
		// have raced the re-admission and marked the FRESH publication
		// entry dead, which would otherwise leave the fast path disabled
		// for it forever. Republish from the live copy.
		if e := st.pub; e != nil && e.dead.Load() {
			if body, ver, ok := sh.s.cache.Peek(doc); ok {
				sh.publish(doc, body, ver)
			}
		}
		return
	}
	if sh.s.diskHas(doc) {
		// Spilled, not lost: the disk tier still holds the body (admission
		// wrote through), so the node keeps the document's duty and filter.
		// Only the fast path goes down — it needs an in-memory body — and
		// the read path serves memory → disk until a hit re-admits it.
		sh.unpublish(st)
		sh.s.nSpills.Add(1)
		return
	}
	st.filter, sh.filtersMoved = false, true
	sh.unpublish(st)
	residual := sh.dropDuty(st)
	sh.journalDrop(st)
	// A copy displaced before accruing any serve duty has nothing for the
	// parent to absorb; hintUp skips the no-op (and parks the hint while
	// orphaned).
	sh.hintUp(doc, residual)
}

// serveRequest answers a request from the copy this node holds, memory
// first, then disk, labelled with that copy's own version (handleRequest
// already held it to versionOK; both tiers hold a document at one version).
func (sh *shard) serveRequest(st *docState, ev event) {
	env := ev.env
	body, ver, held := sh.s.cache.GetVersion(env.Doc)
	lent := false
	if !held {
		if body, ver, held = sh.readDisk(env.Doc, true); held {
			lent = true
			// Disk-tier hit: serve the spilled copy and offer it back to
			// memory, which takes it only if it is hotter than what it would
			// evict (the disk copy stays either way, so demotion is free).
			sh.n.diskHits++
			sh.readmitFromDisk(st, body, ver)
		}
	}
	if !held && !sh.s.isRoot {
		// The filter extracted a document we no longer hold (an invalidated
		// copy awaiting its lease refresh, an install/evict race): refund
		// the credit, which bought no serve, and keep the request moving
		// toward the home server.
		st.credits.Add(1)
		sh.forwardUp(st, sh.readOf(ev))
		return
	}
	sh.n.served++
	sh.countServed(st, 1)
	resp := netproto.GetEnvelope()
	*resp = netproto.Envelope{
		Kind: netproto.TypeResponse, From: sh.s.cfg.ID, To: env.Origin,
		Doc: env.Doc, Origin: env.Origin, ReqID: env.ReqID,
		ServedBy: sh.s.cfg.ID, Hops: env.Hops,
		Body: body, BodyLent: lent, NotFound: !held, DocVersion: ver,
	}
	sh.sendOn(ev.conn, resp)
	netproto.PutEnvelope(resp)
}

// readmitFromDisk offers a disk-served body, at its version, back to
// memory so later requests take the fast path. With a disk tier, memory is
// a duty-gated cache of disk: the store takes the body when it fits, or
// when its rank per byte is strictly above that of the coldest copies it
// would evict. Re-admitting on every hit would make memory hold whatever
// was read last, each hit evicting (and unpublishing) another copy. The
// served half of a rank is as old as the last rebuild of the rate maps, up
// to one DiffusionPeriod, so a document that just turned hot can be refused
// for that long. A refused or oversized body stays disk-resident and keeps
// being served from there. No journal traffic: the document was already
// journaled as admitted. The body is the shard's lent disk buffer: memory
// stores its own copy, and that copy is what gets published.
func (sh *shard) readmitFromDisk(st *docState, body []byte, ver uint64) {
	evs, ok, refused := sh.s.cache.Offer(st.doc, body, ver, sh.rank(st))
	if refused {
		sh.n.readmitsRefused++
	}
	sh.applyEvictions(evs)
	if !ok {
		return
	}
	if body, ver, ok = sh.s.cache.Peek(st.doc); ok {
		sh.publish(st.doc, body, ver)
	}
}

// installFilter raises the paper's packet filter for a document this node
// holds (extract); dropEvicted lowers it once no tier holds the copy.
func (sh *shard) installFilter(st *docState) { st.filter, sh.filtersMoved = true, true }

// extract is the filter's verdict on one queued request for st's document.
// The origin takes every request for what it owns. Any other node takes one
// only while the filter is up and the request can spend a credit of the
// document's budget, the one the fast path spends, and passes the rest on:
// so the node serves its target and forwards the rest, whichever tier holds
// the copy. The record is listed hot exactly as a drained fast serve lists
// it, and the next tick tops the budget up.
func (sh *shard) extract(st *docState) bool {
	ok := sh.s.isRoot
	if !ok && st.filter {
		sh.markHot(st)
		ok = st.credits.Add(-1) >= 0
	}
	if ok {
		sh.n.extracted++
	} else {
		sh.n.passed++
	}
	return ok
}

// delegateOut executes one control-loop delegation decision on the owning
// shard: drop the local target, ship the duty (and body) to the child.
// Decisions are computed from snapshots and so may be a tick stale; the
// shard re-validates what still holds.
func (sh *shard) delegateOut(child int, doc core.DocID, rate float64) {
	conn := sh.s.childConn(child)
	body, ver, lent, held := sh.bodyOf(doc) // a handoff is not local demand
	if conn == nil || !held || !versionOK(ver, 0, sh.mark(sh.state(doc))) {
		return
	}
	sh.addTarget(doc, -rate)
	sh.n.delegOut++
	sh.dutyLedger(child)[doc] += rate // credited back if the child sheds or dies
	sh.sendOn(conn, &netproto.Envelope{
		Kind: netproto.TypeDelegate, From: sh.s.cfg.ID, To: child,
		Doc: doc, Rate: rate, Body: body, BodyLent: lent, DocVersion: ver,
	})
}

// shedOut executes one control-loop shed decision: move duty up to the
// parent. Re-validated like delegateOut: if the copy was evicted since the
// snapshot, its residual duty already traveled upstream in the evict hint
// and a shed here would hand the parent the same duty twice.
func (sh *shard) shedOut(doc core.DocID, rate float64) {
	pl := sh.s.parentLink()
	if pl == nil || !sh.s.holdsCopy(doc) {
		return
	}
	sh.addTarget(doc, -rate)
	sh.n.shedOut++
	sh.sendOn(pl.conn, &netproto.Envelope{
		Kind: netproto.TypeShed, From: sh.s.cfg.ID, To: pl.id,
		Doc: doc, Rate: rate,
	})
}
