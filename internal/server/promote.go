// Hot-document replication forests (live side).
//
// One routing tree ceilings a viral document at what its home server and
// the diffusion wave around it can carry. When Config.PromoteThreshold is
// set, the home watches each document's demand — inbound request flow it
// observes locally, plus the served rates its replica roots announce — and
// promotes a document that stays hot through the hysteresis window onto
// PromoteK replica roots: its least-loaded children. Each root receives the
// body and a share of the serve duty in a promote frame, and from then on
// its disjoint subtree runs the ordinary diffusion protocol as an
// independent replica tree; gateways learn the root set from stats scrapes
// and spread requests across it with two-choices routing (internal/forest).
//
// The design rule throughout: promotion reuses the delegation machinery
// rather than growing a parallel one. A promote-out credits the child's
// duty ledger exactly like a delegation, so a replica root's death is
// repaired by the existing cmdChildGone re-absorption; a demoted (or
// evicted) replica hands its residual duty back through the evict-hint
// path; an orphaned replica replays its replica targets as reclaims like
// any other duty. Duty conservation across kill/restart therefore holds
// with no promotion-specific repair code — the chaos tests assert it.
package server

import (
	"sort"

	"webwave/internal/core"
	"webwave/internal/forest"
	"webwave/internal/netproto"
)

// promoEntry is the home's per-document promotion state: the hysteresis
// tracker, the current replica roots (empty while unpromoted), and the last
// observed forest-wide heat (used to size a repair share when a dead root
// is replaced between demand observations).
type promoEntry struct {
	tracker forest.PromoTracker
	roots   []int
	heat    float64
}

// doPromotion runs the replication-forest duties of one diffusion tick:
// the home advances each tracked document's state machine, replica roots
// announce their served rates upward. Disabled (home side) unless
// PromoteThreshold is configured; the replica side always answers, so a
// mixed fleet only needs the knob set on the root.
func (c *control) doPromotion(snaps []*shardSnap) {
	if c.s.isRoot {
		if c.promoCfg.PromoteThreshold > 0 {
			c.promoteTick(snaps)
		}
		return
	}
	c.announceReplicas(snaps)
}

// promoteTick is the home's promotion state machine, one observation per
// diffusion period per document with any demand or state.
func (c *control) promoteTick(snaps []*shardSnap) {
	heat := c.demandByDoc(snaps)
	// Documents tracked but silent this tick still need an observation —
	// that silence is exactly what cools a promoted document down.
	for doc := range c.promos {
		if _, ok := heat[doc]; !ok {
			heat[doc] = 0
		}
	}
	for doc, h := range heat {
		pe := c.promos[doc]
		if pe == nil {
			if h < c.promoCfg.PromoteThreshold {
				continue // cold and untracked: nothing to observe
			}
			pe = &promoEntry{}
			c.promos[doc] = pe
		}
		pe.heat = h
		switch pe.tracker.Observe(h, c.promoCfg) {
		case forest.PromoPromote:
			if !c.promote(doc, pe) {
				// No children to host replicas: forget the transition and
				// keep observing, so roots appearing later get a fresh try.
				pe.tracker = forest.PromoTracker{}
			}
		case forest.PromoDemote:
			c.demote(doc, pe)
		default:
			if pe.tracker.Promoted() {
				c.repairForest(doc, pe)
			}
		}
		if !pe.tracker.Promoted() && pe.tracker.Idle() {
			delete(c.promos, doc) // garbage-collect cold state
		}
	}
}

// demandByDoc aggregates each document's observed demand: every request
// arrival this node saw (local injections and child-forwarded flow, fast
// path included — the flow windows count them all) plus the served rates
// the replica roots announced. Announced rates cover the demand a gateway
// routes straight to a root, which the home never sees on its own links.
func (c *control) demandByDoc(snaps []*shardSnap) map[core.DocID]float64 {
	heat := make(map[core.DocID]float64, 16)
	for _, sn := range snaps {
		for _, flows := range sn.flows {
			for doc, r := range flows {
				heat[doc] += r
			}
		}
	}
	for doc, byRoot := range c.replicaHeat {
		for _, r := range byRoot {
			heat[doc] += r
		}
	}
	return heat
}

// promote installs a replica forest for doc: pick the PromoteK least-loaded
// children as roots and ship each an equal share of the observed heat.
// Reports whether any root could be enrolled.
func (c *control) promote(doc core.DocID, pe *promoEntry) bool {
	roots := forest.PickReplicaRoots(c.childIDs(), c.loadOf, c.s.cfg.PromoteK)
	if len(roots) == 0 {
		return false
	}
	share := pe.heat / float64(len(roots)+1) // the home tree keeps one share
	for _, r := range roots {
		c.promoteOutTo(doc, r, share)
	}
	pe.roots = roots
	c.nPromotions++
	return true
}

// promoteOutTo posts the shipment of one replica share to the owning
// shard, which holds the body and the duty ledgers. Blocking post, like
// cmdChildGone: dropping it would leave the home believing duty lives at a
// root that never received it.
func (c *control) promoteOutTo(doc core.DocID, root int, share float64) {
	c.s.post(c.s.shardFor(doc).events, event{cmd: cmdPromoteOut, child: root, doc: doc, rate: share})
}

// repairForest replaces replica roots that died while the document stayed
// promoted, keeping the forest at full strength. The dead root's handed
// duty was already re-absorbed by the ledger machinery; the replacement
// gets a fresh share of the last observed heat.
func (c *control) repairForest(doc core.DocID, pe *promoEntry) {
	live := pe.roots[:0]
	for _, r := range pe.roots {
		if c.s.childConn(r) != nil {
			live = append(live, r)
		}
	}
	missing := c.s.cfg.PromoteK - len(live)
	pe.roots = live
	if missing <= 0 {
		return
	}
	var cands []int
	for _, id := range c.childIDs() {
		taken := false
		for _, r := range live {
			if r == id {
				taken = true
				break
			}
		}
		if !taken {
			cands = append(cands, id)
		}
	}
	share := pe.heat / float64(c.s.cfg.PromoteK+1)
	for _, r := range forest.PickReplicaRoots(cands, c.loadOf, missing) {
		c.promoteOutTo(doc, r, share)
		pe.roots = append(pe.roots, r)
	}
}

// demote dissolves doc's replica forest: each surviving root is told to
// tear its replica down (residual duty returns through the evict-hint
// path and is debited from our ledgers by the existing handler).
func (c *control) demote(doc core.DocID, pe *promoEntry) {
	for _, r := range pe.roots {
		c.sendOn(c.s.childConn(r), &netproto.Envelope{
			Kind: netproto.TypeDemote, From: c.s.cfg.ID, To: r, Doc: doc,
		})
	}
	pe.roots = nil
	delete(c.replicaHeat, doc)
	c.nDemotions++
}

// handlePromote handles a promote frame, whose meaning depends on the
// sender. From the parent it is an enrollment: this node becomes a replica
// root, and the per-document work (admit the body, take the target) goes
// to the owning shard. From a child it is that replica root's periodic
// served-rate announcement — the portion of the document's demand the home
// cannot observe on its own links.
func (c *control) handlePromote(ev event) {
	env, s := ev.env, c.s
	if pl := s.parentLink(); pl != nil && env.From == pl.id {
		c.replicaDocs[env.Doc] = true
		var body []byte
		if len(env.Body) > 0 {
			body = append([]byte(nil), env.Body...) // the envelope is pooled
		}
		// Blocking post: losing the enrollment would strand the handed-over
		// duty (the home's ledger already credits it to us).
		s.post(s.shardFor(env.Doc).events, event{cmd: cmdPromoteIn, doc: env.Doc, rate: env.Rate, body: body, ver: env.DocVersion})
		return
	}
	if s.childConn(env.From) == nil {
		return // not a tree neighbor; stale or misrouted
	}
	byRoot := c.replicaHeat[env.Doc]
	if byRoot == nil {
		byRoot = make(map[int]float64, 4)
		c.replicaHeat[env.Doc] = byRoot
	}
	byRoot[env.From] = env.Rate
}

// handleDemote dissolves this node's replica for the document. Only the
// parent (the home, for a replica root) may demote.
func (c *control) handleDemote(ev event) {
	env, s := ev.env, c.s
	pl := s.parentLink()
	if pl == nil || env.From != pl.id {
		return
	}
	delete(c.replicaDocs, env.Doc)
	// Blocking post: the teardown hands residual duty back; dropping it
	// would leave a phantom replica serving behind the home's back.
	s.post(s.shardFor(env.Doc).events, event{cmd: cmdDemoteLocal, doc: env.Doc})
}

// announceReplicas sends the home one promote frame per hosted replica
// with the measured served rate. Announcements are soft state on the
// gossip pattern: lost ones understate heat for a tick, nothing breaks.
func (c *control) announceReplicas(snaps []*shardSnap) {
	if len(c.replicaDocs) == 0 {
		return
	}
	pl := c.s.parentLink()
	if pl == nil {
		return // orphaned: reclaim replay re-announces duty after failover
	}
	for doc := range c.replicaDocs {
		c.sendOn(pl.conn, &netproto.Envelope{
			Kind: netproto.TypePromote, From: c.s.cfg.ID, To: pl.id,
			Doc: doc, Rate: snaps[c.s.shardIndex(doc)].served[doc],
		})
	}
}

// forestChildGone strips a dead child from every forest: its announced
// rates stop counting toward heat, and its root slot is refilled by
// repairForest on the next promotion tick. The duty it held comes back
// through the shards' ledger re-absorption, not here.
func (c *control) forestChildGone(gone int) {
	for doc, byRoot := range c.replicaHeat {
		delete(byRoot, gone)
		if len(byRoot) == 0 {
			delete(c.replicaHeat, doc)
		}
	}
	for _, pe := range c.promos {
		for i, r := range pe.roots {
			if r == gone {
				pe.roots = append(pe.roots[:i], pe.roots[i+1:]...)
				break
			}
		}
	}
}

// childIDs returns the registered children, deterministically ordered.
func (c *control) childIDs() []int {
	cv := c.s.children.Load()
	ids := make([]int, 0, len(cv.conns))
	for id := range cv.conns {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// loadOf is the gossiped load figure for one child (zero before its first
// gossip) — the signal replica-root selection ranks candidates by.
func (c *control) loadOf(id int) float64 { return c.childLoad[id] }

// promoStats folds the replication-forest state into a stats scrape.
func (c *control) promoStats(st *netproto.Stats) {
	st.Promotions = c.nPromotions
	st.Demotions = c.nDemotions
	for doc, pe := range c.promos {
		if len(pe.roots) == 0 {
			continue
		}
		if st.PromotedDocs == nil {
			st.PromotedDocs = make(map[core.DocID][]int, 4)
		}
		st.PromotedDocs[doc] = append([]int(nil), pe.roots...)
	}
	for doc := range c.replicaDocs {
		st.ReplicaDocs = append(st.ReplicaDocs, doc)
	}
	sort.Slice(st.ReplicaDocs, func(i, j int) bool { return st.ReplicaDocs[i] < st.ReplicaDocs[j] })
}

// promoteOut is the home-shard side of a promotion: mirror delegateOut —
// drop the local target by the handed share, credit the child's duty
// ledger (the hook every kill/restart repair path reads), ship body and
// rate in one promote frame. Re-validated like any snapshot-derived
// command.
func (sh *shard) promoteOut(child int, doc core.DocID, rate float64) {
	conn := sh.s.childConn(child)
	if conn == nil || !sh.s.holdsCopy(doc) {
		return
	}
	sh.addTarget(doc, -rate)
	sh.dutyLedger(child)[doc] += rate
	body, _ := sh.s.bodyOf(doc) // a handoff is not local demand
	sh.sendOn(conn, &netproto.Envelope{
		Kind: netproto.TypePromote, From: sh.s.cfg.ID, To: child,
		Doc: doc, Rate: rate, Body: body, DocVersion: sh.state(doc).ver,
	})
}

// promoteIn is the replica-shard side of an enrollment: admit the copy and
// take the handed-over duty. From here on the ordinary machinery serves
// it — publication feeds the lock-free fast path, diffusion delegates the
// duty deeper into this root's subtree, eviction hints it back up.
func (sh *shard) promoteIn(doc core.DocID, rate float64, body []byte, ver uint64) {
	sh.s.gotDelegate.Store(true) // replica duty counts as received work (tunneling patience)
	if body != nil {
		// A body that does not fit under the byte budget is simply not
		// admitted; the target is skipped too, and the un-serveable share
		// flows back to the home through its unanswered announcements.
		sh.admit(doc, body, ver)
	}
	if sh.s.holdsCopy(doc) {
		sh.addTarget(doc, rate) // arm the fast path without waiting a tick
	}
}

// demoteLocal tears this node's replica down: the same teardown an
// eviction runs (filter out, publication withdrawn, residual duty hinted
// upward, where the home's evict handler debits its ledger and re-absorbs).
// The cached body stays — it is unpinned, so ordinary pressure reclaims
// it, and a re-promotion shortly after costs no second body transfer.
func (sh *shard) demoteLocal(doc core.DocID) {
	if !sh.s.holdsCopy(doc) {
		return // evicted earlier: the residual already traveled with the hint
	}
	st := sh.state(doc)
	sh.rt.Remove(doc)
	sh.unpublish(st)
	sh.hintUp(doc, sh.dropDuty(st))
}
