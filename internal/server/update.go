package server

// Mutable documents: versioned republish and tree-diffused invalidation.
//
// A write enters the tree at the origin (root) as a republish (new body,
// new version) or an invalidate (version only) and diffuses down the same
// filter/target edges the duty protocol maintains. A copy carries its own
// version — both tiers store it beside the body, and it labels every reply
// — while each node keeps one write mark per document that only write
// frames move (applyWrite): a frame above it advances it and diffuses on,
// one at or below it is a duplicate, dropped and not forwarded. Responses
// and admissions never move the mark, so one that overtakes a write never
// makes the write look stale. A node whose copy is older
// than the write either swaps the new body into both tiers in place
// (republish) or drops the stale body while KEEPING its admission filter,
// targets and duty (invalidate) — requests then miss locally and travel
// upward on the document's flight (single-flight), which acts as the
// subtree's lease: however many clients storm a freshly invalidated
// document, one fetch per shard travels toward the origin, and the
// response re-admits the fresh copy for everyone coalesced behind it.
//
// Body frames ride only the edges the duty ledger says have copies below
// them (delegated, claimed or reclaimed duty); every other child gets a
// cheap version-only invalidate and forwards it on, so a copy the ledger
// cannot see (its duty shed back to zero, say) still converges — it
// drops to stale and lease-refreshes on the next demand.
//
// A session read whose floor is above the write mark names a write this
// node has not applied yet, already on its way down. It waits on the
// document's record (sessionGate) rather than racing the write upward, and
// applyWrite releases it: answered from the copy the write installed, or
// sent upward as one fetch carrying the group's highest floor when the
// node could not keep the write's body (releaseWaiting). A write that does
// not come within the flight-retry horizon releases the reads upward from
// the tick (sweepHeld).

import (
	"webwave/internal/core"
	"webwave/internal/netproto"
)

// handleRepublish applies one versioned body push and diffuses it down.
func (sh *shard) handleRepublish(env *netproto.Envelope) {
	var body []byte
	if len(env.Body) > 0 {
		body = env.Body // safe to retain: recycled envelopes drop, never reuse, Body
	}
	if sh.applyWrite(env, body, &sh.n.republishesIn) {
		sh.diffuseDown(env.Doc, env.DocVersion, body)
	}
}

// handleInvalidate applies one version-only write (the local copy drops;
// duty and filter stay) and diffuses version-only frames down. At the
// origin an injected invalidate may carry the new body — the root must
// always serve the latest version — but it never travels further.
func (sh *shard) handleInvalidate(env *netproto.Envelope) {
	var body []byte
	if sh.s.isRoot && len(env.Body) > 0 {
		body = env.Body
	}
	if sh.applyWrite(env, body, &sh.n.invalidationsIn) {
		sh.diffuseDown(env.Doc, env.DocVersion, nil)
	}
}

// applyWrite is the write-frame gate, the only place a write mark moves. A
// frame at or below the mark is a duplicate — this node already passed on
// a write at least as new — counted as a stale drop; applyWrite reports
// false and the frame goes no further. A frame above the mark advances it
// and is brought to the local copy, counted in applied: the origin installs
// body; a node holding an older copy swaps body into both tiers in place,
// keeping the document's filter, targets and duty exactly as they were (a
// republish moves data, not duty), or drops the copy if there is no body
// to install or neither tier keeps it. A copy that already serves the write
// (a passing response brought it first) stays as it is, a stale
// drop locally. Either way the session reads waiting for the write are
// released (releaseWaiting) and applyWrite reports true: the children
// still need the write.
func (sh *shard) applyWrite(env *netproto.Envelope, body []byte, applied *int64) bool {
	st, ver := sh.state(env.Doc), env.DocVersion
	if ver <= st.ver {
		sh.n.staleDrops++
		return false
	}
	st.ver = ver
	defer sh.releaseWaiting(st, false)
	switch cur, held := sh.s.copyVersion(st.doc); {
	case sh.s.isRoot:
		sh.originWrite(st.doc, body, ver)
	case !held:
	case versionOK(cur, ver, 0):
		sh.n.staleDrops++
		return true
	case body == nil || !sh.storeCopy(st, body, ver):
		sh.invalidateLocal(st)
	}
	*applied++
	return true
}

// originWrite installs a new version at the home server: the pinned origin
// copy swaps in place and stays immune to eviction. A version-only frame
// cannot install anything — the previous origin body keeps serving (the
// origin is never stale relative to itself; its copy IS the document until
// a body arrives).
func (sh *shard) originWrite(doc core.DocID, body []byte, ver uint64) {
	if body == nil {
		return
	}
	if !sh.s.cache.PinVersion(doc, body, ver) {
		return
	}
	sh.installFilter(sh.state(doc))
	sh.publish(doc, body, ver)
}

// invalidateLocal drops the stale body from both tiers while keeping the
// document's admission filter, targets and duty. Requests now miss locally
// and travel upward on the document's flight — the lease — and the
// response re-admits the fresh copy (maybeLeaseRefresh).
func (sh *shard) invalidateLocal(st *docState) {
	doc := st.doc
	sh.unpublish(st)
	sh.s.cache.Delete(doc)
	if sh.s.disk != nil {
		sh.s.disk.Delete(doc)
	}
	st.stale = true
	// The node no longer holds a body in any tier; a restart before the
	// lease refresh recovers without this document, like any dropped copy.
	sh.journalDrop(st)
}

// diffuseDown forwards a write down every child edge. Children whose duty
// ledger shows duty for doc (delegated, claimed or reclaimed) likely hold a
// copy below them, so they get the full republish (body included); the
// rest get a version-only invalidate — any deeper copy the ledger cannot
// see drops to stale and lease-refreshes on its next demand.
func (sh *shard) diffuseDown(doc core.DocID, ver uint64, body []byte) {
	cv := sh.s.children.Load()
	out := netproto.GetEnvelope()
	for id, conn := range cv.conns {
		kind, b := netproto.TypeInvalidate, []byte(nil)
		if body != nil && sh.childDuty[id][doc] > 0 {
			kind, b = netproto.TypeRepublish, body
		}
		*out = netproto.Envelope{
			Kind: kind, From: sh.s.cfg.ID, To: id,
			Doc: doc, DocVersion: ver, Body: b,
		}
		sh.sendOn(conn, out)
	}
	netproto.PutEnvelope(out)
}

// maybeLeaseRefresh re-admits a stale copy from a response passing through:
// the single-flight fetch that produced it is the subtree's lease, so the
// refreshed copy costs the origin one fetch however many clients stormed
// the document here. A claim on a document not held yet marks it the same
// way, so this is also where a tunnel adopts its copy.
func (sh *shard) maybeLeaseRefresh(st *docState, env *netproto.Envelope) {
	if !st.stale || env.NotFound || len(env.Body) == 0 {
		return
	}
	if !versionOK(env.DocVersion, 0, sh.mark(st)) {
		return // upstream served an older version: keep waiting for the write
	}
	if sh.admit(env.Doc, env.Body, env.DocVersion) {
		sh.n.leaseRefreshes++
	}
}
