package server

// The disk persistence tier (Config.DataDir). Two pieces from
// internal/diskstore hang off the server: a byte-budgeted body store that
// keeps evicted-but-warm documents on disk, each body beside its version,
// and an append-only journal of admissions, drops and duty targets — duty
// only. Integration is deliberately thin:
//
//   - Admission writes through to disk (the body is crash-safe before any
//     duty is accepted), so a later memory eviction is free — cachestore's
//     evictions carry no body.
//   - A memory eviction whose body is still on disk becomes a spill: the
//     fast path goes down but the filter and targets stay, and the read
//     path serves memory → disk → parent. Memory is then a heat-gated
//     cache of disk: a disk hit offers its body back, and memory takes it
//     only if it is hotter than what it would evict (readmitFromDisk).
//     Only when BOTH tiers lose the body does the old teardown (duty
//     hinted upstream) run.
//   - A disk read allocates nothing: each shard reads every disk body it
//     serves or hands over into one loop-owned buffer (readDisk) and lends
//     it to the send, marked BodyLent, so a transport that keeps the frame
//     copies the body. Memory, which keeps a readmitted body, stores its
//     own copy (cachestore.Offer); warm recovery keeps what it reads, so
//     it reads into fresh buffers (Peek).
//   - On restart, New replays the journal against the surviving body
//     files, re-admits what fits in memory (the rest stays disk-resident)
//     at the version its file names, restores each document's target and
//     write mark, and Start re-announces the whole held set as reclaim
//     frames — exactly the failover replay path, zero new repair protocol.
//     A torn journal tail is truncated, never fatal.

import (
	"fmt"
	"path/filepath"

	"webwave/internal/core"
	"webwave/internal/diskstore"
)

// openPersist opens the disk tier under cfg.DataDir and runs warm
// recovery. Called from New, single-threaded, before any loop starts.
func (s *Server) openPersist() error {
	disk, err := diskstore.Open(diskstore.Config{
		Dir:         filepath.Join(s.cfg.DataDir, "bodies"),
		BudgetBytes: s.cfg.DiskBudgetBytes,
	})
	if err != nil {
		return fmt.Errorf("server %d: disk tier: %w", s.cfg.ID, err)
	}
	journal, state, err := diskstore.OpenJournal(filepath.Join(s.cfg.DataDir, "journal.wal"))
	if err != nil {
		return fmt.Errorf("server %d: journal: %w", s.cfg.ID, err)
	}
	s.disk = disk
	s.journal = journal
	s.recoverWarm(state)
	return nil
}

// recoverWarm rebuilds cache and duty state from a previous run: for each
// journaled document whose body survived on disk, re-admit to memory
// (under the budget; the rest stays disk-resident) at the body's version,
// reinstall the admission filter, restore the last journaled target and
// start the write mark at the body's version — so a warm restart resumes
// serving the version it held, and the write gate keeps refusing older
// frames across the kill. The journal is then compacted to the recovered
// set, so it stays proportional to the held documents across restart
// cycles (a no-op on a node's first start, whose journal is empty).
func (s *Server) recoverWarm(state map[core.DocID]diskstore.DocState) {
	live := make(map[core.DocID]diskstore.DocState, len(state))
	for doc, st := range state {
		if s.isRoot {
			if _, pinned := s.cfg.Docs[doc]; pinned {
				continue // origin copies republish from config, not disk
			}
		}
		body, ver, ok := s.disk.Peek(doc)
		if !ok {
			continue // journaled as held, but the body tier dropped it
		}
		sh := s.shardFor(doc)
		rec := sh.state(doc)
		rec.ver = ver
		evs, inMem := s.cache.PutVersion(doc, body, ver, sh.rank(rec))
		sh.applyEvictions(evs) // earlier-recovered docs may spill back to disk-only
		sh.installFilter(rec)
		if st.Rate > 0 {
			sh.addTarget(doc, st.Rate)
		}
		rec.admitted, rec.jTarget = true, st.Rate
		if inMem {
			sh.publish(doc, body, ver)
		}
		live[doc] = st
		s.warmDocs++
	}
	_ = s.journal.Compact(live)
}

// closePersist flushes and closes the journal and releases the body
// descriptors the disk tier retained. Called from Stop after the loops have
// drained.
func (s *Server) closePersist() {
	if s.journal != nil {
		_ = s.journal.Close()
	}
	if s.disk != nil {
		s.disk.Close()
	}
}

// holdsCopy reports whether this node holds a serveable copy of doc in
// either tier — the predicate duty-acceptance decisions (delegations,
// sheds, evict-hint absorption, claims) use, so a disk-resident copy
// keeps carrying duty.
func (s *Server) holdsCopy(doc core.DocID) bool {
	return s.cache.Contains(doc) || s.diskHas(doc)
}

// diskHas reports disk-tier residency (false with the tier disabled).
func (s *Server) diskHas(doc core.DocID) bool {
	return s.disk != nil && s.disk.Contains(doc)
}

// maxDiskBuf bounds the disk-read buffer a shard keeps between reads; a
// body larger than it is read into a buffer of its own, left for the GC.
const maxDiskBuf = 64 << 10

// readDisk reads doc's body and its version from the disk tier into the
// shard's buffer. demand counts the hit and refreshes recency (a request);
// a copy handoff passes false. The body is lent: it is valid only until
// this loop's next disk read, so a caller sends it marked BodyLent, or
// Offers it, and keeps no reference.
func (sh *shard) readDisk(doc core.DocID, demand bool) ([]byte, uint64, bool) {
	d := sh.s.disk
	if d == nil {
		return nil, 0, false
	}
	read := d.PeekInto
	if demand {
		read = d.GetVersionInto
	}
	body, ver, ok := read(doc, sh.diskBuf)
	if ok && cap(body) <= maxDiskBuf {
		sh.diskBuf = body
	}
	return body, ver, ok
}

// bodyOf returns a held body and its version from whichever tier has it,
// with Peek semantics in both — copy handoffs are not demand. lent reports
// a disk body, read into the shard's buffer (readDisk).
func (sh *shard) bodyOf(doc core.DocID) (body []byte, ver uint64, lent, ok bool) {
	if body, ver, ok = sh.s.cache.Peek(doc); ok {
		return body, ver, false, true
	}
	body, ver, ok = sh.readDisk(doc, false)
	return body, ver, ok, ok
}

// copyVersion reports the version of the copy either tier holds, without
// reading a body or touching recency.
func (s *Server) copyVersion(doc core.DocID) (uint64, bool) {
	if ver, ok := s.cache.Version(doc); ok {
		return ver, true
	}
	if s.disk == nil {
		return 0, false
	}
	return s.disk.Version(doc)
}

// diskWriteThrough spills an admitted body to the disk tier at admit time
// rather than evict time: the eviction callback carries no body, and
// writing now makes the copy SIGKILL-safe from the moment duty is
// accepted for it. A version's body never changes, so a repeat
// write-through at the resident version costs a recency touch, not I/O; a
// newer version replaces the resident file. A document the disk tier
// displaces to make room — and which memory no longer holds — gets the
// same owner-side teardown a memory eviction runs.
func (sh *shard) diskWriteThrough(doc core.DocID, body []byte, ver uint64) {
	s := sh.s
	if s.disk == nil {
		return
	}
	evs, _ := s.disk.PutVersion(doc, body, ver)
	for _, ev := range evs {
		if s.cache.Contains(ev.Doc) {
			continue // memory still holds it: the document stays admitted
		}
		owner := s.shardFor(ev.Doc)
		owner.killPub(ev.Doc)
		if owner == sh {
			sh.dropEvicted(ev.Doc)
		} else {
			owner.postEvicted(ev.Doc)
		}
	}
}

// journalAdmit records that this node now holds the document (either
// tier). The admitted bit doubles as the dedupe: one admit record per
// admission lifecycle, however many delegate frames re-send the body.
func (sh *shard) journalAdmit(st *docState) {
	j := sh.s.journal
	if j == nil || st.admitted && st.jTarget == st.target {
		return
	}
	_ = j.Append(diskstore.OpAdmit, st.doc, st.target)
	st.admitted, st.jTarget = true, st.target
}

// journalDrop records that no tier holds the document anymore.
func (sh *shard) journalDrop(st *docState) {
	if sh.s.journal == nil || !st.admitted {
		return // never journaled as admitted (e.g. pinned origin copy)
	}
	_ = sh.s.journal.Append(diskstore.OpDrop, st.doc, 0)
	// A later re-admission journals its target afresh.
	st.admitted, st.jTarget = false, 0
}

// journalTick runs on the shard's maintenance tick: append a target
// record for every admitted document whose duty moved since the last
// tick (addTarget and dropDuty note them in jMoved), then push pending
// records toward stable storage (rate-limited inside MaybeSync).
func (sh *shard) journalTick() {
	j := sh.s.journal
	if j == nil {
		return
	}
	const eps = 1e-6
	for _, st := range sh.jMoved {
		// A target shed or delegated away in full journals its zero.
		if !st.admitted || st.target-st.jTarget < eps && st.jTarget-st.target < eps {
			continue
		}
		_ = j.Append(diskstore.OpTarget, st.doc, st.target)
		st.jTarget = st.target
	}
	sh.jMoved = sh.jMoved[:0]
	j.MaybeSync(sh.now)
}
