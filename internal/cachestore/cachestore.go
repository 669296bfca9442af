// Package cachestore provides the capacity-bounded document store behind a
// live WebWave cache server. The paper assumes unlimited storage; real
// deployments are byte-budgeted, and *which* copies survive under memory
// pressure decides how well the wave balances load once the hot set is
// wider than the aggregate cache. The store is sharded (lock striping for
// concurrent callers) and enforces a byte budget incrementally (no O(n)
// recomputation at scrape time).
//
// It has one replacement rule. In the paper a node holds a copy because the
// copy carries serve duty on the routing tree, so each copy carries a rank —
// the duty it serves, in req/s — that its owner pushes in: with every ranked
// insert (PutVersion, Offer) and through SetRank whenever the duty moves.
// A budgeted shard keeps its unpinned copies in a min-heap on rank per body
// byte, and the copy at the top is the next victim; ties go to the copy
// that has held its rank longest. Reads do not reorder anything. An
// unbudgeted store keeps no order at all.
//
// Entries can be pinned: a home server pins the documents it publishes so
// origin copies are immune to eviction regardless of pressure.
//
// A body that is already safe elsewhere (the server's disk tier) is Offered
// rather than Put: when it would have to evict, it is admitted only if its
// rank per byte is strictly above every victim's, so a store in front of a
// slower tier holds the part of the working set that carries the most duty
// instead of whatever was read last.
//
// Victim selection is deterministic (a total order on rank per byte and the
// time the rank was set), so single-goroutine callers — the server main
// loop, the fast-forward benchmark replayers — get byte-identical behavior
// run over run.
package cachestore

import (
	"bytes"
	"container/heap"
	"hash/fnv"
	"slices"
	"sync"
	"sync/atomic"

	"webwave/internal/core"
)

// Config parameterizes a Store.
type Config struct {
	// BudgetBytes bounds the total bytes of cached bodies; 0 = unlimited.
	// The budget is split evenly across shards, so a single body larger
	// than BudgetBytes/Shards is rejected rather than cached.
	BudgetBytes int64
	// Shards is the number of lock-striped segments; default 8.
	Shards int
	// ShardOf optionally supplies each document's stripe (taken modulo
	// Shards); nil uses the internal FNV hash. A caller that partitions its
	// own per-document state — the server's doc-sharded event loops — can
	// align the store's striping with that partition, so a Put's evictions
	// fall in the caller's own partition (victim locality) whenever the
	// stripe counts match.
	ShardOf func(core.DocID) uint32
}

// Eviction records one document displaced by a Put.
type Eviction struct {
	Doc   core.DocID
	Bytes int
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Hits         int64 // Get found the document
	Misses       int64 // Get did not
	Evictions    int64 // documents displaced by budget pressure
	EvictedBytes int64 // bytes those documents held
	Rejected     int64 // Puts refused (body larger than a shard budget)
}

// entry is one cached document.
type entry struct {
	doc     core.DocID
	body    []byte
	version uint64  // document version of this copy (0 = never republished)
	pinned  bool    // budget-exempt and never a victim
	rank    float64 // the serve duty its owner last pushed
	perByte float64 // rank per body byte: the eviction order
	since   uint64  // when rank was last set: ties evict the smaller
	slot    int     // index in the shard's order, -1 when not in it
}

// shard is one lock-striped segment.
type shard struct {
	mu      sync.Mutex
	entries map[core.DocID]*entry
	order   order // the unpinned entries of a budgeted store, coldest first
	clock   uint64
	bytes   int64
	planned []*entry // plan's scratch, reused under mu
}

// Store is a sharded, byte-budgeted document cache. Safe for concurrent
// use.
type Store struct {
	cfg         Config
	shardBudget int64
	shards      []shard

	bytes    atomic.Int64 // maintained incrementally on every mutation
	maxBytes atomic.Int64 // high-water mark of bytes

	hits, misses           atomic.Int64
	evictions, evictedByte atomic.Int64
	rejected               atomic.Int64
}

// New builds a Store from cfg.
func New(cfg Config) *Store {
	if cfg.Shards <= 0 {
		cfg.Shards = 8
	}
	s := &Store{cfg: cfg, shards: make([]shard, cfg.Shards)}
	if cfg.BudgetBytes > 0 {
		// Floor so the shard budgets never sum above the configured budget:
		// the total-bytes invariant is strict. A budget smaller than the
		// shard count still gets 1 byte per shard rather than unlimited.
		s.shardBudget = max(cfg.BudgetBytes/int64(cfg.Shards), 1)
	}
	for i := range s.shards {
		s.shards[i].entries = make(map[core.DocID]*entry, 16)
	}
	return s
}

// BudgetBytes returns the configured byte budget (0 = unlimited).
func (s *Store) BudgetBytes() int64 { return s.cfg.BudgetBytes }

func (s *Store) shardFor(doc core.DocID) *shard {
	if len(s.shards) == 1 {
		return &s.shards[0]
	}
	if s.cfg.ShardOf != nil {
		return &s.shards[s.cfg.ShardOf(doc)%uint32(len(s.shards))]
	}
	h := fnv.New32a()
	h.Write([]byte(doc))
	return &s.shards[h.Sum32()%uint32(len(s.shards))]
}

// Get returns the cached body. The returned slice is the stored body;
// callers must treat it as immutable.
func (s *Store) Get(doc core.DocID) ([]byte, bool) {
	body, _, ok := s.GetVersion(doc)
	return body, ok
}

// GetVersion is Get plus the copy's version number.
func (s *Store) GetVersion(doc core.DocID) ([]byte, uint64, bool) {
	body, ver, ok := s.Peek(doc)
	if !ok {
		s.misses.Add(1)
		return nil, 0, false
	}
	s.hits.Add(1)
	return body, ver, true
}

// Peek returns the cached body and its version without counting a hit or a
// miss — for reads that are not demand (e.g. handing a copy to a delegation
// message).
func (s *Store) Peek(doc core.DocID) ([]byte, uint64, bool) {
	sh := s.shardFor(doc)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.entries[doc]; ok {
		return e.body, e.version, true
	}
	return nil, 0, false
}

// Contains reports presence.
func (s *Store) Contains(doc core.DocID) bool {
	_, _, ok := s.Peek(doc)
	return ok
}

// Version reports the version of the cached copy. ok is false when the
// document is not cached.
func (s *Store) Version(doc core.DocID) (uint64, bool) {
	_, ver, ok := s.Peek(doc)
	return ver, ok
}

// Put inserts or refreshes a document at rank 0 and returns any entries
// evicted to make room. ok is false when the body cannot fit (larger than a
// shard's budget, or everything else in the shard is pinned) — the
// document is NOT cached in that case and the caller must not install
// admission state for it. The entry just inserted is never its own victim.
// A refresh keeps the copy's version.
func (s *Store) Put(doc core.DocID, body []byte) (evicted []Eviction, ok bool) {
	evicted, ok, _ = s.put(doc, body, 0, 0, 0)
	return evicted, ok
}

// PutVersion is Put for a specific document version, ranked by the serve
// duty the copy carries: the copy is stored with the given version number,
// refusing downgrades — a Put carrying a version below an existing copy's
// is dropped (ok=false, nothing evicted), so a delayed delegation can never
// roll a republished document back.
func (s *Store) PutVersion(doc core.DocID, body []byte, version uint64, rank float64) (evicted []Eviction, ok bool) {
	evicted, ok, _ = s.put(doc, body, version, rank, modeVersion)
	return evicted, ok
}

// Offer is PutVersion for a body that is already safe elsewhere (the
// server's disk tier), so the store may decline it. An offer that needs no
// eviction — free room, an unlimited budget, a refresh of a resident copy —
// is exactly PutVersion. One that would have to evict is refused, evicting
// nothing, unless its rank per byte is strictly above every victim's; the
// test and the insert happen under one shard lock. refused reports that
// refusal (ok is then false). It is not counted in Stats: Rejected keeps
// meaning "cannot fit".
//
// The body is lent, not handed over: the caller may overwrite it once
// Offer returns. A stored offer keeps its own copy, made only then (Peek
// returns it); an offer that stores nothing copies nothing.
func (s *Store) Offer(doc core.DocID, body []byte, version uint64, rank float64) (evicted []Eviction, ok, refused bool) {
	return s.put(doc, body, version, rank, modeVersion|modeGate)
}

// SetRank moves a resident copy's rank — its owner's push when the duty the
// copy carries changes. A rank equal to the current one leaves the copy's
// place among its ties. No-op for absent or pinned documents, and free on
// an unbudgeted store, which keeps no order.
func (s *Store) SetRank(doc core.DocID, rank float64) {
	if s.shardBudget == 0 {
		return
	}
	sh := s.shardFor(doc)
	sh.mu.Lock()
	if e, ok := sh.entries[doc]; ok && e.slot >= 0 && e.rank != rank {
		sh.rerank(e, rank)
		heap.Fix(&sh.order, e.slot)
	}
	sh.mu.Unlock()
}

// Pin inserts a document immune to eviction — the home server's published
// originals. Pinned entries count toward Bytes but are exempt from the
// budget check: origin copies must exist for the protocol to be correct.
func (s *Store) Pin(doc core.DocID, body []byte) {
	s.put(doc, body, 0, 0, modePin)
}

// PinVersion pins a specific version of a document — the origin's copy
// after a republish. Downgrades are refused as in PutVersion.
func (s *Store) PinVersion(doc core.DocID, body []byte, version uint64) bool {
	_, ok, _ := s.put(doc, body, version, 0, modePin|modeVersion)
	return ok
}

// putMode selects what put does beyond a plain insert or refresh.
type putMode uint8

const (
	modePin     putMode = 1 << iota // budget-exempt and never a victim
	modeVersion                     // set the copy's version, refusing downgrades
	modeGate                        // Offer: an insert must outrank its victims; the body is lent
)

// put inserts or refreshes doc at rank. With modeVersion the entry's
// version is set (downgrades refused); without it a refresh keeps the
// existing version, so unversioned callers cannot regress a versioned copy.
// Room is planned before anything is evicted: a put that cannot fit, or an
// offer refused by the gate (refused), leaves the shard exactly as it was.
func (s *Store) put(doc core.DocID, body []byte, version uint64, rank float64, mode putMode) (evs []Eviction, ok, refused bool) {
	pin := mode&modePin != 0
	sh := s.shardFor(doc)
	sh.mu.Lock()
	defer sh.mu.Unlock()

	e, found := sh.entries[doc]
	// A body that can never fit is rejected before any eviction work, on
	// the refresh path too.
	if !pin && s.shardBudget > 0 && int64(len(body)) > s.shardBudget && !(found && e.pinned) {
		s.rejected.Add(1)
		return nil, false, false
	}

	need := int64(len(body))
	if found {
		if mode&modeVersion != 0 && version < e.version {
			return nil, false, false
		}
		need -= int64(len(e.body))
		if e.slot >= 0 {
			// Out of the order while it changes: never its own victim.
			heap.Remove(&sh.order, e.slot)
		}
		pin = pin || e.pinned
	}
	if !pin && s.shardBudget > 0 && need > 0 && sh.bytes+need > s.shardBudget {
		plan, fits := sh.plan(s, need)
		// A refresh is never gated: the copy is already resident.
		if !fits || !found && mode&modeGate != 0 && plan[len(plan)-1].perByte >= rank/max1(len(body)) {
			sh.release()
			if found {
				heap.Push(&sh.order, e)
			}
			if !fits {
				// Even every evictable entry would not make room (pinned
				// bytes crowd the shard): refuse the insert.
				s.rejected.Add(1)
				return nil, false, false
			}
			return nil, false, true
		}
		evs = sh.evict(s, plan)
	}
	if !found {
		e = &entry{doc: doc, slot: -1}
		sh.entries[doc] = e
	}
	if mode&modeGate != 0 {
		body = bytes.Clone(body) // Offer's body is lent
	}
	e.body, e.pinned = body, pin
	if mode&modeVersion != 0 {
		e.version = version
	}
	sh.bytes += need
	s.addBytes(need)
	if !pin && s.shardBudget > 0 {
		sh.rerank(e, rank)
		heap.Push(&sh.order, e)
	}
	return evs, true, false
}

// rerank sets e's rank and recomputes its place for its body; a new rank,
// or a new entry, is stamped now. The caller restores the order.
func (sh *shard) rerank(e *entry, rank float64) {
	if e.since == 0 || e.rank != rank {
		sh.clock++
		e.since = sh.clock
	}
	e.rank, e.perByte = rank, rank/max1(len(e.body))
}

// plan takes, coldest first, the entries whose removal lets need more
// bytes fit under the shard budget out of the order, and reports whether
// they do. Nothing leaves the shard yet: evict carries the plan out, or
// release puts it back.
func (sh *shard) plan(s *Store, need int64) (plan []*entry, fits bool) {
	plan = sh.planned[:0]
	free := s.shardBudget - sh.bytes
	for free < need && sh.order.Len() > 0 {
		v := heap.Pop(&sh.order).(*entry)
		plan = append(plan, v)
		free += int64(len(v.body))
	}
	sh.planned = plan
	return plan, free >= need
}

// evict removes a plan's victims, in order.
func (sh *shard) evict(s *Store, plan []*entry) []Eviction {
	evs := make([]Eviction, 0, len(plan))
	for _, v := range plan {
		size := int64(len(v.body))
		delete(sh.entries, v.doc)
		sh.bytes -= size
		evs = append(evs, Eviction{Doc: v.doc, Bytes: int(size)})
		s.bytes.Add(-size)
		s.evictions.Add(1)
		s.evictedByte.Add(size)
	}
	clear(plan) // the scratch must not keep evicted entries alive
	return evs
}

// release puts back a plan that is not carried out.
func (sh *shard) release() {
	for _, v := range sh.planned {
		heap.Push(&sh.order, v)
	}
	clear(sh.planned)
}

// Delete removes a document (pinned or not) and returns whether it was
// present.
func (s *Store) Delete(doc core.DocID) bool {
	sh := s.shardFor(doc)
	sh.mu.Lock()
	e, ok := sh.entries[doc]
	if !ok {
		sh.mu.Unlock()
		return false
	}
	size := int64(len(e.body))
	if e.slot >= 0 {
		heap.Remove(&sh.order, e.slot)
	}
	delete(sh.entries, doc)
	sh.bytes -= size
	sh.mu.Unlock()
	s.bytes.Add(-size)
	return true
}

// Len returns the number of cached documents.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// Bytes returns the bytes currently held, maintained incrementally.
func (s *Store) Bytes() int64 { return s.bytes.Load() }

// MaxBytes returns the high-water mark Bytes has reached.
func (s *Store) MaxBytes() int64 { return s.maxBytes.Load() }

// Stats returns a counter snapshot.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:         s.hits.Load(),
		Misses:       s.misses.Load(),
		Evictions:    s.evictions.Load(),
		EvictedBytes: s.evictedByte.Load(),
		Rejected:     s.rejected.Load(),
	}
}

// Docs returns the cached ids, sorted.
func (s *Store) Docs() []core.DocID {
	out := make([]core.DocID, 0, 16)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for d := range sh.entries {
			out = append(out, d)
		}
		sh.mu.Unlock()
	}
	slices.Sort(out)
	return out
}

func (s *Store) addBytes(delta int64) {
	if delta == 0 {
		return
	}
	b := s.bytes.Add(delta)
	for {
		m := s.maxBytes.Load()
		if b <= m || s.maxBytes.CompareAndSwap(m, b) {
			return
		}
	}
}

// order is a shard's eviction order, a container/heap min-heap on
// (perByte, since) that keeps each entry's slot current.
type order []*entry

func (o order) Len() int { return len(o) }
func (o order) Less(i, j int) bool {
	a, b := o[i], o[j]
	return a.perByte < b.perByte || a.perByte == b.perByte && a.since < b.since
}
func (o order) Swap(i, j int) {
	o[i], o[j] = o[j], o[i]
	o[i].slot, o[j].slot = i, j
}
func (o *order) Push(x any) {
	e := x.(*entry)
	e.slot = len(*o)
	*o = append(*o, e)
}
func (o *order) Pop() any {
	old := *o
	e := old[len(old)-1]
	old[len(old)-1] = nil
	*o = old[:len(old)-1]
	e.slot = -1
	return e
}

func max1(n int) float64 {
	return float64(max(n, 1))
}
