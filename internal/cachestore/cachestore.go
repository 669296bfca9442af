// Package cachestore provides the capacity-bounded document store behind a
// live WebWave cache server. The paper assumes unlimited storage; real
// deployments are byte-budgeted, and *which* copies survive under memory
// pressure decides how well the wave balances load once the hot set is
// wider than the aggregate cache. The store is sharded (lock striping for
// concurrent callers), enforces a byte budget incrementally (no O(n)
// recomputation at scrape time), and supports three replacement policies:
//
//   - LRU evicts the least-recently-used document — the classic baseline.
//   - Heat evicts the lowest request-rate-per-byte document, using a
//     caller-supplied heat source (the server wires in its sliding rate
//     windows) — the WebWave-native policy: the wave recedes from copies
//     demand no longer flows through.
//   - GDSF (Greedy-Dual-Size-Frequency) evicts the lowest
//     clock+frequency/size priority with inflation-clock aging — the
//     cost-aware CDN standard.
//
// Entries can be pinned: a home server pins the documents it publishes so
// origin copies are immune to eviction regardless of pressure.
//
// A body that is already safe elsewhere (the server's disk tier) is Offered
// rather than Put: when it would have to evict, its victims are the coldest
// residents per byte whatever the policy, and it is admitted only if its
// heat per byte is strictly above theirs, so a store in front of a slower
// tier holds the hottest part of the working set instead of whatever was
// read last.
//
// Victim selection is deterministic (recency-list scan with strict-less
// comparison, ties resolved toward the LRU end), so single-goroutine
// callers — the server main loop, the fast-forward benchmark replayers —
// get byte-identical behavior run over run.
package cachestore

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"webwave/internal/core"
)

// Policy names a replacement policy.
type Policy string

// Replacement policies.
const (
	// LRU evicts the least-recently-used unpinned document.
	LRU Policy = "lru"
	// Heat evicts the unpinned document with the lowest request rate per
	// byte, per the configured HeatOf source.
	Heat Policy = "heat"
	// GDSF evicts by Greedy-Dual-Size-Frequency priority
	// (clock + hits/size), aging the shard clock to each victim's priority.
	GDSF Policy = "gdsf"
)

// ParsePolicy converts a flag/spec string to a Policy ("" means LRU).
func ParsePolicy(s string) (Policy, error) {
	switch Policy(s) {
	case "", LRU:
		return LRU, nil
	case Heat:
		return Heat, nil
	case GDSF:
		return GDSF, nil
	default:
		return "", fmt.Errorf("cachestore: unknown policy %q (want lru, heat or gdsf)", s)
	}
}

// Config parameterizes a Store.
type Config struct {
	// BudgetBytes bounds the total bytes of cached bodies; 0 = unlimited.
	// The budget is split evenly across shards, so a single body larger
	// than BudgetBytes/Shards is rejected rather than cached.
	BudgetBytes int64
	// Shards is the number of lock-striped segments; default 8.
	Shards int
	// Policy selects the replacement policy; default LRU.
	Policy Policy
	// HeatOf reports a document's current request rate (req/s) for the
	// Heat policy and, under every policy, for Offer's victims and
	// admission test. It is called during Put with a shard lock held; callers
	// sharing the store across goroutines must supply a thread-safe
	// implementation (the live server feeds it from atomic per-shard
	// snapshots rather than loop-owned state). nil reads as zero heat
	// (Heat degrades toward FIFO with LRU tie-breaking). Offer trusts the
	// heat it last read for resident documents until HeatChanged is called.
	HeatOf func(core.DocID) float64
	// ShardOf optionally supplies each document's stripe (taken modulo
	// Shards); nil uses the internal FNV hash. A caller that partitions its
	// own per-document state — the server's doc-sharded event loops — can
	// align the store's striping with that partition, so a Put's evictions
	// fall in the caller's own partition (victim locality) whenever the
	// stripe counts match.
	ShardOf func(core.DocID) uint32
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.Policy == "" {
		c.Policy = LRU
	}
	return c
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

// entry is one cached document, linked into its shard's recency list.
type entry struct {
	doc        core.DocID
	body       []byte
	prev, next *entry
	pinned     bool
	doomed     bool    // picked by plan: victim passes over it
	version    uint64  // document version of this copy (0 = never republished)
	hits       int64   // Get count since insert (GDSF frequency)
	pri        float64 // GDSF priority at last touch
}

// shard is one lock-striped segment.
type shard struct {
	mu      sync.Mutex
	entries map[core.DocID]*entry
	head    *entry // most recently used
	tail    *entry // least recently used
	bytes   int64
	clock   float64  // GDSF inflation clock
	planned []*entry // plan's scratch, reused under mu

	// The coldest evictable heat per byte the last gated plan found, valid
	// while floorOK and the heat generation is still floorGen: an offer of
	// at most floorSize bytes and no hotter than floor is refused without
	// a scan. Any insert or refresh clears floorOK; a Delete can only raise
	// the true floor, so it leaves it.
	floor     float64
	floorGen  uint64
	floorSize int64
	floorOK   bool
}

// Store is a sharded, byte-budgeted document cache. Safe for concurrent
// use (subject to the HeatOf caveat in Config).
type Store struct {
	cfg         Config
	shardBudget int64
	shards      []shard

	bytes    atomic.Int64 // maintained incrementally on every mutation
	maxBytes atomic.Int64 // high-water mark of bytes

	hits, misses           atomic.Int64
	evictions, evictedByte atomic.Int64
	rejected               atomic.Int64
	heatGen                atomic.Uint64 // bumped by HeatChanged
}

// New builds a Store from cfg.
func New(cfg Config) *Store {
	cfg = cfg.withDefaults()
	s := &Store{cfg: cfg, shards: make([]shard, cfg.Shards)}
	if cfg.BudgetBytes > 0 {
		// Floor so the shard budgets never sum above the configured budget:
		// the total-bytes invariant is strict. A budget smaller than the
		// shard count still gets 1 byte per shard rather than unlimited.
		s.shardBudget = cfg.BudgetBytes / int64(cfg.Shards)
		if s.shardBudget < 1 {
			s.shardBudget = 1
		}
	}
	for i := range s.shards {
		s.shards[i].entries = make(map[core.DocID]*entry, 16)
	}
	return s
}

// Policy returns the configured replacement policy.
func (s *Store) Policy() Policy { return s.cfg.Policy }

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

// Get returns the cached body and touches the entry (recency, frequency,
// GDSF priority). The returned slice is the stored body; callers must
// treat it as immutable.
func (s *Store) Get(doc core.DocID) ([]byte, bool) {
	sh := s.shardFor(doc)
	sh.mu.Lock()
	e, ok := sh.entries[doc]
	if !ok {
		sh.mu.Unlock()
		s.misses.Add(1)
		return nil, false
	}
	sh.touch(e)
	body := e.body
	sh.mu.Unlock()
	s.hits.Add(1)
	return body, true
}

// Peek returns the cached body and its version without touching recency
// or frequency — for reads that should not look like demand (e.g. handing
// a copy to a delegation message).
func (s *Store) Peek(doc core.DocID) ([]byte, uint64, bool) {
	sh := s.shardFor(doc)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.entries[doc]; ok {
		return e.body, e.version, true
	}
	return nil, 0, false
}

// Contains reports presence without touching recency.
func (s *Store) Contains(doc core.DocID) bool {
	sh := s.shardFor(doc)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.entries[doc]
	return ok
}

// Put inserts or refreshes a document and returns any entries evicted to
// make room. ok is false when the body cannot fit (larger than a shard's
// budget, or everything else in the shard is pinned) — the document is NOT
// cached in that case and the caller must not install admission state for
// it. The entry just inserted is never its own victim.
func (s *Store) Put(doc core.DocID, body []byte) (evicted []Eviction, ok bool) {
	evicted, ok, _ = s.put(doc, body, 0, 0)
	return evicted, ok
}

// PutVersion is Put for a specific document version: the copy is stored
// with the given version number, refusing downgrades — a Put carrying a
// version below an existing copy's is dropped (ok=false, nothing evicted),
// so a delayed delegation can never roll a republished document back.
func (s *Store) PutVersion(doc core.DocID, body []byte, version uint64) (evicted []Eviction, ok bool) {
	evicted, ok, _ = s.put(doc, body, version, modeVersion)
	return evicted, ok
}

// Offer is PutVersion for a body that is already safe elsewhere (the
// server's disk tier), so the store may decline it. An offer that needs no
// eviction — free room, an unlimited budget, a refresh of a resident copy —
// is exactly PutVersion, and so is every offer when HeatOf is nil. One that
// would have to evict picks its victims by heat per byte, coldest first,
// under every policy — the policy's own victim (least recent, fewest hits)
// can be a hot copy the fast path serves without touching the store, and
// comparing against it would keep stale copies resident. The offer is
// refused, evicting nothing, unless the document's HeatOf per byte is
// strictly above every victim's; the test and the insert happen under one
// shard lock. refused reports that refusal (ok is then false). It is not
// counted in Stats: Rejected keeps meaning "cannot fit".
func (s *Store) Offer(doc core.DocID, body []byte, version uint64) (evicted []Eviction, ok, refused bool) {
	return s.put(doc, body, version, modeVersion|modeGate)
}

// HeatChanged tells the store that HeatOf may now answer differently for
// resident documents. Most offers are refused, and each refusal would
// otherwise rescan the shard's heat; instead a shard remembers its coldest
// resident's heat and refuses an offer no hotter than that until the next
// HeatChanged or a change to the shard's entries. A caller whose HeatOf
// moves without calling HeatChanged has offers judged against stale heat.
func (s *Store) HeatChanged() { s.heatGen.Add(1) }

// Pin inserts a document immune to eviction — the home server's published
// originals. Pinned entries count toward Bytes but are exempt from the
// budget check: origin copies must exist for the protocol to be correct.
func (s *Store) Pin(doc core.DocID, body []byte) {
	s.put(doc, body, 0, modePin)
}

// PinVersion pins a specific version of a document — the origin's copy
// after a republish. Downgrades are refused as in PutVersion.
func (s *Store) PinVersion(doc core.DocID, body []byte, version uint64) bool {
	_, ok, _ := s.put(doc, body, version, modePin|modeVersion)
	return ok
}

// Version reports the version of the cached copy, without touching
// recency. ok is false when the document is not cached.
func (s *Store) Version(doc core.DocID) (uint64, bool) {
	sh := s.shardFor(doc)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.entries[doc]; ok {
		return e.version, true
	}
	return 0, false
}

// GetVersion is Get plus the copy's version number.
func (s *Store) GetVersion(doc core.DocID) ([]byte, uint64, bool) {
	sh := s.shardFor(doc)
	sh.mu.Lock()
	e, ok := sh.entries[doc]
	if !ok {
		sh.mu.Unlock()
		s.misses.Add(1)
		return nil, 0, false
	}
	sh.touch(e)
	body, ver := e.body, e.version
	sh.mu.Unlock()
	s.hits.Add(1)
	return body, ver, true
}

// putMode selects what put does beyond a plain insert or refresh.
type putMode uint8

const (
	modePin     putMode = 1 << iota // budget-exempt and never a victim
	modeVersion                     // set the copy's version, refusing downgrades
	modeGate                        // Offer: an insert must be hotter than its victims
)

// put inserts or refreshes doc. With modeVersion the entry's version is set
// (downgrades refused); without it a refresh keeps the existing version, so
// unversioned callers cannot regress a versioned copy. Room is planned
// before anything is evicted: a put that cannot fit, or an offer refused by
// the gate (refused), leaves the shard exactly as it was.
func (s *Store) put(doc core.DocID, body []byte, version uint64, mode putMode) (evs []Eviction, ok, refused bool) {
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

	if found {
		if mode&modeVersion != 0 && version < e.version {
			return nil, false, false
		}
		delta := int64(len(body) - len(e.body))
		if !pin && !e.pinned && s.shardBudget > 0 && delta > 0 && sh.bytes+delta > s.shardBudget {
			// A refresh that would burst the budget evicts around itself; it
			// is never gated, the copy is already resident.
			plan, fits := sh.plan(s, delta, e, s.cfg.Policy)
			if !fits {
				sh.release()
				s.rejected.Add(1)
				return nil, false, false
			}
			evs = sh.evict(s, plan)
		}
		sh.floorOK = false
		e.body = body
		e.pinned = e.pinned || pin
		if mode&modeVersion != 0 {
			e.version = version
		}
		sh.bytes += delta
		sh.touch(e)
		s.addBytes(delta)
		return evs, true, false
	}

	size := int64(len(body))
	// GDSF prices the insert before its own evictions age the clock.
	pri := sh.clock + 1/max1(float64(len(body)))
	if !pin && s.shardBudget > 0 && sh.bytes+size > s.shardBudget {
		gated := mode&modeGate != 0 && s.cfg.HeatOf != nil
		rank := s.cfg.Policy
		var gen uint64
		var score float64
		if gated {
			rank = Heat
			gen, score = s.heatGen.Load(), s.heatPerByte(doc, len(body))
			if sh.floorOK && sh.floorGen == gen && size <= sh.floorSize && score <= sh.floor {
				return nil, false, true
			}
		}
		plan, fits := sh.plan(s, size, nil, rank)
		if !fits {
			// Even every evictable entry would not make room (pinned bytes
			// crowd the shard): refuse the insert.
			sh.release()
			s.rejected.Add(1)
			return nil, false, false
		}
		if gated {
			// plan[0] is the coldest evictable entry.
			sh.floor, sh.floorGen, sh.floorSize, sh.floorOK = s.heatPerByte(plan[0].doc, len(plan[0].body)), gen, size, true
			if !s.colder(plan, score) {
				sh.release()
				return nil, false, true
			}
		}
		evs = sh.evict(s, plan)
	}
	sh.floorOK = false
	e = &entry{doc: doc, body: body, pinned: pin, version: version, pri: pri}
	sh.entries[doc] = e
	sh.pushFront(e)
	sh.bytes += size
	s.addBytes(size)
	return evs, true, false
}

// plan picks, in rank's eviction order, the unpinned entries (never keep)
// whose removal lets need more bytes fit under the shard budget, and
// reports whether they do. Nothing leaves yet: each pick is marked so victim
// moves on to the next, until evict carries the plan out or release drops it.
func (sh *shard) plan(s *Store, need int64, keep *entry, rank Policy) (plan []*entry, fits bool) {
	plan = sh.planned[:0]
	free := s.shardBudget - sh.bytes
	for free < need {
		v := sh.victim(s, keep, rank)
		if v == nil {
			break
		}
		v.doomed = true
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
		sh.unlink(v)
		delete(sh.entries, v.doc)
		sh.bytes -= size
		if s.cfg.Policy == GDSF {
			// Dual aging: future inserts compete against the pressure level
			// at which this victim fell out. An Offer's victim, picked by
			// heat, can sit above an entry a later Put evicts, so the clock
			// only ever rises.
			sh.clock = max(sh.clock, v.pri)
		}
		evs = append(evs, Eviction{Doc: v.doc, Bytes: int(size)})
		s.bytes.Add(-size)
		s.evictions.Add(1)
		s.evictedByte.Add(size)
	}
	clear(plan) // the scratch must not keep evicted entries alive
	return evs
}

// release drops a plan that is not carried out.
func (sh *shard) release() {
	for _, v := range sh.planned {
		v.doomed = false
	}
	clear(sh.planned)
}

// victim picks the next entry to evict under rank (the configured policy,
// or Heat for an Offer), deterministically: the recency list is scanned
// from the LRU end with a strict-less comparison, so ties resolve toward
// least recently used.
func (sh *shard) victim(s *Store, keep *entry, rank Policy) *entry {
	switch rank {
	case Heat:
		var best *entry
		bestScore := 0.0
		for e := sh.tail; e != nil; e = e.prev {
			if e.pinned || e.doomed || e == keep {
				continue
			}
			score := s.heatPerByte(e.doc, len(e.body))
			if best == nil || score < bestScore {
				best, bestScore = e, score
			}
		}
		return best
	case GDSF:
		var best *entry
		bestPri := 0.0
		for e := sh.tail; e != nil; e = e.prev {
			if e.pinned || e.doomed || e == keep {
				continue
			}
			if best == nil || e.pri < bestPri {
				best, bestPri = e, e.pri
			}
		}
		return best
	default: // LRU
		for e := sh.tail; e != nil; e = e.prev {
			if !e.pinned && !e.doomed && e != keep {
				return e
			}
		}
		return nil
	}
}

// heatPerByte is a document's HeatOf per body byte (zero without a heat
// source): the Heat policy's rank and Offer's admission test.
func (s *Store) heatPerByte(doc core.DocID, size int) float64 {
	if s.cfg.HeatOf == nil {
		return 0
	}
	return s.cfg.HeatOf(doc) / max1(float64(size))
}

// colder reports whether every victim of a plan is strictly colder per
// byte than score.
func (s *Store) colder(plan []*entry, score float64) bool {
	for _, v := range plan {
		if s.heatPerByte(v.doc, len(v.body)) >= score {
			return false
		}
	}
	return true
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
	sh.unlink(e)
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

// ForEach visits every cached document (shards in index order, each shard
// from most to least recently used) until fn returns false. fn must not
// call back into the store.
func (s *Store) ForEach(fn func(doc core.DocID, size int) bool) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for e := sh.head; e != nil; e = e.next {
			if !fn(e.doc, len(e.body)) {
				sh.mu.Unlock()
				return
			}
		}
		sh.mu.Unlock()
	}
}

// Docs returns the cached ids in ForEach order.
func (s *Store) Docs() []core.DocID {
	out := make([]core.DocID, 0, 16)
	s.ForEach(func(d core.DocID, _ int) bool {
		out = append(out, d)
		return true
	})
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

// touch marks an entry used: recency front, frequency bump, GDSF priority
// refresh.
func (sh *shard) touch(e *entry) {
	e.hits++
	e.pri = sh.clock + float64(1+e.hits)/max1(float64(len(e.body)))
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}

func (sh *shard) pushFront(e *entry) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *shard) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func max1(x float64) float64 {
	if x < 1 {
		return 1
	}
	return x
}
