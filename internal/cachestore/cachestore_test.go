package cachestore

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"webwave/internal/core"
)

func body(n int) []byte { return make([]byte, n) }

// recount sums the bodies a store holds, reading each with Peek.
func recount(s *Store) int64 {
	var total int64
	for _, d := range s.Docs() {
		b, _, _ := s.Peek(d)
		total += int64(len(b))
	}
	return total
}

// readPatterns are the read histories the retired replacement policies
// ranked copies by, each played against the one rule: lru reads a copy once,
// so it is the latest read; gdsf reads it five times, so it is the most
// read; heat does not read it. Reads move nothing in the order, so a test
// run under every pattern expects the same victims from the same ranks.
var readPatterns = []struct {
	name  string
	reads int
}{{"lru", 1}, {"heat", 0}, {"gdsf", 5}}

// read gets doc n times.
func read(s *Store, doc core.DocID, n int) {
	for range n {
		s.Get(doc)
	}
}

func TestBudgetNeverExceeded(t *testing.T) {
	const budget = 1 << 12
	for _, p := range readPatterns {
		t.Run(p.name, func(t *testing.T) {
			s := New(Config{BudgetBytes: budget, Shards: 4})
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < 500; i++ {
				doc := core.DocID(fmt.Sprintf("d%03d", rng.Intn(64)))
				s.PutVersion(doc, body(64+rng.Intn(512)), 0, float64(rng.Intn(4)))
				if b := s.Bytes(); b > budget {
					t.Fatalf("op %d: bytes %d exceed budget %d", i, b, budget)
				}
				read(s, core.DocID(fmt.Sprintf("d%03d", rng.Intn(64))), p.reads)
			}
			if s.MaxBytes() > budget {
				t.Fatalf("high-water %d exceeds budget %d", s.MaxBytes(), budget)
			}
			if st := s.Stats(); st.Evictions == 0 {
				t.Fatalf("expected eviction churn, got none (stats %+v)", st)
			}
			// Incremental accounting agrees with a full recount.
			if total := recount(s); total != s.Bytes() {
				t.Fatalf("recount %d != incremental %d", total, s.Bytes())
			}
		})
	}
}

// TestUnlimitedBudget: an unbudgeted store admits everything and keeps no
// eviction order, so ranking its copies costs nothing.
func TestUnlimitedBudget(t *testing.T) {
	s := New(Config{})
	for i := 0; i < 100; i++ {
		doc := core.DocID(fmt.Sprintf("d%d", i))
		if _, ok := s.PutVersion(doc, body(1024), 0, float64(i)); !ok {
			t.Fatalf("unlimited store rejected put %d", i)
		}
		s.SetRank(doc, 1)
	}
	if s.Len() != 100 || s.Bytes() != 100*1024 {
		t.Fatalf("len=%d bytes=%d, want 100 / %d", s.Len(), s.Bytes(), 100*1024)
	}
	if st := s.Stats(); st.Evictions != 0 {
		t.Fatalf("unlimited store evicted: %+v", st)
	}
	for i := range s.shards {
		if n := s.shards[i].order.Len(); n != 0 {
			t.Fatalf("shard %d keeps an order of %d entries", i, n)
		}
	}
}

// TestTiesEvictTheLongestHeldRank: among copies of one rank per byte the
// victim is the one that has held its rank longest. Moving a rank restamps
// the copy; pushing the rank it already has does not.
func TestTiesEvictTheLongestHeldRank(t *testing.T) {
	s := New(Config{BudgetBytes: 300, Shards: 1})
	for _, d := range []core.DocID{"a", "b", "c"} {
		s.PutVersion(d, body(100), 1, 1)
	}
	s.SetRank("a", 2)
	s.SetRank("a", 1) // back to the tie, now its newest member
	s.SetRank("b", 1) // unchanged: b keeps its place
	s.Get("b")        // reads do not reorder
	for _, want := range []core.DocID{"b", "c", "a"} {
		evs, ok := s.PutVersion(core.DocID("new-"+want), body(100), 1, 5)
		if !ok || len(evs) != 1 || evs[0].Doc != want {
			t.Fatalf("want eviction of %s, got %v ok=%v", want, evs, ok)
		}
	}
}

func TestHeatEvictsColdestPerByte(t *testing.T) {
	s := New(Config{BudgetBytes: 300, Shards: 1})
	s.PutVersion("cold", body(100), 0, 100)
	s.PutVersion("hot", body(100), 0, 100)
	s.PutVersion("warm", body(100), 0, 10)
	s.SetRank("cold", 1) // the owner's push moves cold below warm
	s.Get("cold")        // a read must not keep it
	evs, ok := s.Put("new", body(100))
	if !ok || len(evs) != 1 || evs[0].Doc != "cold" {
		t.Fatalf("want eviction of cold, got %v ok=%v", evs, ok)
	}
}

func TestHeatPerByteNormalization(t *testing.T) {
	// big has 4x the rank but 8x the size of small: worse rank-per-byte.
	s := New(Config{BudgetBytes: 1000, Shards: 1})
	s.PutVersion("big", body(800), 0, 40)
	s.PutVersion("small", body(100), 0, 10)
	evs, ok := s.Put("new", body(200))
	if !ok || len(evs) != 1 || evs[0].Doc != "big" {
		t.Fatalf("want eviction of big (lowest rank/byte), got %v ok=%v", evs, ok)
	}
}

func TestPinImmunity(t *testing.T) {
	s := New(Config{BudgetBytes: 200, Shards: 1})
	s.Pin("origin", body(150))
	// Only 50 budget bytes left; a 100-byte doc cannot fit and must be
	// rejected rather than displace the pinned origin.
	evs, ok := s.Put("guest", body(100))
	if ok || len(evs) != 0 {
		t.Fatalf("put over pinned bytes: evs=%v ok=%v, want rejection", evs, ok)
	}
	if !s.Contains("origin") {
		t.Fatalf("pinned origin evicted")
	}
	if _, ok := s.Put("tiny", body(40)); !ok {
		t.Fatalf("tiny doc should fit beside the pin")
	}
	if st := s.Stats(); st.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", st.Rejected)
	}
}

func TestPinMayExceedBudget(t *testing.T) {
	s := New(Config{BudgetBytes: 100, Shards: 1})
	s.Pin("a", body(80))
	s.Pin("b", body(80))
	if s.Bytes() != 160 {
		t.Fatalf("pinned bytes = %d, want 160", s.Bytes())
	}
	if !s.Contains("a") || !s.Contains("b") {
		t.Fatalf("pins missing")
	}
}

func TestOversizeBodyRejected(t *testing.T) {
	s := New(Config{BudgetBytes: 1024, Shards: 4}) // shard budget 256
	if _, ok := s.Put("huge", body(500)); ok {
		t.Fatalf("body larger than a shard budget was accepted")
	}
	if s.Len() != 0 {
		t.Fatalf("rejected body cached anyway")
	}
}

func TestOversizePutRejectedWithoutEvicting(t *testing.T) {
	s := New(Config{BudgetBytes: 300, Shards: 1})
	s.Put("a", body(100))
	s.Put("b", body(100))
	// A new body that can never fit must be rejected up front: evicting
	// every resident first and rejecting anyway would trade the working
	// set for nothing.
	evs, ok := s.Put("huge", body(301))
	if ok || len(evs) != 0 {
		t.Fatalf("oversize put: evs=%v ok=%v, want clean rejection", evs, ok)
	}
	if !s.Contains("a") || !s.Contains("b") {
		t.Fatalf("oversize put evicted residents: a=%v b=%v", s.Contains("a"), s.Contains("b"))
	}
	if st := s.Stats(); st.Evictions != 0 || st.Rejected != 1 {
		t.Fatalf("stats after oversize put: %+v", st)
	}
}

func TestOversizeRefreshRejectedWithoutEvicting(t *testing.T) {
	s := New(Config{BudgetBytes: 300, Shards: 1})
	s.Put("a", body(100))
	s.Put("b", body(100))
	// Refreshing a to a body that can never fit must reject up front, not
	// wipe b first and reject anyway.
	evs, ok := s.Put("a", body(400))
	if ok || len(evs) != 0 {
		t.Fatalf("oversize refresh: evs=%v ok=%v, want clean rejection", evs, ok)
	}
	if !s.Contains("a") || !s.Contains("b") {
		t.Fatalf("oversize refresh evicted entries: a=%v b=%v", s.Contains("a"), s.Contains("b"))
	}
	if st := s.Stats(); st.Evictions != 0 || st.Rejected != 1 {
		t.Fatalf("stats after oversize refresh: %+v", st)
	}
}

func TestOversizePinnedRefreshAllowed(t *testing.T) {
	s := New(Config{BudgetBytes: 100, Shards: 1})
	s.Pin("origin", body(50))
	// The origin document grew past the budget: pinned copies must still
	// refresh (budget-exempt), or the home could not publish.
	if _, ok := s.Put("origin", body(400)); !ok {
		t.Fatalf("pinned refresh rejected")
	}
	if got, _, _ := s.Peek("origin"); len(got) != 400 {
		t.Fatalf("pinned body not refreshed: %d bytes", len(got))
	}
}

func TestRefreshAdjustsBytes(t *testing.T) {
	s := New(Config{BudgetBytes: 1000, Shards: 1})
	s.Put("a", body(100))
	s.Put("a", body(300))
	if s.Bytes() != 300 {
		t.Fatalf("bytes after grow = %d, want 300", s.Bytes())
	}
	s.Put("a", body(50))
	if s.Bytes() != 50 {
		t.Fatalf("bytes after shrink = %d, want 50", s.Bytes())
	}
}

func TestRefreshGrowEvictsOthers(t *testing.T) {
	s := New(Config{BudgetBytes: 300, Shards: 1})
	s.Put("a", body(100))
	s.Put("b", body(100))
	s.Put("c", body(100))
	// Growing c to 250 requires evicting a and b.
	evs, ok := s.Put("c", body(250))
	if !ok || len(evs) != 2 {
		t.Fatalf("grow refresh: evs=%v ok=%v, want 2 evictions", evs, ok)
	}
	if !s.Contains("c") || s.Bytes() != 250 {
		t.Fatalf("after grow: contains(c)=%v bytes=%d", s.Contains("c"), s.Bytes())
	}
}

func TestDelete(t *testing.T) {
	s := New(Config{BudgetBytes: 1000, Shards: 2})
	s.Put("a", body(100))
	s.Pin("p", body(100))
	if !s.Delete("a") || !s.Delete("p") || s.Delete("ghost") {
		t.Fatalf("delete results wrong")
	}
	if s.Bytes() != 0 || s.Len() != 0 {
		t.Fatalf("after deletes: bytes=%d len=%d", s.Bytes(), s.Len())
	}
}

// TestPeekDoesNotTouch: Peek counts no hit and moves nothing.
func TestPeekDoesNotTouch(t *testing.T) {
	s := New(Config{BudgetBytes: 200, Shards: 1})
	s.Put("a", body(100))
	s.Put("b", body(100))
	s.Peek("a")
	evs, ok := s.Put("c", body(100))
	if !ok || len(evs) != 1 || evs[0].Doc != "a" {
		t.Fatalf("peek changed the order: evs=%v ok=%v", evs, ok)
	}
	if st := s.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("peek counted: %+v", st)
	}
}

func TestDeterministicVictims(t *testing.T) {
	run := func() []core.DocID {
		s := New(Config{BudgetBytes: 2048, Shards: 4})
		rng := rand.New(rand.NewSource(7))
		var evictedOrder []core.DocID
		for i := 0; i < 300; i++ {
			doc := core.DocID(fmt.Sprintf("doc-%0*d", 1+rng.Intn(4), rng.Intn(40)))
			if rng.Intn(3) == 0 {
				s.SetRank(doc, float64(rng.Intn(5)))
				continue
			}
			evs, _ := s.PutVersion(doc, body(64+rng.Intn(256)), 0, float64(rng.Intn(5)))
			for _, ev := range evs {
				evictedOrder = append(evictedOrder, ev.Doc)
			}
		}
		return evictedOrder
	}
	a, b := run(), run()
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("eviction streams differ or are empty:\n%v\n%v", a, b)
	}
}

// TestConcurrentBudgetAccounting hammers one store from many goroutines —
// inserts, reads, deletes, and rank pushes into stripes other goroutines
// evict from — and verifies the incremental byte accounting and the budget
// invariant survive.
func TestConcurrentBudgetAccounting(t *testing.T) {
	const budget = 64 << 10
	s := New(Config{BudgetBytes: budget, Shards: 8})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 2000; i++ {
				doc := core.DocID(fmt.Sprintf("d%03d", rng.Intn(256)))
				switch rng.Intn(5) {
				case 0:
					s.Get(doc)
				case 1:
					s.Delete(doc)
				case 2:
					s.SetRank(doc, float64(rng.Intn(8)))
				default:
					s.PutVersion(doc, body(64+rng.Intn(1024)), 0, float64(rng.Intn(8)))
				}
			}
		}(g)
	}
	wg.Wait()
	if b := s.Bytes(); b > budget {
		t.Fatalf("bytes %d exceed budget %d after concurrent churn", b, budget)
	}
	if total := recount(s); total != s.Bytes() {
		t.Fatalf("recount %d != incremental %d", total, s.Bytes())
	}
	if s.MaxBytes() > budget {
		t.Fatalf("high-water %d exceeds budget %d", s.MaxBytes(), budget)
	}
}

// offerStore returns a one-shard store with a 300-byte budget holding a, b
// and c (100 bytes each) at the given ranks.
func offerStore(ra, rb, rc float64) *Store {
	s := New(Config{BudgetBytes: 300, Shards: 1})
	s.PutVersion("a", body(100), 1, ra)
	s.PutVersion("b", body(100), 1, rb)
	s.PutVersion("c", body(100), 1, rc)
	return s
}

// TestOfferRefusedEvictsNothing: an offer not strictly above its victim —
// colder, or tied — is refused and leaves the store as it was: residents,
// bytes, high-water mark, counters, and the victim the next insert picks.
// The candidate's heat is its rank, a resident's duty plus served rate.
func TestOfferRefusedEvictsNothing(t *testing.T) {
	for _, p := range readPatterns {
		for _, heat := range []float64{1, 5} { // colder; tied with every resident
			t.Run(fmt.Sprintf("%s/heat=%v", p.name, heat), func(t *testing.T) {
				s, twin := offerStore(5, 5, 5), offerStore(5, 5, 5)
				read(s, "a", p.reads) // a, the longest held, is the next victim
				read(twin, "a", p.reads)
				bytes, maxBytes, st := s.Bytes(), s.MaxBytes(), s.Stats()
				if evs, ok, refused := s.Offer("new", body(100), 1, heat); ok || !refused || evs != nil {
					t.Fatalf("Offer = %v ok=%v refused=%v, want refused evicting nothing", evs, ok, refused)
				}
				if s.Contains("new") || s.Len() != 3 || s.Bytes() != bytes || s.MaxBytes() != maxBytes || s.Stats() != st {
					t.Fatalf("refused offer changed the store: len %d bytes %d max %d stats %+v", s.Len(), s.Bytes(), s.MaxBytes(), s.Stats())
				}
				got, _ := s.Put("next", body(100))
				want, _ := twin.Put("next", body(100))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("after a refused offer Put evicts %v, an untouched store %v", got, want)
				}
			})
		}
	}
}

// TestOfferKeepsItsOwnCopy: an offered body is lent. A stored offer keeps
// a copy of its own, so the caller overwriting the slice afterwards changes
// nothing memory holds; a refused offer copies nothing.
func TestOfferKeepsItsOwnCopy(t *testing.T) {
	s := offerStore(5, 5, 5)
	lent := bytes.Repeat([]byte("x"), 100)
	if _, ok, _ := s.Offer("new", lent, 1, 1000); !ok {
		t.Fatal("an offer above every victim was not stored")
	}
	copy(lent, bytes.Repeat([]byte("y"), 100))
	if got, _, _ := s.Peek("new"); !bytes.Equal(got, bytes.Repeat([]byte("x"), 100)) {
		t.Fatalf("the stored offer reads %q after the caller reused its slice", got)
	}
	cold := offerStore(5, 5, 5)
	if allocs := testing.AllocsPerRun(20, func() { cold.Offer("cold", lent, 1, 1) }); allocs != 0 || cold.Contains("cold") {
		t.Fatalf("a refused offer: %v allocs, stored=%v; want 0 and not stored", allocs, cold.Contains("cold"))
	}
}

// TestOfferEvictsTheColdest: a candidate strictly above its victim evicts
// the lowest-ranked resident per byte, however recently or often it was
// read.
func TestOfferEvictsTheColdest(t *testing.T) {
	for _, p := range readPatterns {
		t.Run(p.name, func(t *testing.T) {
			s := offerStore(3, 2, 1)
			read(s, "c", p.reads)
			evs, ok, refused := s.Offer("new", body(100), 1, 4)
			if want := []Eviction{{Doc: "c", Bytes: 100}}; !ok || refused || !reflect.DeepEqual(evs, want) {
				t.Fatalf("Offer = %v ok=%v refused=%v, want admitted evicting %v", evs, ok, refused, want)
			}
		})
	}
}

// TestOfferMustBeatEveryVictim: an insert that needs two victims' room is
// admitted only when it ranks above both per byte.
func TestOfferMustBeatEveryVictim(t *testing.T) {
	s := offerStore(1, 50, 30) // per byte: 0.01, 0.5, 0.3; plan for 200 bytes: a, then c
	if evs, ok, refused := s.Offer("big", body(200), 1, 20); ok || !refused || evs != nil || s.Len() != 3 {
		t.Fatalf("Offer = %v ok=%v refused=%v len %d, want refused with a, b, c kept", evs, ok, refused, s.Len())
	}
	evs, ok, _ := s.Offer("big", body(200), 1, 70)
	if !ok || len(evs) != 2 || evs[0].Doc != "a" || evs[1].Doc != "c" || !s.Contains("b") {
		t.Fatalf("Offer = %v ok=%v, want a and c evicted, b kept", evs, ok)
	}
}

// TestOfferNeverGatesWhatNeedsNoEviction: an insert that fits and a refresh
// of a resident copy are admitted however low their rank (a growing
// refresh still evicts around itself, as PutVersion does).
func TestOfferNeverGatesWhatNeedsNoEviction(t *testing.T) {
	for _, p := range readPatterns {
		t.Run(p.name, func(t *testing.T) {
			s := New(Config{BudgetBytes: 300, Shards: 1})
			s.PutVersion("a", body(100), 1, 5)
			s.PutVersion("b", body(100), 1, 5)
			read(s, "a", p.reads)
			if _, ok, refused := s.Offer("cold", body(100), 1, 0); !ok || refused {
				t.Fatalf("an offer that fits: ok=%v refused=%v", ok, refused)
			}
			read(s, "cold", p.reads)
			if evs, ok, refused := s.Offer("cold", body(150), 2, 0); !ok || refused || len(evs) != 1 {
				t.Fatalf("a growing refresh: evs=%v ok=%v refused=%v, want one eviction", evs, ok, refused)
			}
		})
	}
}

// TestOfferNeverEvictsPinned: pinned entries are never victims, and an
// offer with only pinned bytes in its way is rejected, evicting nothing.
func TestOfferNeverEvictsPinned(t *testing.T) {
	for _, p := range readPatterns {
		t.Run(p.name, func(t *testing.T) {
			s := New(Config{BudgetBytes: 200, Shards: 1})
			s.Pin("pin", body(100))
			s.PutVersion("a", body(100), 1, 10)
			read(s, "a", p.reads)
			if evs, ok, refused := s.Offer("x", body(100), 1, 20); !ok || refused || len(evs) != 1 || evs[0].Doc != "a" {
				t.Fatalf("Offer x = %v ok=%v refused=%v, want a evicted, the pin kept", evs, ok, refused)
			}
			read(s, "x", p.reads)
			if evs, ok, refused := s.Offer("y", body(200), 1, 1000); ok || refused || evs != nil {
				t.Fatalf("Offer y = %v ok=%v refused=%v, want rejected evicting nothing", evs, ok, refused)
			}
			if !s.Contains("pin") || !s.Contains("x") || s.Stats().Rejected != 1 {
				t.Fatalf("pin %v x %v rejected %d", s.Contains("pin"), s.Contains("x"), s.Stats().Rejected)
			}
		})
	}
}

// refEntry and refStore are the oracle TestOfferFloorMatchesAFullScan
// holds the store to: the same rules over plain maps, finding each victim
// by rescanning a shard for the lowest (rank per byte, rank age).
type refEntry struct {
	size          int
	version       uint64
	pinned        bool
	rank, perByte float64
	since         uint64
}

type refStore struct {
	budget         int64 // per shard
	shardOf        func(core.DocID) uint32
	shards         []map[core.DocID]*refEntry
	bytes          []int64
	clock          uint64
	total, maxSeen int64
	stats          Stats
}

func newRefStore(cfg Config) *refStore {
	r := &refStore{budget: cfg.BudgetBytes / int64(cfg.Shards), shardOf: cfg.ShardOf, bytes: make([]int64, cfg.Shards)}
	for range cfg.Shards {
		r.shards = append(r.shards, map[core.DocID]*refEntry{})
	}
	return r
}

func (r *refStore) shard(doc core.DocID) int { return int(r.shardOf(doc) % uint32(len(r.shards))) }

func (r *refStore) rerank(e *refEntry, rank float64) {
	r.clock++
	e.rank, e.since, e.perByte = rank, r.clock, rank/max1(e.size)
}

func (r *refStore) grow(i int, delta int64) {
	r.bytes[i] += delta
	r.total += delta
	r.maxSeen = max(r.maxSeen, r.total)
}

// coldest rescans shard i for the lowest unpinned entry not in skip.
func (r *refStore) coldest(i int, skip map[core.DocID]bool) (core.DocID, *refEntry) {
	var best core.DocID
	var be *refEntry
	for d, e := range r.shards[i] {
		if e.pinned || skip[d] {
			continue
		}
		if be == nil || e.perByte < be.perByte || e.perByte == be.perByte && e.since < be.since {
			best, be = d, e
		}
	}
	return best, be
}

func (r *refStore) put(doc core.DocID, size int, version uint64, rank float64, mode putMode) (evs []Eviction, ok, refused bool) {
	i := r.shard(doc)
	e, found := r.shards[i][doc]
	pin := mode&modePin != 0
	if !pin && int64(size) > r.budget && !(found && e.pinned) {
		r.stats.Rejected++
		return nil, false, false
	}
	need := int64(size)
	if found {
		if mode&modeVersion != 0 && version < e.version {
			return nil, false, false
		}
		need -= int64(e.size)
		pin = pin || e.pinned
	}
	if !pin && need > 0 && r.bytes[i]+need > r.budget {
		skip := map[core.DocID]bool{doc: true}
		var plan []core.DocID
		free := r.budget - r.bytes[i]
		for free < need {
			d, v := r.coldest(i, skip)
			if v == nil {
				r.stats.Rejected++
				return nil, false, false
			}
			if !found && mode&modeGate != 0 && v.perByte >= rank/max1(size) {
				refused = true
			}
			skip[d] = true
			plan = append(plan, d)
			free += int64(v.size)
		}
		if refused {
			return nil, false, true
		}
		for _, d := range plan {
			v := r.shards[i][d]
			delete(r.shards[i], d)
			r.grow(i, -int64(v.size))
			r.stats.Evictions++
			r.stats.EvictedBytes += int64(v.size)
			evs = append(evs, Eviction{Doc: d, Bytes: v.size})
		}
	}
	if !found {
		e = &refEntry{}
		r.shards[i][doc] = e
	}
	e.size, e.pinned = size, pin
	if mode&modeVersion != 0 {
		e.version = version
	}
	r.grow(i, need)
	if !pin && (!found || e.rank != rank) {
		r.rerank(e, rank)
	} else if !pin {
		e.perByte = rank / max1(size)
	}
	return evs, true, false
}

func (r *refStore) setRank(doc core.DocID, rank float64) {
	if e, ok := r.shards[r.shard(doc)][doc]; ok && !e.pinned && e.rank != rank {
		r.rerank(e, rank)
	}
}

func (r *refStore) del(doc core.DocID) bool {
	i := r.shard(doc)
	e, ok := r.shards[i][doc]
	if ok {
		delete(r.shards[i], doc)
		r.grow(i, -int64(e.size))
	}
	return ok
}

func (r *refStore) get(doc core.DocID) bool {
	_, ok := r.shards[r.shard(doc)][doc]
	if ok {
		r.stats.Hits++
	} else {
		r.stats.Misses++
	}
	return ok
}

func (r *refStore) pinnedBytes() int64 {
	var n int64
	for _, m := range r.shards {
		for _, e := range m {
			if e.pinned {
				n += int64(e.size)
			}
		}
	}
	return n
}

// TestOfferFloorMatchesAFullScan: across seeded random inserts, offers,
// rank pushes, pins, deletes and reads, the store's heap finds the same floor
// under each offer — the same victims in the same order — and refuses and
// rejects the same inserts as an oracle that rescans for the lowest (rank
// per byte, rank age) on every call; bytes, high-water mark and counters
// agree, and unpinned bytes never exceed the budget. Small integer ranks
// over four body sizes make ties — equal rank per byte — common. Each read
// pattern sets how many times a read op gets its document.
func TestOfferFloorMatchesAFullScan(t *testing.T) {
	for _, p := range readPatterns {
		t.Run(p.name, func(t *testing.T) {
			cfg := Config{BudgetBytes: 1200, Shards: 2, ShardOf: func(d core.DocID) uint32 { return uint32(d[len(d)-1]) }}
			s, ref := New(cfg), newRefStore(cfg)
			rng := rand.New(rand.NewSource(5))
			var evictions, refusals int
			for i := 0; i < 20000; i++ {
				doc := core.DocID(fmt.Sprintf("d%02d", rng.Intn(40)))
				size, v, rank := 50+50*rng.Intn(4), uint64(1+rng.Intn(3)), float64(rng.Intn(8))
				var got, want []any
				switch op := rng.Intn(20); {
				case op < 8:
					evs1, ok1, r1 := s.Offer(doc, body(size), v, rank)
					evs2, ok2, r2 := ref.put(doc, size, v, rank, modeVersion|modeGate)
					got, want = []any{evs1, ok1, r1}, []any{evs2, ok2, r2}
					evictions += len(evs2)
					if r2 {
						refusals++
					}
				case op < 11:
					evs1, ok1 := s.PutVersion(doc, body(size), v, rank)
					evs2, ok2, _ := ref.put(doc, size, v, rank, modeVersion)
					got, want = []any{evs1, ok1}, []any{evs2, ok2}
					evictions += len(evs2)
				case op < 12:
					evs1, ok1 := s.Put(doc, body(size))
					evs2, ok2, _ := ref.put(doc, size, 0, 0, 0)
					got, want = []any{evs1, ok1}, []any{evs2, ok2}
				case op < 16:
					s.SetRank(doc, rank)
					ref.setRank(doc, rank)
				case op < 17:
					if rng.Intn(4) == 0 {
						s.Pin(doc, body(size))
						ref.put(doc, size, 0, 0, modePin)
					} else {
						got, want = []any{s.Delete(doc)}, []any{ref.del(doc)}
					}
				default:
					for range p.reads {
						_, ok := s.Get(doc)
						got, want = append(got, ok), append(want, ref.get(doc))
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("op %d on %s: heap %v, full scan %v", i, doc, got, want)
				}
				if s.Bytes() != ref.total || s.MaxBytes() != ref.maxSeen || s.Stats() != ref.stats {
					t.Fatalf("op %d: bytes %d/%d max %d/%d stats %+v/%+v", i, s.Bytes(), ref.total, s.MaxBytes(), ref.maxSeen, s.Stats(), ref.stats)
				}
				if over := s.Bytes() - ref.pinnedBytes(); over > cfg.BudgetBytes {
					t.Fatalf("op %d: %d unpinned bytes over a %d budget", i, over, cfg.BudgetBytes)
				}
			}
			if evictions < 100 || refusals < 100 {
				t.Fatalf("%d evictions, %d refusals: the run never pressed the order", evictions, refusals)
			}
		})
	}
}

// TestOfferIsPutVersionWithoutAGate: with an unlimited budget there is
// nothing to gate, and Offer behaves exactly like PutVersion.
func TestOfferIsPutVersionWithoutAGate(t *testing.T) {
	offered, put := New(Config{Shards: 2}), New(Config{Shards: 2})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		doc := core.DocID(fmt.Sprintf("d%02d", rng.Intn(32)))
		b, v, rank := body(64+rng.Intn(256)), uint64(rng.Intn(4)), float64(rng.Intn(4))
		evs1, ok1, refused := offered.Offer(doc, b, v, rank)
		evs2, ok2 := put.PutVersion(doc, b, v, rank)
		if refused || ok1 != ok2 || !reflect.DeepEqual(evs1, evs2) {
			t.Fatalf("op %d: Offer %v/%v/%v, PutVersion %v/%v", i, evs1, ok1, refused, evs2, ok2)
		}
	}
	if !reflect.DeepEqual(offered.Docs(), put.Docs()) || offered.Bytes() != put.Bytes() || offered.Stats() != put.Stats() {
		t.Fatal("stores diverged")
	}
}

// TestVersionedCopies covers the per-copy version number: monotonic
// upgrades, downgrade refusal, and version preservation across unversioned
// refreshes.
func TestVersionedCopies(t *testing.T) {
	s := New(Config{Shards: 1})
	if _, ok := s.PutVersion("d", body(10), 3, 0); !ok {
		t.Fatal("versioned insert refused")
	}
	if v, ok := s.Version("d"); !ok || v != 3 {
		t.Fatalf("Version = %d,%v want 3,true", v, ok)
	}
	// Downgrade refused, copy untouched.
	if _, ok := s.PutVersion("d", body(20), 2, 0); ok {
		t.Fatal("downgrade accepted")
	}
	if b, v, ok := s.GetVersion("d"); !ok || v != 3 || len(b) != 10 {
		t.Fatalf("after downgrade: len=%d v=%d ok=%v", len(b), v, ok)
	}
	// Same-version refresh allowed (idempotent re-admit).
	if _, ok := s.PutVersion("d", body(12), 3, 0); !ok {
		t.Fatal("same-version refresh refused")
	}
	// Upgrade advances.
	if _, ok := s.PutVersion("d", body(11), 7, 0); !ok {
		t.Fatal("upgrade refused")
	}
	if v, _ := s.Version("d"); v != 7 {
		t.Fatalf("version after upgrade = %d, want 7", v)
	}
	// Unversioned Put keeps the version.
	if _, ok := s.Put("d", body(9)); !ok {
		t.Fatal("unversioned refresh refused")
	}
	if v, _ := s.Version("d"); v != 7 {
		t.Fatalf("version after unversioned refresh = %d, want 7", v)
	}
	// Pinned origin copies republish through PinVersion.
	s.Pin("origin", body(5))
	if !s.PinVersion("origin", body(6), 1) {
		t.Fatal("pin upgrade refused")
	}
	if s.PinVersion("origin", body(4), 0) {
		t.Fatal("pin downgrade accepted")
	}
	if v, ok := s.Version("origin"); !ok || v != 1 {
		t.Fatalf("pinned version = %d,%v want 1,true", v, ok)
	}
	// Missing docs report no version.
	if _, ok := s.Version("absent"); ok {
		t.Fatal("absent doc has a version")
	}
	if _, _, ok := s.GetVersion("absent"); ok {
		t.Fatal("absent doc GetVersion ok")
	}
}
