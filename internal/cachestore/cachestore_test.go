package cachestore

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"webwave/internal/core"
)

func body(n int) []byte { return make([]byte, n) }

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Policy
		err  bool
	}{
		{"", LRU, false},
		{"lru", LRU, false},
		{"heat", Heat, false},
		{"gdsf", GDSF, false},
		{"mru", "", true},
	} {
		got, err := ParsePolicy(tc.in)
		if (err != nil) != tc.err {
			t.Fatalf("ParsePolicy(%q) err = %v", tc.in, err)
		}
		if err == nil && got != tc.want {
			t.Fatalf("ParsePolicy(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestBudgetNeverExceeded(t *testing.T) {
	const budget = 1 << 12
	for _, pol := range []Policy{LRU, Heat, GDSF} {
		t.Run(string(pol), func(t *testing.T) {
			s := New(Config{BudgetBytes: budget, Shards: 4, Policy: pol,
				HeatOf: func(core.DocID) float64 { return 1 }})
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < 500; i++ {
				doc := core.DocID(fmt.Sprintf("d%03d", rng.Intn(64)))
				s.Put(doc, body(64+rng.Intn(512)))
				if b := s.Bytes(); b > budget {
					t.Fatalf("op %d: bytes %d exceed budget %d", i, b, budget)
				}
			}
			if s.MaxBytes() > budget {
				t.Fatalf("high-water %d exceeds budget %d", s.MaxBytes(), budget)
			}
			if st := s.Stats(); st.Evictions == 0 {
				t.Fatalf("expected eviction churn, got none (stats %+v)", st)
			}
			// Incremental accounting agrees with a full recount.
			var total int64
			s.ForEach(func(_ core.DocID, size int) bool { total += int64(size); return true })
			if total != s.Bytes() {
				t.Fatalf("recount %d != incremental %d", total, s.Bytes())
			}
		})
	}
}

func TestUnlimitedBudget(t *testing.T) {
	s := New(Config{})
	for i := 0; i < 100; i++ {
		if _, ok := s.Put(core.DocID(fmt.Sprintf("d%d", i)), body(1024)); !ok {
			t.Fatalf("unlimited store rejected put %d", i)
		}
	}
	if s.Len() != 100 || s.Bytes() != 100*1024 {
		t.Fatalf("len=%d bytes=%d, want 100 / %d", s.Len(), s.Bytes(), 100*1024)
	}
	if st := s.Stats(); st.Evictions != 0 {
		t.Fatalf("unlimited store evicted: %+v", st)
	}
}

func TestLRUVictimOrder(t *testing.T) {
	// One shard so the recency order is global. Budget fits 3 of 4 docs.
	s := New(Config{BudgetBytes: 300, Shards: 1, Policy: LRU})
	s.Put("a", body(100))
	s.Put("b", body(100))
	s.Put("c", body(100))
	s.Get("a") // a most recent; b is now LRU
	evs, ok := s.Put("d", body(100))
	if !ok || len(evs) != 1 || evs[0].Doc != "b" {
		t.Fatalf("want eviction of b, got %v ok=%v", evs, ok)
	}
}

func TestHeatEvictsColdestPerByte(t *testing.T) {
	heat := map[core.DocID]float64{"hot": 100, "warm": 10, "cold": 1}
	s := New(Config{BudgetBytes: 300, Shards: 1, Policy: Heat,
		HeatOf: func(d core.DocID) float64 { return heat[d] }})
	s.Put("cold", body(100))
	s.Put("hot", body(100))
	s.Put("warm", body(100))
	s.Get("cold") // recency would keep cold; heat must not
	evs, ok := s.Put("new", body(100))
	if !ok || len(evs) != 1 || evs[0].Doc != "cold" {
		t.Fatalf("want eviction of cold, got %v ok=%v", evs, ok)
	}
}

func TestHeatPerByteNormalization(t *testing.T) {
	// big has 4x the heat but 8x the size of small: worse rate-per-byte.
	heat := map[core.DocID]float64{"big": 40, "small": 10}
	s := New(Config{BudgetBytes: 1000, Shards: 1, Policy: Heat,
		HeatOf: func(d core.DocID) float64 { return heat[d] }})
	s.Put("big", body(800))
	s.Put("small", body(100))
	evs, ok := s.Put("new", body(200))
	if !ok || len(evs) != 1 || evs[0].Doc != "big" {
		t.Fatalf("want eviction of big (lowest heat/byte), got %v ok=%v", evs, ok)
	}
}

func TestGDSFFrequencyWins(t *testing.T) {
	s := New(Config{BudgetBytes: 300, Shards: 1, Policy: GDSF})
	s.Put("freq", body(100))
	s.Put("once", body(100))
	s.Put("twice", body(100))
	for i := 0; i < 8; i++ {
		s.Get("freq")
	}
	s.Get("twice")
	s.Get("once")
	evs, ok := s.Put("new", body(100))
	if !ok || len(evs) != 1 {
		t.Fatalf("want one eviction, got %v ok=%v", evs, ok)
	}
	if evs[0].Doc == "freq" {
		t.Fatalf("GDSF evicted the most frequent doc")
	}
}

func TestPinImmunity(t *testing.T) {
	s := New(Config{BudgetBytes: 200, Shards: 1, Policy: LRU})
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
	s := New(Config{BudgetBytes: 300, Shards: 1, Policy: LRU})
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
	s := New(Config{BudgetBytes: 300, Shards: 1, Policy: LRU})
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
	s := New(Config{BudgetBytes: 300, Shards: 1, Policy: LRU})
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

func TestPeekDoesNotTouch(t *testing.T) {
	s := New(Config{BudgetBytes: 200, Shards: 1, Policy: LRU})
	s.Put("a", body(100))
	s.Put("b", body(100))
	s.Peek("a") // must NOT move a to the front
	evs, ok := s.Put("c", body(100))
	if !ok || len(evs) != 1 || evs[0].Doc != "a" {
		t.Fatalf("peek changed recency: evs=%v ok=%v", evs, ok)
	}
}

func TestDeterministicVictims(t *testing.T) {
	run := func(pol Policy) []core.DocID {
		s := New(Config{BudgetBytes: 2048, Shards: 4, Policy: pol,
			HeatOf: func(d core.DocID) float64 { return float64(len(d)) }})
		rng := rand.New(rand.NewSource(7))
		var evictedOrder []core.DocID
		for i := 0; i < 300; i++ {
			doc := core.DocID(fmt.Sprintf("doc-%0*d", 1+rng.Intn(4), rng.Intn(40)))
			if rng.Intn(3) == 0 {
				s.Get(doc)
				continue
			}
			evs, _ := s.Put(doc, body(64+rng.Intn(256)))
			for _, ev := range evs {
				evictedOrder = append(evictedOrder, ev.Doc)
			}
		}
		return evictedOrder
	}
	for _, pol := range []Policy{LRU, Heat, GDSF} {
		a, b := run(pol), run(pol)
		if len(a) != len(b) {
			t.Fatalf("%s: eviction streams differ in length (%d vs %d)", pol, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: eviction %d differs: %q vs %q", pol, i, a[i], b[i])
			}
		}
	}
}

// TestConcurrentBudgetAccounting hammers one store from many goroutines
// and verifies the incremental byte accounting and the budget invariant
// survive concurrent batch drains.
func TestConcurrentBudgetAccounting(t *testing.T) {
	const budget = 64 << 10
	s := New(Config{BudgetBytes: budget, Shards: 8, Policy: Heat,
		HeatOf: func(d core.DocID) float64 { return float64(len(d)) }})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 2000; i++ {
				doc := core.DocID(fmt.Sprintf("d%03d", rng.Intn(256)))
				switch rng.Intn(4) {
				case 0:
					s.Get(doc)
				case 1:
					s.Delete(doc)
				default:
					s.Put(doc, body(64+rng.Intn(1024)))
				}
			}
		}(g)
	}
	wg.Wait()
	if b := s.Bytes(); b > budget {
		t.Fatalf("bytes %d exceed budget %d after concurrent churn", b, budget)
	}
	var total int64
	s.ForEach(func(_ core.DocID, size int) bool { total += int64(size); return true })
	if total != s.Bytes() {
		t.Fatalf("recount %d != incremental %d", total, s.Bytes())
	}
	if s.MaxBytes() > budget {
		t.Fatalf("high-water %d exceeds budget %d", s.MaxBytes(), budget)
	}
}

var policies = []Policy{LRU, Heat, GDSF}

// offerStore returns a one-shard store of policy pol with a 300-byte budget
// holding a, b and c (100 bytes each), ranked by the shared heat map.
func offerStore(pol Policy, heat map[core.DocID]float64) *Store {
	s := New(Config{BudgetBytes: 300, Shards: 1, Policy: pol,
		HeatOf: func(d core.DocID) float64 { return heat[d] }})
	for _, d := range []core.DocID{"a", "b", "c"} {
		s.PutVersion(d, body(100), 1)
	}
	return s
}

// TestOfferRefusedEvictsNothing: an offer not strictly hotter than its
// victim — colder, or tied — is refused and leaves the store as it was:
// residents, bytes, high-water mark, counters, and the victim the next
// insert picks.
func TestOfferRefusedEvictsNothing(t *testing.T) {
	for _, pol := range policies {
		for _, candHeat := range []float64{1, 5} { // colder; tied with every resident
			t.Run(fmt.Sprintf("%s/heat=%v", pol, candHeat), func(t *testing.T) {
				heat := map[core.DocID]float64{"a": 5, "b": 5, "c": 5, "new": candHeat}
				s, twin := offerStore(pol, heat), offerStore(pol, heat)
				bytes, maxBytes, st := s.Bytes(), s.MaxBytes(), s.Stats()
				if evs, ok, refused := s.Offer("new", body(100), 1); ok || !refused || evs != nil {
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

// TestOfferEvictsTheColdest: a candidate strictly hotter than its victim
// evicts the coldest resident per byte under every policy, not the policy's
// own victim: after a read of a, LRU and GDSF would both evict b.
func TestOfferEvictsTheColdest(t *testing.T) {
	for _, pol := range policies {
		t.Run(string(pol), func(t *testing.T) {
			heat := map[core.DocID]float64{"a": 3, "b": 2, "c": 1, "new": 4}
			s := offerStore(pol, heat)
			s.Get("a")
			evs, ok, refused := s.Offer("new", body(100), 1)
			if want := []Eviction{{Doc: "c", Bytes: 100}}; !ok || refused || !reflect.DeepEqual(evs, want) {
				t.Fatalf("Offer = %v ok=%v refused=%v, want admitted evicting %v", evs, ok, refused, want)
			}
		})
	}
}

// TestOfferMustBeatEveryVictim: an insert that needs two victims' room is
// admitted only when it is hotter per byte than both.
func TestOfferMustBeatEveryVictim(t *testing.T) {
	heat := map[core.DocID]float64{"a": 1, "b": 50, "c": 30, "big": 20} // per byte: 0.01, 0.5, 0.3, 0.1
	s := offerStore(LRU, heat)                                          // plan for 200 bytes: a, then c
	if evs, ok, refused := s.Offer("big", body(200), 1); ok || !refused || evs != nil || s.Len() != 3 {
		t.Fatalf("Offer = %v ok=%v refused=%v len %d, want refused with a, b, c kept", evs, ok, refused, s.Len())
	}
	heat["big"] = 70
	evs, ok, _ := s.Offer("big", body(200), 1)
	if !ok || len(evs) != 2 || evs[0].Doc != "a" || evs[1].Doc != "c" || !s.Contains("b") {
		t.Fatalf("Offer = %v ok=%v, want a and c evicted, b kept", evs, ok)
	}
}

// TestGDSFClockNeverFallsAfterOffer: an Offer's victim is picked by heat
// and can carry a higher GDSF priority than the entry a later Put evicts;
// the inflation clock must not fall back when that one leaves.
func TestGDSFClockNeverFallsAfterOffer(t *testing.T) {
	heat := map[core.DocID]float64{"a": 0, "b": 5, "c": 5, "new": 10}
	s := offerStore(GDSF, heat)
	for i := 0; i < 5; i++ {
		s.Get("a") // a: coldest by heat, highest priority
	}
	if evs, ok, _ := s.Offer("new", body(100), 1); !ok || len(evs) != 1 || evs[0].Doc != "a" {
		t.Fatalf("Offer = %v ok=%v, want a evicted", evs, ok)
	}
	clock := s.shards[0].clock
	if evs, _ := s.Put("x", body(100)); len(evs) != 1 || evs[0].Doc == "a" {
		t.Fatalf("Put evicted %v", evs)
	}
	if got := s.shards[0].clock; got < clock {
		t.Fatalf("GDSF clock fell from %v to %v", clock, got)
	}
}

// TestOfferNeverGatesWhatNeedsNoEviction: an insert that fits and a refresh
// of a resident copy are admitted however cold (a growing refresh still
// evicts around itself, as PutVersion does).
func TestOfferNeverGatesWhatNeedsNoEviction(t *testing.T) {
	for _, pol := range policies {
		t.Run(string(pol), func(t *testing.T) {
			heat := map[core.DocID]float64{"a": 5, "b": 5}
			s := New(Config{BudgetBytes: 300, Shards: 1, Policy: pol, HeatOf: func(d core.DocID) float64 { return heat[d] }})
			s.PutVersion("a", body(100), 1)
			s.PutVersion("b", body(100), 1)
			if _, ok, refused := s.Offer("cold", body(100), 1); !ok || refused {
				t.Fatalf("an offer that fits: ok=%v refused=%v", ok, refused)
			}
			if evs, ok, refused := s.Offer("cold", body(150), 2); !ok || refused || len(evs) != 1 {
				t.Fatalf("a growing refresh: evs=%v ok=%v refused=%v, want one eviction", evs, ok, refused)
			}
		})
	}
}

// TestOfferNeverEvictsPinned: pinned entries are never victims, and an
// offer with only pinned bytes in its way is rejected, evicting nothing.
func TestOfferNeverEvictsPinned(t *testing.T) {
	for _, pol := range policies {
		t.Run(string(pol), func(t *testing.T) {
			heat := map[core.DocID]float64{"pin": 0, "a": 10, "x": 20, "y": 1000}
			s := New(Config{BudgetBytes: 200, Shards: 1, Policy: pol, HeatOf: func(d core.DocID) float64 { return heat[d] }})
			s.Pin("pin", body(100))
			s.PutVersion("a", body(100), 1)
			if evs, ok, refused := s.Offer("x", body(100), 1); !ok || refused || len(evs) != 1 || evs[0].Doc != "a" {
				t.Fatalf("Offer x = %v ok=%v refused=%v, want a evicted, the pin kept", evs, ok, refused)
			}
			if evs, ok, refused := s.Offer("y", body(200), 1); ok || refused || evs != nil {
				t.Fatalf("Offer y = %v ok=%v refused=%v, want rejected evicting nothing", evs, ok, refused)
			}
			if !s.Contains("pin") || !s.Contains("x") || s.Stats().Rejected != 1 {
				t.Fatalf("pin %v x %v rejected %d", s.Contains("pin"), s.Contains("x"), s.Stats().Rejected)
			}
		})
	}
}

// TestOfferFloorMatchesAFullScan: a store told of every heat change through
// HeatChanged decides each offer exactly as one that rescans every time,
// across inserts, refreshes, pins, deletes and reads, while asking HeatOf
// less often.
func TestOfferFloorMatchesAFullScan(t *testing.T) {
	for _, pol := range policies {
		t.Run(string(pol), func(t *testing.T) {
			heat := make(map[core.DocID]float64)
			calls := [2]int{}
			stores := [2]*Store{}
			for i := range stores {
				stores[i] = New(Config{BudgetBytes: 1200, Shards: 2, Policy: pol,
					HeatOf: func(d core.DocID) float64 { calls[i]++; return heat[d] }})
			}
			cached, scanned := stores[0], stores[1]
			rng := rand.New(rand.NewSource(5))
			for i := 0; i < 4000; i++ {
				doc := core.DocID(fmt.Sprintf("d%02d", rng.Intn(40)))
				b, v := body(50+50*rng.Intn(4)), uint64(1+rng.Intn(3))
				scanned.HeatChanged() // the floor never outlives one offer
				var got, want []any
				switch op := rng.Intn(20); {
				case op < 12:
					evs1, ok1, r1 := cached.Offer(doc, b, v)
					evs2, ok2, r2 := scanned.Offer(doc, b, v)
					got, want = []any{evs1, ok1, r1}, []any{evs2, ok2, r2}
				case op < 14:
					evs1, ok1 := cached.PutVersion(doc, b, v)
					evs2, ok2 := scanned.PutVersion(doc, b, v)
					got, want = []any{evs1, ok1}, []any{evs2, ok2}
				case op < 15:
					if rng.Intn(4) == 0 {
						cached.Pin(doc, b)
						scanned.Pin(doc, b)
					} else {
						got, want = []any{cached.Delete(doc)}, []any{scanned.Delete(doc)}
					}
				case op < 17:
					cached.Get(doc)
					scanned.Get(doc)
				default:
					heat[doc] = float64(rng.Intn(8))
					cached.HeatChanged()
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("op %d on %s: floor %v, full scan %v", i, doc, got, want)
				}
			}
			if !reflect.DeepEqual(cached.Docs(), scanned.Docs()) || cached.Stats() != scanned.Stats() {
				t.Fatal("stores diverged")
			}
			if calls[0] >= calls[1] {
				t.Fatalf("HeatOf called %d times with the floor, %d without", calls[0], calls[1])
			}
		})
	}
}

// TestOfferIsPutVersionWithoutAGate: with an unlimited budget, or with no
// heat source, Offer behaves exactly like PutVersion.
func TestOfferIsPutVersionWithoutAGate(t *testing.T) {
	for _, pol := range policies {
		for _, cfg := range []Config{
			{Shards: 2, Policy: pol, HeatOf: func(d core.DocID) float64 { return float64(len(d)) }},
			{BudgetBytes: 2048, Shards: 2, Policy: pol},
		} {
			offered, put := New(cfg), New(cfg)
			rng := rand.New(rand.NewSource(3))
			for i := 0; i < 500; i++ {
				doc := core.DocID(fmt.Sprintf("d%02d", rng.Intn(32)))
				if rng.Intn(4) == 0 {
					offered.Get(doc)
					put.Get(doc)
					continue
				}
				b, v := body(64+rng.Intn(256)), uint64(rng.Intn(4))
				evs1, ok1, refused := offered.Offer(doc, b, v)
				evs2, ok2 := put.PutVersion(doc, b, v)
				if refused || ok1 != ok2 || !reflect.DeepEqual(evs1, evs2) {
					t.Fatalf("%s budget %d op %d: Offer %v/%v/%v, PutVersion %v/%v", pol, cfg.BudgetBytes, i, evs1, ok1, refused, evs2, ok2)
				}
			}
			if !reflect.DeepEqual(offered.Docs(), put.Docs()) || offered.Bytes() != put.Bytes() || offered.Stats() != put.Stats() {
				t.Fatalf("%s budget %d: stores diverged", pol, cfg.BudgetBytes)
			}
		}
	}
}

// TestVersionedCopies covers the per-copy version number: monotonic
// upgrades, downgrade refusal, and version preservation across unversioned
// refreshes.
func TestVersionedCopies(t *testing.T) {
	s := New(Config{Shards: 1})
	if _, ok := s.PutVersion("d", body(10), 3); !ok {
		t.Fatal("versioned insert refused")
	}
	if v, ok := s.Version("d"); !ok || v != 3 {
		t.Fatalf("Version = %d,%v want 3,true", v, ok)
	}
	// Downgrade refused, copy untouched.
	if _, ok := s.PutVersion("d", body(20), 2); ok {
		t.Fatal("downgrade accepted")
	}
	if b, v, ok := s.GetVersion("d"); !ok || v != 3 || len(b) != 10 {
		t.Fatalf("after downgrade: len=%d v=%d ok=%v", len(b), v, ok)
	}
	// Same-version refresh allowed (idempotent re-admit).
	if _, ok := s.PutVersion("d", body(12), 3); !ok {
		t.Fatal("same-version refresh refused")
	}
	// Upgrade advances.
	if _, ok := s.PutVersion("d", body(11), 7); !ok {
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
