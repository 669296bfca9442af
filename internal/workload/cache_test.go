package workload

import (
	"math"
	"testing"
)

// TestCachePressureDefaults sanity-checks the scenario and its policy set.
func TestCachePressureDefaults(t *testing.T) {
	sp, ok := Lookup("cache-pressure")
	if !ok {
		t.Fatalf("cache-pressure scenario missing")
	}
	sp = sp.WithDefaults()
	if err := sp.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if sp.CacheBudgetBytes <= 0 || sp.DocBytes <= 0 {
		t.Fatalf("scenario lost its budget: %+v", sp)
	}
	if int64(sp.HotsetSize*sp.DocBytes) <= sp.CacheBudgetBytes {
		t.Fatalf("hot set (%d docs x %d B) fits one node's budget %d; no pressure",
			sp.HotsetSize, sp.DocBytes, sp.CacheBudgetBytes)
	}
	ps := DefaultPolicies(sp)
	want := map[Policy]bool{PolicyBoundedHeat: true, PolicyBoundedLRU: true, PolicyNoCache: true}
	for _, p := range ps {
		delete(want, p)
	}
	if len(want) != 0 || len(ps) != 3 {
		t.Fatalf("budgeted spec runs %v, want heat, lru and no-cache", ps)
	}
}

// TestCachePressureHourHoldsBudget fast-forwards a one-hour-equivalent
// cache-pressure run and asserts the two load-bearing properties of the
// capacity model: (1) no server's cache ever exceeded its byte budget,
// and (2) heat-weighted eviction beats plain LRU on hit rate without
// giving up load-balance fairness.
func TestCachePressureHourHoldsBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("hour-equivalent replay is a few seconds of CPU; skipped in -short")
	}
	sp, ok := Lookup("cache-pressure")
	if !ok {
		t.Fatalf("cache-pressure scenario missing")
	}
	sp.Duration = 3600 // one hour of virtual time
	sp.TotalRate = 40  // ~144k requests keeps the replay to seconds of CPU
	rep, err := RunFastPolicies(sp, 1, []Policy{PolicyBoundedHeat, PolicyBoundedLRU})
	if err != nil {
		t.Fatalf("RunFastPolicies: %v", err)
	}
	heat := rep.System("webwave-heat")
	lru := rep.System("webwave-lru")
	if heat == nil || lru == nil || heat.Cache == nil || lru.Cache == nil {
		t.Fatalf("missing systems or cache summaries in report")
	}
	for _, sys := range []*SystemResult{heat, lru} {
		c := sys.Cache
		if c.OverBudget || c.MaxNodeBytes > c.BudgetBytes {
			t.Fatalf("%s: budget violated: max node bytes %d > budget %d",
				sys.Name, c.MaxNodeBytes, c.BudgetBytes)
		}
		if c.Evictions == 0 {
			t.Fatalf("%s: an hour under pressure produced no evictions; the budget never bound", sys.Name)
		}
		if sys.Served == 0 || sys.Failed != 0 {
			t.Fatalf("%s: served=%d failed=%d", sys.Name, sys.Served, sys.Failed)
		}
	}
	if heat.Cache.HitRate < lru.Cache.HitRate {
		t.Fatalf("heat hit rate %.4f below lru %.4f; heat-weighted eviction must win under pressure",
			heat.Cache.HitRate, lru.Cache.HitRate)
	}
	// "At equal fairness": heat must not buy its hit rate with imbalance.
	if heat.MeanJain < lru.MeanJain-0.02 {
		t.Fatalf("heat mean Jain %.4f materially below lru %.4f", heat.MeanJain, lru.MeanJain)
	}
	if math.IsNaN(heat.Cache.HitRate) || heat.Cache.HitRate <= 0 {
		t.Fatalf("degenerate heat hit rate %v", heat.Cache.HitRate)
	}
}

// TestCachePressureDeterministic re-runs the scenario and requires
// byte-identical cache summaries — the property the CI bench gate
// (cmd/benchgate vs bench/BENCH_cache_baseline.json) relies on.
func TestCachePressureDeterministic(t *testing.T) {
	sp, _ := Lookup("cache-pressure")
	sp.Duration = 12
	sp.TotalRate = 120
	a, err := RunFast(sp, 7)
	if err != nil {
		t.Fatalf("run a: %v", err)
	}
	b, err := RunFast(sp, 7)
	if err != nil {
		t.Fatalf("run b: %v", err)
	}
	for i := range a.Systems {
		sa, sb := a.Systems[i], b.Systems[i]
		if sa.Name != sb.Name || sa.Served != sb.Served {
			t.Fatalf("system %d differs: %s/%d vs %s/%d", i, sa.Name, sa.Served, sb.Name, sb.Served)
		}
		if (sa.Cache == nil) != (sb.Cache == nil) {
			t.Fatalf("system %s: cache summary presence differs", sa.Name)
		}
		if sa.Cache != nil && *sa.Cache != *sb.Cache {
			t.Fatalf("system %s: cache summaries differ:\n%+v\n%+v", sa.Name, *sa.Cache, *sb.Cache)
		}
	}
}

// TestValidateRejectsOversizedDocs guards the budget/shard interplay: a
// document bigger than the per-shard budget can never be cached, which
// would silently degrade every policy to no-cache.
func TestValidateRejectsOversizedDocs(t *testing.T) {
	sp, _ := Lookup("cache-pressure")
	sp = sp.WithDefaults()
	sp.CacheShards = 64 // per-shard budget now smaller than one doc
	if err := sp.Validate(); err == nil {
		t.Fatalf("oversized doc_bytes per shard accepted")
	}

	// Validate on an un-defaulted budgeted spec must not divide by zero.
	raw := Spec{Name: "x", Nodes: 4, Popularity: PopZipf, ZipfSkew: 1,
		TotalRate: 10, Duration: 10, Window: 1, Arrival: ArrivalPoisson,
		CacheBudgetBytes: 4096, DocBytes: 1024}
	if err := raw.Validate(); err != nil {
		t.Fatalf("un-defaulted budgeted spec rejected: %v", err)
	}
}
