package workload

import "testing"

// TestUpdateRunSmall smoke-tests the update-heavy runner end to end on a
// small tree: both passes answer everything, the write mix actually writes,
// every post-write response is staleness-sampled, and the write path's
// counters move. Thresholds are deliberately loose — wall-clock run on
// shared CI hardware; the calibrated gate lives in benchgate against the
// committed baseline.
func TestUpdateRunSmall(t *testing.T) {
	rep, err := RunUpdate(UpdateSpec{
		Seed: 1, Nodes: 9, NumDocs: 8, TotalRate: 150, Duration: 2.5,
	}, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != UpdateSchema || rep.Scenario != "update-heavy" {
		t.Fatalf("bad report identity: %q %q", rep.Schema, rep.Scenario)
	}
	if rep.ReadOnly.Writes != 0 || rep.ReadOnly.Staleness.Samples != 0 {
		t.Fatalf("read-only control wrote: %d writes, %d staleness samples",
			rep.ReadOnly.Writes, rep.ReadOnly.Staleness.Samples)
	}
	if rep.Update.Writes == 0 {
		t.Fatal("write mix produced no writes")
	}
	if rep.Update.Unanswered != 0 || rep.ReadOnly.Unanswered != 0 {
		t.Fatalf("unanswered reads: read-only %d, update %d",
			rep.ReadOnly.Unanswered, rep.Update.Unanswered)
	}
	if rep.Update.Staleness.Samples == 0 {
		t.Fatal("no staleness samples in the write mix")
	}
	if rep.Update.RepublishesIn == 0 {
		t.Error("no node ever applied a republish")
	}
	if rep.Update.Staleness.P99 > 1.0 {
		t.Errorf("p99 staleness %vs implausibly high on an in-memory transport",
			rep.Update.Staleness.P99)
	}
	if rep.ReadOnly.HitRate <= 0 {
		t.Errorf("read-only hit rate %v: caching never engaged", rep.ReadOnly.HitRate)
	}
}

// TestStormRunSmall smoke-tests the invalidation-storm runner: the warm-up
// must spread the hot document, and the storm's
// origin fetches must collapse far below one-per-client.
func TestStormRunSmall(t *testing.T) {
	rep, err := RunStorm(StormSpec{
		Seed: 1, Subtrees: 3, LeavesPer: 2, Clients: 30, Writes: 3,
	}, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != StormSchema || rep.Scenario != "invalidation-storm" {
		t.Fatalf("bad report identity: %q %q", rep.Schema, rep.Scenario)
	}
	if rep.Unanswered != 0 {
		t.Fatalf("%d storm reads unanswered", rep.Unanswered)
	}
	if rep.InvalidationsIn == 0 {
		t.Error("no node ever applied an invalidation")
	}
	if rep.LeaseRefreshes < 1 {
		t.Errorf("lease refreshes = %d, want >= 1: the storm never exercised "+
			"a coalesced upward fetch", rep.LeaseRefreshes)
	}
	// The point of the leases: per-write origin load is a handful of subtree
	// fetches, not one per client. A thundering herd would put this at
	// ~Clients (30); allow generous slack for shard- and timing-level
	// duplication on a loaded CI box. Zero is legitimate — if the duty
	// diffusion tick beats the burst, fresh bodies are already back down the
	// tree and the origin never sees the storm at all.
	if rep.PerWriteOriginFetches > float64(rep.Spec.Clients)/2 {
		t.Errorf("per-write origin fetches %v: no collapse versus %d clients",
			rep.PerWriteOriginFetches, rep.Spec.Clients)
	}
	if rep.PerWriteForwards > float64(rep.Spec.Clients) {
		t.Errorf("per-write upstream forwards %v: thundering herd versus %d clients",
			rep.PerWriteForwards, rep.Spec.Clients)
	}
}
