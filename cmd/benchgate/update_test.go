package main

// Gate tests for the mutable-document scenarios: update-heavy (staleness +
// hit-rate cost) and invalidation-storm (lease collapse).

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"webwave/internal/workload"
)

func updateReport(p99, hitRateCost float64) *workload.UpdateReport {
	return &workload.UpdateReport{
		Schema: workload.UpdateSchema, Scenario: "update-heavy",
		Spec: workload.UpdateSpec{Seed: 1}.WithDefaults(),
		ReadOnly: workload.UpdatePass{
			Offered: 6000, Responses: 6000, HitRate: 0.88, Jain: 0.66,
		},
		Update: workload.UpdatePass{
			Offered: 5400, Writes: 600, Responses: 5400,
			HitRate: 0.88 * (1 - hitRateCost), Jain: 0.62,
			Staleness: workload.StalenessStats{
				Samples: 5000, Stale: 80, P99: p99, Max: p99,
			},
			RepublishesIn: 900, InvalidationsIn: 400, LeaseRefreshes: 50,
		},
		HitRateCost:      hitRateCost,
		DiffusionPeriodS: 0.04,
	}
}

func writeJSON(t *testing.T, dir, name string, rep any) string {
	t.Helper()
	path := filepath.Join(dir, name)
	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	return path
}

func TestUpdateGatePasses(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", updateReport(0.002, 0.01))
	rep := writeJSON(t, dir, "rep.json", updateReport(0.01, 0.05))
	if err := run([]string{"-update-report", rep, "-update-baseline", base}); err != nil {
		t.Fatalf("gate failed on an in-band report: %v", err)
	}
}

func TestUpdateGateFailsOnStaleness(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", updateReport(0.002, 0.01))
	// p99 over one diffusion period (the default ceiling from the report).
	rep := writeJSON(t, dir, "rep.json", updateReport(0.09, 0.01))
	if err := run([]string{"-update-report", rep, "-update-baseline", base}); err == nil {
		t.Fatal("gate accepted a p99 staleness beyond one diffusion period")
	}
}

func TestUpdateGateFailsOnHitRateCost(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", updateReport(0.002, 0.01))
	rep := writeJSON(t, dir, "rep.json", updateReport(0.002, 0.25))
	if err := run([]string{"-update-report", rep, "-update-baseline", base}); err == nil {
		t.Fatal("gate accepted a 25% hit-rate cost")
	}
}

func TestUpdateGateFailsOnUnanswered(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", updateReport(0.002, 0.01))
	bad := updateReport(0.002, 0.01)
	bad.Update.Unanswered = 3
	rep := writeJSON(t, dir, "rep.json", bad)
	if err := run([]string{"-update-report", rep, "-update-baseline", base}); err == nil {
		t.Fatal("gate accepted unanswered reads")
	}
}

func TestUpdateGateRejectsMismatchedSpec(t *testing.T) {
	dir := t.TempDir()
	shrunk := updateReport(0.002, 0.01)
	shrunk.Spec.Nodes = 5 // quietly shrunk tree
	rep := writeJSON(t, dir, "rep.json", shrunk)
	base := writeJSON(t, dir, "base.json", updateReport(0.002, 0.01))
	if err := run([]string{"-update-report", rep, "-update-baseline", base}); err == nil {
		t.Fatal("gate compared different workloads")
	}
}

func TestUpdateGateStalenessCeilingOverride(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", updateReport(0.002, 0.01))
	rep := writeJSON(t, dir, "rep.json", updateReport(0.09, 0.01))
	// An explicit ceiling above the report's p99 overrides the diffusion-period default.
	if err := run([]string{"-update-report", rep, "-update-baseline", base,
		"-max-p99-staleness", "0.2"}); err != nil {
		t.Fatalf("explicit ceiling not honored: %v", err)
	}
}

// ---------------------------------------------------------------------------
// Invalidation-storm gate.

func stormReport(perWriteFetches, perWriteForwards float64) *workload.StormReport {
	sp := workload.StormSpec{Seed: 1}.WithDefaults()
	return &workload.StormReport{
		Schema: workload.StormSchema, Scenario: "invalidation-storm",
		Spec: sp, Nodes: 1 + sp.Subtrees*(1+sp.LeavesPer),
		Writes: int64(sp.Writes), BurstReads: int64(sp.Writes * sp.Clients),
		Responses:             2000,
		OriginFetches:         int64(perWriteFetches * float64(sp.Writes)),
		PerWriteOriginFetches: perWriteFetches,
		UpstreamForwards:      int64(perWriteForwards * float64(sp.Writes)),
		PerWriteForwards:      perWriteForwards,
		InvalidationsIn:       100, LeaseRefreshes: 90, Coalesced: 1200,
	}
}

func TestStormGatePasses(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", stormReport(1.1, 11.6))
	rep := writeJSON(t, dir, "rep.json", stormReport(2.5, 20.0))
	if err := run([]string{"-storm-report", rep, "-storm-baseline", base}); err != nil {
		t.Fatalf("gate failed on an in-band report: %v", err)
	}
}

func TestStormGateFailsOnHerd(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", stormReport(1.1, 11.6))
	// Per-write origin fetches near the client count: the leases collapsed nothing.
	rep := writeJSON(t, dir, "rep.json", stormReport(110, 115))
	if err := run([]string{"-storm-report", rep, "-storm-baseline", base}); err == nil {
		t.Fatal("gate accepted a thundering herd")
	}
}

func TestStormGateFailsWithoutLeaseRefresh(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", stormReport(1.1, 11.6))
	dead := stormReport(1.1, 11.6)
	dead.LeaseRefreshes = 0
	rep := writeJSON(t, dir, "rep.json", dead)
	if err := run([]string{"-storm-report", rep, "-storm-baseline", base}); err == nil {
		t.Fatal("gate accepted a run that never exercised a lease")
	}
}

func TestStormGateRejectsMismatchedSpec(t *testing.T) {
	dir := t.TempDir()
	gentle := stormReport(1.1, 11.6)
	gentle.Spec.Clients = 10 // quietly softened storm
	rep := writeJSON(t, dir, "rep.json", gentle)
	base := writeJSON(t, dir, "base.json", stormReport(1.1, 11.6))
	if err := run([]string{"-storm-report", rep, "-storm-baseline", base}); err == nil {
		t.Fatal("gate compared different workloads")
	}
}
