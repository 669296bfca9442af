package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"webwave/internal/workload"
)

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

func report(hitHeat, hitLRU float64, overBudget bool) *workload.Report {
	return &workload.Report{
		Schema: workload.Schema, Scenario: "cache-pressure", Seed: 1,
		Systems: []workload.SystemResult{
			{Name: "webwave-heat", Cache: &workload.CacheResult{
				Policy: "heat", BudgetBytes: 40960, HitRate: hitHeat, OverBudget: overBudget,
				MaxNodeBytes: 40960,
			}},
			{Name: "webwave-lru", Cache: &workload.CacheResult{
				Policy: "lru", BudgetBytes: 40960, HitRate: hitLRU, MaxNodeBytes: 40960,
			}},
			{Name: "no-cache"}, // no cache summary: ignored by the gate
		},
	}
}

func TestGatePasses(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", report(0.30, 0.28, false))
	// Slightly lower but within the 10% band.
	rep := writeJSON(t, dir, "rep.json", report(0.28, 0.26, false))
	if err := run([]string{"-report", rep, "-baseline", base}); err != nil {
		t.Fatalf("gate failed on an in-band report: %v", err)
	}
}

func TestGateFailsOnRegression(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", report(0.30, 0.28, false))
	rep := writeJSON(t, dir, "rep.json", report(0.20, 0.28, false)) // heat fell 33%
	if err := run([]string{"-report", rep, "-baseline", base}); err == nil {
		t.Fatalf("gate accepted a >10%% hit-rate regression")
	}
}

func TestGateFailsOnBudgetViolation(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", report(0.30, 0.28, false))
	rep := writeJSON(t, dir, "rep.json", report(0.30, 0.28, true))
	if err := run([]string{"-report", rep, "-baseline", base}); err == nil {
		t.Fatalf("gate accepted an over-budget run")
	}
}

func TestGateFailsOnMissingSystem(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", report(0.30, 0.28, false))
	rep := report(0.30, 0.28, false)
	rep.Systems = rep.Systems[:1] // drop webwave-lru
	repPath := writeJSON(t, dir, "rep.json", rep)
	if err := run([]string{"-report", repPath, "-baseline", base}); err == nil {
		t.Fatalf("gate accepted a report missing a baseline system")
	}
}

func TestGateRejectsMismatchedRuns(t *testing.T) {
	dir := t.TempDir()
	base := report(0.30, 0.28, false)
	base.Seed = 2
	basePath := writeJSON(t, dir, "base.json", base)
	rep := writeJSON(t, dir, "rep.json", report(0.30, 0.28, false))
	if err := run([]string{"-report", rep, "-baseline", basePath}); err == nil {
		t.Fatalf("gate compared reports from different runs")
	}
}

// ---------------------------------------------------------------------------
// Core-scaling gate.

func scalingReport(effs map[int]float64, perCore map[int]float64) *workload.ScalingReport {
	procs := []int{1, 2, 4}
	rep := &workload.ScalingReport{
		Schema: workload.ScalingSchema, Scenario: "core-scaling",
		Spec: workload.ScalingSpec{Procs: procs},
	}
	for _, p := range procs {
		if _, ok := effs[p]; !ok {
			continue
		}
		rep.Runs = append(rep.Runs, workload.ScalingRun{
			Procs: p, Shards: p, Efficiency: effs[p], PerCoreRPS: perCore[p],
		})
	}
	return rep
}

func TestScalingGatePasses(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json",
		scalingReport(map[int]float64{1: 1, 2: 0.8, 4: 0.6}, map[int]float64{1: 50e3, 2: 40e3, 4: 30e3}))
	// Within the 15% band at every common core count (raw req/s far lower —
	// different hardware — must only warn).
	rep := writeJSON(t, dir, "rep.json",
		scalingReport(map[int]float64{1: 1, 2: 0.72, 4: 0.55}, map[int]float64{1: 20e3, 2: 15e3, 4: 11e3}))
	if err := run([]string{"-scaling-report", rep, "-scaling-baseline", base}); err != nil {
		t.Fatalf("gate failed on an in-band report: %v", err)
	}
}

func TestScalingGateFailsOnEfficiencyDrop(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json",
		scalingReport(map[int]float64{1: 1, 2: 0.8, 4: 0.6}, nil))
	rep := writeJSON(t, dir, "rep.json",
		scalingReport(map[int]float64{1: 1, 2: 0.8, 4: 0.4}, nil)) // 4-proc eff fell 33%
	if err := run([]string{"-scaling-report", rep, "-scaling-baseline", base}); err == nil {
		t.Fatalf("gate accepted a >15%% efficiency regression")
	}
}

func TestScalingGateSubsetSweep(t *testing.T) {
	// CI sweeps 1,4 against a committed 1,2,4 baseline: only common core
	// counts are compared, and that must be enough to gate.
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json",
		scalingReport(map[int]float64{1: 1, 2: 0.8, 4: 0.6}, nil))
	rep := scalingReport(map[int]float64{1: 1, 4: 0.58}, nil)
	rep.Spec.Procs = []int{1, 4}
	repPath := writeJSON(t, dir, "rep.json", rep)
	if err := run([]string{"-scaling-report", repPath, "-scaling-baseline", base}); err != nil {
		t.Fatalf("gate failed on a passing subset sweep: %v", err)
	}
}

func TestScalingGateRejectsMismatchedBase(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json",
		scalingReport(map[int]float64{1: 1, 2: 0.8}, nil))
	rep := scalingReport(map[int]float64{1: 1, 2: 0.8}, nil)
	rep.Spec.Procs = []int{2, 4} // efficiency normalized to 2 procs, not 1
	repPath := writeJSON(t, dir, "rep.json", rep)
	if err := run([]string{"-scaling-report", repPath, "-scaling-baseline", base}); err == nil {
		t.Fatalf("gate compared sweeps with different normalization bases")
	}
}

func TestScalingGateNoCommonProcs(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json",
		scalingReport(map[int]float64{1: 1, 2: 0.8}, nil))
	rep := scalingReport(map[int]float64{1: 1}, nil)
	rep.Spec.Procs = []int{1}
	repPath := writeJSON(t, dir, "rep.json", rep)
	if err := run([]string{"-scaling-report", repPath, "-scaling-baseline", base}); err == nil {
		t.Fatalf("gate passed with nothing beyond the base to compare")
	}
}

func TestScalingGateRejectsDifferentWorkload(t *testing.T) {
	dir := t.TempDir()
	base := scalingReport(map[int]float64{1: 1, 2: 0.8}, nil)
	base.Spec.Clients = 64
	basePath := writeJSON(t, dir, "base.json", base)
	rep := scalingReport(map[int]float64{1: 1, 2: 0.8}, nil) // Clients 0
	repPath := writeJSON(t, dir, "rep.json", rep)
	if err := run([]string{"-scaling-report", repPath, "-scaling-baseline", basePath}); err == nil {
		t.Fatalf("gate compared scaling curves from different workloads")
	}
}

// ---------------------------------------------------------------------------
// Chaos gate.

func chaosReport(avail, jainRatio float64, reconnects int64, orphaned int) *workload.ChaosReport {
	return &workload.ChaosReport{
		Schema: workload.ChaosSchema, Scenario: "chaos",
		Spec: workload.ChaosSpec{
			Seed: 1, Nodes: 31, NumDocs: 48, TotalRate: 600, Duration: 12,
			KillFraction: 0.10,
		},
		Killed:          []int{4},
		Offered:         7200,
		Responses:       int64(avail * 7200),
		Availability:    avail,
		PostRepairJain:  0.5 * jainRatio,
		NoFailJain:      0.5,
		JainRatio:       jainRatio,
		Reconnects:      reconnects,
		ReabsorbSeconds: 0.25,
		FinalOrphaned:   orphaned,
	}
}

func TestChaosGatePasses(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", chaosReport(0.99, 1.0, 2, 0))
	rep := writeJSON(t, dir, "rep.json", chaosReport(0.96, 0.95, 1, 0))
	if err := run([]string{"-chaos-report", rep, "-chaos-baseline", base}); err != nil {
		t.Fatalf("gate failed on a healthy chaos run: %v", err)
	}
}

func TestChaosGateFailsOnLowAvailability(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", chaosReport(0.99, 1.0, 2, 0))
	rep := writeJSON(t, dir, "rep.json", chaosReport(0.90, 1.0, 2, 0))
	if err := run([]string{"-chaos-report", rep, "-chaos-baseline", base}); err == nil {
		t.Fatal("gate accepted availability below the floor")
	}
}

func TestChaosGateFailsOnJainCollapse(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", chaosReport(0.99, 1.0, 2, 0))
	rep := writeJSON(t, dir, "rep.json", chaosReport(0.99, 0.7, 2, 0))
	if err := run([]string{"-chaos-report", rep, "-chaos-baseline", base}); err == nil {
		t.Fatal("gate accepted a post-repair fairness collapse")
	}
}

func TestChaosGateFailsWithoutRepair(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", chaosReport(0.99, 1.0, 2, 0))
	// No failover observed and an orphan left behind.
	rep := writeJSON(t, dir, "rep.json", chaosReport(0.99, 1.0, 0, 1))
	if err := run([]string{"-chaos-report", rep, "-chaos-baseline", base}); err == nil {
		t.Fatal("gate accepted a run whose tree never repaired")
	}
}

func TestChaosGateRejectsDifferentWorkload(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", chaosReport(0.99, 1.0, 2, 0))
	shrunk := chaosReport(0.99, 1.0, 2, 0)
	shrunk.Spec.KillFraction = 0.01 // gentler kills than the gated scenario
	rep := writeJSON(t, dir, "rep.json", shrunk)
	if err := run([]string{"-chaos-report", rep, "-chaos-baseline", base}); err == nil {
		t.Fatal("gate compared different workloads")
	}
}

func TestChaosGateFailsOnFailedRevives(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", chaosReport(0.99, 1.0, 2, 0))
	broken := chaosReport(0.99, 1.0, 2, 0)
	broken.FailedRevives = 1
	rep := writeJSON(t, dir, "rep.json", broken)
	if err := run([]string{"-chaos-report", rep, "-chaos-baseline", base}); err == nil {
		t.Fatal("gate accepted a run with a swallowed revive failure")
	}
}

// ---------------------------------------------------------------------------
// Restart gate.

func restartReport(warmAvail, coldReabsorb, warmReabsorb float64, warmDocs int64) *workload.RestartReport {
	spec := workload.RestartSpec{
		ChaosSpec: workload.ChaosSpec{
			Seed: 1, Nodes: 31, NumDocs: 48, TotalRate: 600, Duration: 12,
			KillFraction: 0.10,
		},
		CacheBudgetBytes: 16 << 10,
	}
	return &workload.RestartReport{
		Schema: workload.RestartSchema, Scenario: "restart", Spec: spec,
		Killed: []int{4},
		Cold: workload.RestartPassReport{
			Offered: 7200, Responses: 7100, Availability: 0.986,
			PostRestartAvailability: 0.985, ReabsorbSeconds: coldReabsorb, Reconnects: 2,
		},
		Warm: workload.RestartPassReport{
			Offered: 7200, Responses: 7150, Availability: 0.993,
			PostRestartAvailability: warmAvail, ReabsorbSeconds: warmReabsorb, Reconnects: 2,
			WarmDocs: warmDocs, DiskHits: 40,
		},
	}
}

func TestRestartGatePasses(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", restartReport(0.995, 0.08, 0.04, 6))
	rep := writeJSON(t, dir, "rep.json", restartReport(0.990, 0.07, 0.03, 5))
	if err := run([]string{"-restart-report", rep, "-restart-baseline", base}); err != nil {
		t.Fatalf("gate failed on a healthy restart run: %v", err)
	}
}

func TestRestartGateFailsOnColdWarmPass(t *testing.T) {
	// Warm availability below the floor: the tier bought nothing.
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", restartReport(0.995, 0.08, 0.04, 6))
	rep := writeJSON(t, dir, "rep.json", restartReport(0.90, 0.08, 0.04, 6))
	if err := run([]string{"-restart-report", rep, "-restart-baseline", base}); err == nil {
		t.Fatal("gate accepted warm availability below the floor")
	}
}

func TestRestartGateFailsWithoutWarmDocs(t *testing.T) {
	// warm_docs 0: the warm pass degenerated to a second cold run.
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", restartReport(0.995, 0.08, 0.04, 6))
	rep := writeJSON(t, dir, "rep.json", restartReport(0.995, 0.08, 0.04, 0))
	if err := run([]string{"-restart-report", rep, "-restart-baseline", base}); err == nil {
		t.Fatal("gate accepted a warm pass that recovered nothing")
	}
}

func TestRestartGateReabsorbRelativeArm(t *testing.T) {
	// Warm reabsorb over the absolute ceiling but inside one
	// failure-detection window (3 x 40ms default heartbeat) of cold: that's
	// detector quantization or a loaded CI box, so this must pass.
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", restartReport(0.995, 0.30, 0.40, 6))
	rep := writeJSON(t, dir, "rep.json", restartReport(0.995, 0.30, 0.40, 6))
	if err := run([]string{"-restart-report", rep, "-restart-baseline", base}); err != nil {
		t.Fatalf("gate failed a warm pass within the detection window of cold: %v", err)
	}
	// But warm beyond BOTH the ceiling and cold + the window fails.
	slow := writeJSON(t, dir, "slow.json", restartReport(0.995, 0.30, 0.50, 6))
	baseSlow := writeJSON(t, dir, "baseslow.json", restartReport(0.995, 0.30, 0.50, 6))
	if err := run([]string{"-restart-report", slow, "-restart-baseline", baseSlow}); err == nil {
		t.Fatal("gate accepted warm reabsorb beyond cold plus a detection window and over the ceiling")
	}
}

func TestRestartGateFailsOnFailedRevives(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", restartReport(0.995, 0.08, 0.04, 6))
	broken := restartReport(0.995, 0.08, 0.04, 6)
	broken.Warm.FailedRevives = 1
	rep := writeJSON(t, dir, "rep.json", broken)
	if err := run([]string{"-restart-report", rep, "-restart-baseline", base}); err == nil {
		t.Fatal("gate accepted a pass with a failed revive")
	}
}

func TestRestartGateRejectsDifferentWorkload(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", restartReport(0.995, 0.08, 0.04, 6))
	eased := restartReport(0.995, 0.08, 0.04, 6)
	eased.Spec.CacheBudgetBytes = 1 << 30 // nothing evicts, nothing to recover
	rep := writeJSON(t, dir, "rep.json", eased)
	if err := run([]string{"-restart-report", rep, "-restart-baseline", base}); err == nil {
		t.Fatal("gate compared different workloads")
	}
}

// ---------------------------------------------------------------------------
// Bigger-than-ram gate.

func bigramReport(inram, memonly, twotier float64, diskHits int64) *workload.BigramReport {
	return &workload.BigramReport{
		Schema: workload.BigramSchema, Scenario: "bigger-than-ram",
		Spec: workload.BigramSpec{
			Seed: 1, Nodes: 15, Clients: 24, NumDocs: 256, BodyBytes: 4096,
			ZipfSkew: 0.7, Duration: 2, MemoryRatio: 10,
			CacheBudgetBytes: 104857, DiskBudgetBytes: 2097152,
		},
		InRAM:          workload.BigramPassReport{HitRate: inram},
		MemOnly:        workload.BigramPassReport{HitRate: memonly},
		TwoTier:        workload.BigramPassReport{HitRate: twotier, DiskHits: diskHits},
		MemOnlyHitDrop: inram - memonly,
		TwoTierHitDrop: inram - twotier,
	}
}

func TestBigramGatePasses(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", bigramReport(0.82, 0.31, 0.81, 8000))
	rep := writeJSON(t, dir, "rep.json", bigramReport(0.80, 0.35, 0.78, 6000))
	if err := run([]string{"-bigram-report", rep, "-bigram-baseline", base}); err != nil {
		t.Fatalf("gate failed on a healthy bigger-than-ram run: %v", err)
	}
}

func TestBigramGateFailsOnTwoTierCollapse(t *testing.T) {
	// Two-tier more than 10% below the in-ram ceiling: the tier leaks.
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", bigramReport(0.82, 0.31, 0.81, 8000))
	rep := writeJSON(t, dir, "rep.json", bigramReport(0.82, 0.31, 0.60, 8000))
	if err := run([]string{"-bigram-report", rep, "-bigram-baseline", base}); err == nil {
		t.Fatal("gate accepted a collapsed two-tier hit rate")
	}
}

func TestBigramGateFailsWithoutThrash(t *testing.T) {
	// Mem-only barely dropping means the workload is not actually bigger
	// than ram — the scenario gates nothing and must fail loudly.
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", bigramReport(0.82, 0.80, 0.81, 8000))
	rep := writeJSON(t, dir, "rep.json", bigramReport(0.82, 0.80, 0.81, 8000))
	if err := run([]string{"-bigram-report", rep, "-bigram-baseline", base}); err == nil {
		t.Fatal("gate accepted a workload where memory-only never thrashed")
	}
}

func TestBigramGateFailsWithoutDiskHits(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", bigramReport(0.82, 0.31, 0.81, 8000))
	rep := writeJSON(t, dir, "rep.json", bigramReport(0.82, 0.31, 0.81, 0))
	if err := run([]string{"-bigram-report", rep, "-bigram-baseline", base}); err == nil {
		t.Fatal("gate accepted a two-tier pass that never served from disk")
	}
}

func TestBigramGateRejectsDifferentWorkload(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", bigramReport(0.82, 0.31, 0.81, 8000))
	eased := bigramReport(0.82, 0.31, 0.81, 8000)
	eased.Spec.CacheBudgetBytes = 1 << 30 // the corpus fits in memory
	rep := writeJSON(t, dir, "rep.json", eased)
	if err := run([]string{"-bigram-report", rep, "-bigram-baseline", base}); err == nil {
		t.Fatal("gate compared different workloads")
	}
}
