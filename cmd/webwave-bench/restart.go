package main

// CLI wiring for the restart-warmth scenario (internal/workload.RunRestart):
// replay the chaos workload twice — cold restarts vs warm (disk-tier)
// restarts — print the comparison, write the JSON artifact CI's benchgate
// thresholds against the committed baseline.

import (
	"fmt"

	"webwave/internal/workload"
)

func runRestart(sp workload.RestartSpec, jsonPath string) error {
	sp = sp.WithDefaults()
	fmt.Printf("scenario restart: %d nodes, %d docs, %.0f req/s for %.1fs; cache budget %d B, disk budget %d B; killing %.0f%% of interior nodes at %.1fs for %.1fs\n",
		sp.Nodes, sp.NumDocs, sp.TotalRate, sp.Duration,
		sp.CacheBudgetBytes, sp.DiskBudgetBytes,
		sp.KillFraction*100, sp.KillAt, sp.Downtime)
	rep, err := workload.RunRestart(sp, func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
	})
	if err != nil {
		return err
	}
	fmt.Printf("  post-restart availability: warm %.4f vs cold %.4f; reabsorb: warm %.2fs vs cold %.2fs\n",
		rep.Warm.PostRestartAvailability, rep.Cold.PostRestartAvailability,
		rep.Warm.ReabsorbSeconds, rep.Cold.ReabsorbSeconds)
	fmt.Printf("  warm docs recovered %d, disk hits %d, failed revives warm %d cold %d\n",
		rep.Warm.WarmDocs, rep.Warm.DiskHits, rep.Warm.FailedRevives, rep.Cold.FailedRevives)

	return writeReport(jsonPath, rep)
}

func runBigram(sp workload.BigramSpec, jsonPath string) error {
	sp = sp.WithDefaults()
	fmt.Printf("scenario bigger-than-ram: %d nodes, %d docs x %d B (corpus %d B), memory budget %d B, disk budget %d B, %.1fs per pass\n",
		sp.Nodes, sp.NumDocs, sp.BodyBytes, int64(sp.NumDocs)*int64(sp.BodyBytes),
		sp.CacheBudgetBytes, sp.DiskBudgetBytes, sp.Duration)
	rep, err := workload.RunBigram(sp, func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
	})
	if err != nil {
		return err
	}
	fmt.Printf("  hit-rate drop vs in-ram: mem-only %.4f, two-tier %.4f; two-tier disk hits %d\n",
		rep.MemOnlyHitDrop, rep.TwoTierHitDrop, rep.TwoTier.DiskHits)

	return writeReport(jsonPath, rep)
}
