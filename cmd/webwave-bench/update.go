package main

// CLI wiring for the mutable-document scenarios (internal/workload.RunUpdate
// and RunStorm): run the passes, print the staleness and collapse figures,
// write the JSON artifacts CI's benchgate thresholds against the committed
// baselines.

import (
	"encoding/json"
	"fmt"
	"os"

	"webwave/internal/workload"
)

func runUpdate(sp workload.UpdateSpec, jsonPath string) error {
	sp = sp.WithDefaults()
	fmt.Printf("scenario update-heavy: %d nodes, %d docs, %.0f req/s for %.1fs, write fraction %.2f\n",
		sp.Nodes, sp.NumDocs, sp.TotalRate, sp.Duration, sp.WriteFraction)
	rep, err := workload.RunUpdate(sp, func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
	})
	if err != nil {
		return err
	}
	fmt.Printf("  hit-rate cost %.4f (%.4f -> %.4f), staleness p99 %.4fs vs diffusion period %.3fs\n",
		rep.HitRateCost, rep.ReadOnly.HitRate, rep.Update.HitRate,
		rep.Update.Staleness.P99, rep.DiffusionPeriodS)
	return writeReportJSON(rep, jsonPath)
}

func runStorm(sp workload.StormSpec, jsonPath string) error {
	sp = sp.WithDefaults()
	fmt.Printf("scenario invalidation-storm: %d subtrees x %d leaves, %d clients per burst, %d writes, settle %dms\n",
		sp.Subtrees, sp.LeavesPer, sp.Clients, sp.Writes, sp.SettleMS)
	rep, err := workload.RunStorm(sp, func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
	})
	if err != nil {
		return err
	}
	fmt.Printf("  %.1f origin fetches/write (collapse %.0fx vs %d clients), %.1f forwards/write, %d lease refreshes, %d coalesced\n",
		rep.PerWriteOriginFetches, rep.FetchCollapseX, sp.Clients,
		rep.PerWriteForwards, rep.LeaseRefreshes, rep.Coalesced)
	return writeReportJSON(rep, jsonPath)
}

func runSession(sp workload.SessionSpec, jsonPath string) error {
	sp = sp.WithDefaults()
	fmt.Printf("scenario session: %d subtrees x %d leaves, %d docs, %d rounds x %d reads\n",
		sp.Subtrees, sp.LeavesPer, sp.Docs, sp.Rounds, sp.ReadsPerWrite)
	rep, err := workload.RunSession(sp, func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
	})
	if err != nil {
		return err
	}
	fmt.Printf("  violations: %d with tokens, %d without (over %d/%d rounds), %d session refreshes\n",
		rep.WithTokens.Violations, rep.WithoutTokens.Violations,
		rep.WithoutTokens.ViolationWindows, sp.Rounds, rep.WithTokens.SessionRefreshes)
	return writeReportJSON(rep, jsonPath)
}

func writeReportJSON(rep any, jsonPath string) error {
	if jsonPath == "" {
		return nil
	}
	f, err := os.Create(jsonPath)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("report: %s\n", jsonPath)
	return nil
}
