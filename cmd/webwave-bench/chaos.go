package main

// CLI wiring for the chaos scenario (internal/workload.RunChaos): run the
// control and failure passes, print the repair figures, write the JSON
// artifact CI's benchgate thresholds against the committed baseline.

import (
	"fmt"

	"webwave/internal/workload"
)

func runChaos(sp workload.ChaosSpec, jsonPath string) error {
	sp = sp.WithDefaults()
	fmt.Printf("scenario chaos: %d nodes, %d docs, %.0f req/s for %.1fs; killing %.0f%% of interior nodes at %.1fs for %.1fs (heartbeat %dms)\n",
		sp.Nodes, sp.NumDocs, sp.TotalRate, sp.Duration,
		sp.KillFraction*100, sp.KillAt, sp.Downtime, sp.HeartbeatMS)
	rep, err := workload.RunChaos(sp, func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
	})
	if err != nil {
		return err
	}
	fmt.Printf("  availability %.4f (control %.4f), reabsorb %.2fs, jain ratio %.3f (%.3f vs %.3f)\n",
		rep.Availability, rep.ControlAvailability, rep.ReabsorbSeconds,
		rep.JainRatio, rep.PostRepairJain, rep.NoFailJain)
	fmt.Printf("  reconnects %d, reclaimed duty %.1f req/s, absorbed duty %.1f req/s, heartbeat misses %d, orphaned at end %d\n",
		rep.Reconnects, rep.ReclaimedDuty, rep.AbsorbedDuty, rep.HeartbeatMisses, rep.FinalOrphaned)

	return writeReport(jsonPath, rep)
}
