package main

// Swarm gate: thresholds for the multi-process scale-out scenario
// (webwave-swarm). The committed baseline pins the workload shape — racks,
// rack size, spine depth, rate, kill schedule, detector period — so the
// scenario cannot be quietly shrunk until it passes; the report must then
// show the swarm surviving a whole-rack SIGKILL: availability above the
// floor, the tree repaired and re-whole within the run, duty actually
// moving (absorbed by survivors, reclaimed by the revived rack), the
// re-exec provably warm, and the harness itself healthy (every revive
// succeeded, every process drained at teardown, scrapes mostly answered).

import (
	"fmt"
	"os"

	"webwave/internal/workload"
)

// gateSwarm applies the scale-out thresholds; every violation is reported
// before the error returns so CI logs show the full picture.
func gateSwarm(rep, base *workload.SwarmReport, minAvail float64, out *os.File) error {
	// The baseline pins the workload: fewer racks, a shallower spine, a
	// gentler rate or a kinder kill schedule is not the gated scenario.
	if rep.Spec != base.Spec {
		return fmt.Errorf("report spec %+v and baseline spec %+v are different workloads; regenerate the baseline",
			rep.Spec, base.Spec)
	}
	bad := 0
	check := func(ok bool, format string, args ...any) {
		if ok {
			fmt.Fprintf(out, "ok   "+format+"\n", args...)
		} else {
			fmt.Fprintf(out, "FAIL "+format+"\n", args...)
			bad++
		}
	}
	check(rep.Nodes == 1+rep.Spec.Racks*rep.Spec.RackNodes,
		"%d node processes launched (spec says %d)", rep.Nodes, 1+rep.Spec.Racks*rep.Spec.RackNodes)
	check(rep.Depth == rep.Spec.RackDepth+1,
		"tree depth %d (spec spine %d + root)", rep.Depth, rep.Spec.RackDepth)
	check(rep.Availability >= minAvail,
		"availability %.4f with rack %d killed (floor %.4f; %d rerouted, %d lost in flight)",
		rep.Availability, rep.Spec.KillRack, minAvail, rep.Rerouted, rep.LostInFlight)
	if rep.Spec.KillRack >= 0 {
		check(rep.RepairSeconds >= 0,
			"survivors repaired %.2fs after the rack kill (must complete)", rep.RepairSeconds)
		check(rep.ReabsorbSeconds >= 0,
			"tree whole %.2fs after the rack re-exec (must complete)", rep.ReabsorbSeconds)
		check(rep.ReclaimedDuty+rep.AbsorbedDuty > 0,
			"duty moved: %.1f req/s reclaimed + %.1f req/s absorbed (a silent kill moves nothing)",
			rep.ReclaimedDuty, rep.AbsorbedDuty)
		check(rep.WarmDocs >= 1,
			"warm docs %d (the re-exec'd rack must recover from its journals)", rep.WarmDocs)
	}
	check(rep.FinalOrphaned == 0, "orphaned at end %d (tree must be repaired)", rep.FinalOrphaned)
	check(rep.FailedRevives == 0, "failed revives %d (every re-exec must come back)", rep.FailedRevives)
	check(rep.ForcedTeardowns == 0,
		"forced teardowns %d (every process must drain on SIGTERM)", rep.ForcedTeardowns)
	// Scrapes are allowed occasional timeouts on a loaded host — that is
	// what the partial-results design is for — but persistent failure means
	// the stats path itself is broken.
	check(rep.ScrapeErrors <= int64(rep.Nodes),
		"scrape errors %d over %d nodes (ceiling one per node)", rep.ScrapeErrors, rep.Nodes)
	if bad > 0 {
		return fmt.Errorf("%d swarm gate violation(s)", bad)
	}
	return nil
}
