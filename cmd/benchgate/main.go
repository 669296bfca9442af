// Command benchgate compares freshly produced webwave-bench reports
// against committed baselines and fails (exit 1) on regressions. Each gate
// below is one report/baseline flag pair; CI runs them so a regression
// breaks the build instead of the tail latency of some future long-haul run:
//
//   - Cache (-report/-baseline): a system's hit rate dropping more than the
//     allowed fraction below the baseline, a budgeted system exceeding its
//     byte budget, or a system present in the baseline vanishing from the
//     report.
//
//   - Core scaling (-scaling-report/-scaling-baseline): the multi-core
//     serving efficiency — req/s-per-core normalized by the same sweep's
//     1-proc throughput — dropping more than the allowed fraction below the
//     baseline at any common core count. The normalization makes the gate
//     portable across hardware: a committed baseline from one machine still
//     bounds the *shape* of the scaling curve on another, where gating raw
//     req/s would only measure whose CPU is newer. Absolute per-core drops
//     are printed as warnings, not failures, for the same reason.
//
//   - Chaos (-chaos-report/-chaos-baseline): the fault-tolerance floor. The
//     committed baseline pins the workload (spec mismatch fails, so the
//     scenario cannot be silently shrunk until it passes); the report must
//     then clear absolute thresholds: availability under the interior-node
//     kills at least -min-availability, post-repair Jain within the allowed
//     ratio of the same schedule's no-failure run, at least one observed
//     failover, nobody left orphaned at the end, and zero failed revives.
//     Thresholds rather than byte comparison because the run is wall-clock.
//
//   - Restart (-restart-report/-restart-baseline): the warm-restart floor.
//     The committed baseline pins the workload; the warm pass must then
//     answer at least -min-warm-availability of the schedule offered after
//     the revival instant, reabsorb within -max-warm-reabsorb seconds (or
//     within one failure-detection window of the same report's cold pass —
//     the figure is wall-clock and quantized by the heartbeat detector, so
//     the relative bound is the honest one on a loaded or jittery CI box),
//     actually recover documents from its journals (warm_docs >= 1,
//     otherwise the tier silently did nothing and the pass degenerates to a
//     second cold run), and revive every victim in both passes.
//
//   - Bigger-than-ram (-bigram-report/-bigram-baseline): the disk-tier
//     floor. The committed baseline pins the workload (a corpus that fits in
//     memory would gate nothing); two-tier's hit rate must stay within
//     -max-twotier-regress of the in-ram ceiling, memory-only must lose at
//     least -min-drop-ratio times more hit rate than two-tier (the thrash is
//     real AND the fix is real — a gentle workload where nothing thrashes
//     fails the gate rather than vacuously passing it), and two-tier must
//     actually serve from disk (disk_hits > 0).
//
//   - Swarm (-swarm-report/-swarm-baseline): the multi-process scale-out
//     floor. The committed baseline pins the swarm shape (racks, rack size,
//     spine depth, kill schedule); the report must then survive the
//     whole-rack SIGKILL with availability at least -min-swarm-availability,
//     repair and re-whole the tree within the run, move duty (absorbed by
//     survivors and reclaimed by the revived rack), recover documents from
//     journals on the re-exec (warm, not cold), and keep the harness clean:
//     zero failed revives, zero forced teardowns, scrape errors bounded.
//
// Usage:
//
//	benchgate -report BENCH_cache.json -baseline bench/BENCH_cache_baseline.json [-max-regress 0.10]
//	benchgate -scaling-report BENCH_scaling.json -scaling-baseline bench/BENCH_scaling_baseline.json [-max-scaling-regress 0.15]
//	benchgate -chaos-report BENCH_chaos.json -chaos-baseline bench/BENCH_chaos_baseline.json [-min-availability 0.95] [-min-jain-ratio 0.90]
//	benchgate -restart-report BENCH_restart.json -restart-baseline bench/BENCH_restart_baseline.json [-min-warm-availability 0.981] [-max-warm-reabsorb 0.06]
//	benchgate -bigram-report BENCH_bigram.json -bigram-baseline bench/BENCH_bigram_baseline.json [-max-twotier-regress 0.10] [-min-drop-ratio 2.0]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"webwave/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	reportPath := fs.String("report", "", "cache report JSON produced by this run")
	basePath := fs.String("baseline", "", "committed cache baseline report JSON")
	maxRegress := fs.Float64("max-regress", 0.10, "max allowed fractional hit-rate drop vs baseline")
	scalingPath := fs.String("scaling-report", "", "core-scaling report JSON produced by this run")
	scalingBasePath := fs.String("scaling-baseline", "", "committed core-scaling baseline JSON")
	maxScalingRegress := fs.Float64("max-scaling-regress", 0.15, "max allowed fractional per-core efficiency drop vs baseline")
	chaosPath := fs.String("chaos-report", "", "chaos report JSON produced by this run")
	chaosBasePath := fs.String("chaos-baseline", "", "committed chaos baseline JSON (pins the workload)")
	minAvailability := fs.Float64("min-availability", 0.95, "chaos: minimum served/offered under the scheduled kills")
	minJainRatio := fs.Float64("min-jain-ratio", 0.90, "chaos: minimum post-repair Jain relative to the no-failure run")
	restartPath := fs.String("restart-report", "", "restart-warmth report JSON produced by this run")
	restartBasePath := fs.String("restart-baseline", "", "committed restart baseline JSON (pins the workload)")
	minWarmAvail := fs.Float64("min-warm-availability", 0.981, "restart: minimum warm-pass post-restart availability")
	maxWarmReabsorb := fs.Float64("max-warm-reabsorb", 0.06, "restart: warm reabsorb ceiling in seconds (relaxed when cold is slower)")
	bigramPath := fs.String("bigram-report", "", "bigger-than-ram report JSON produced by this run")
	bigramBasePath := fs.String("bigram-baseline", "", "committed bigger-than-ram baseline JSON (pins the workload)")
	maxTwoTierRegress := fs.Float64("max-twotier-regress", 0.10, "bigram: max allowed fractional two-tier hit-rate drop vs the in-ram ceiling")
	minDropRatio := fs.Float64("min-drop-ratio", 2.0, "bigram: memory-only hit drop must be at least this multiple of two-tier's")
	minMemOnlyDrop := fs.Float64("min-memonly-drop", 0.10, "bigram: minimum memory-only hit drop (proves the corpus really exceeds memory)")
	swarmPath := fs.String("swarm-report", "", "swarm report JSON produced by this run")
	swarmBasePath := fs.String("swarm-baseline", "", "committed swarm baseline JSON (pins the workload)")
	minSwarmAvail := fs.Float64("min-swarm-availability", 0.95, "swarm: minimum served/offered under the whole-rack kill")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ranAny := false
	if rep, base, err := loadPair("", *reportPath, *basePath, workload.Schema,
		func(r *workload.Report) string { return r.Schema }); err != nil {
		return err
	} else if rep != nil {
		if err := gate(rep, base, *maxRegress, os.Stdout); err != nil {
			return err
		}
		ranAny = true
	}
	if rep, base, err := loadPair("scaling-", *scalingPath, *scalingBasePath, workload.ScalingSchema,
		func(r *workload.ScalingReport) string { return r.Schema }); err != nil {
		return err
	} else if rep != nil {
		if err := gateScaling(rep, base, *maxScalingRegress, os.Stdout); err != nil {
			return err
		}
		ranAny = true
	}
	if rep, base, err := loadPair("chaos-", *chaosPath, *chaosBasePath, workload.ChaosSchema,
		func(r *workload.ChaosReport) string { return r.Schema }); err != nil {
		return err
	} else if rep != nil {
		if err := gateChaos(rep, base, *minAvailability, *minJainRatio, os.Stdout); err != nil {
			return err
		}
		ranAny = true
	}
	if rep, base, err := loadPair("restart-", *restartPath, *restartBasePath, workload.RestartSchema,
		func(r *workload.RestartReport) string { return r.Schema }); err != nil {
		return err
	} else if rep != nil {
		if err := gateRestart(rep, base, *minWarmAvail, *maxWarmReabsorb, os.Stdout); err != nil {
			return err
		}
		ranAny = true
	}
	if rep, base, err := loadPair("bigram-", *bigramPath, *bigramBasePath, workload.BigramSchema,
		func(r *workload.BigramReport) string { return r.Schema }); err != nil {
		return err
	} else if rep != nil {
		if err := gateBigram(rep, base, *maxTwoTierRegress, *minDropRatio, *minMemOnlyDrop, os.Stdout); err != nil {
			return err
		}
		ranAny = true
	}
	if rep, base, err := loadPair("swarm-", *swarmPath, *swarmBasePath, workload.SwarmSchema,
		func(r *workload.SwarmReport) string { return r.Schema }); err != nil {
		return err
	} else if rep != nil {
		if err := gateSwarm(rep, base, *minSwarmAvail, os.Stdout); err != nil {
			return err
		}
		ranAny = true
	}
	if !ranAny {
		return fmt.Errorf("nothing to gate: pass -report/-baseline, -scaling-report/-scaling-baseline, -chaos-report/-chaos-baseline, -restart-report/-restart-baseline, -bigram-report/-bigram-baseline and/or -swarm-report/-swarm-baseline")
	}
	return nil
}

// loadPair loads a run's report and the committed baseline it is gated
// against, both carrying the schema want. With both paths empty the gate
// was not asked for and rep is nil; one empty path is a usage error.
func loadPair[T any](prefix, repPath, basePath, want string, schema func(*T) string) (rep, base *T, err error) {
	if repPath == "" && basePath == "" {
		return nil, nil, nil
	}
	if repPath == "" || basePath == "" {
		return nil, nil, fmt.Errorf("both -%sreport and -%sbaseline are required", prefix, prefix)
	}
	if rep, err = loadReport(repPath, want, schema); err != nil {
		return nil, nil, err
	}
	if base, err = loadReport(basePath, want, schema); err != nil {
		return nil, nil, err
	}
	return rep, base, nil
}

// loadReport decodes the JSON report at path and checks that it carries the
// schema its gate expects.
func loadReport[T any](path, want string, schema func(*T) string) (*T, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rep := new(T)
	if err := json.NewDecoder(f).Decode(rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if got := schema(rep); got != want {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, got, want)
	}
	return rep, nil
}

// gateRestart applies the warm-restart thresholds; every violation is
// reported before the error returns so CI logs show the full picture.
func gateRestart(rep, base *workload.RestartReport, minWarmAvail, maxWarmReabsorb float64, out *os.File) error {
	// The baseline pins the workload: a report from a smaller tree, gentler
	// kills, a shorter downtime or a bigger cache budget is not the gated
	// scenario.
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
	check(rep.Warm.PostRestartAvailability >= minWarmAvail,
		"warm post-restart availability %.4f (floor %.4f; cold %.4f)",
		rep.Warm.PostRestartAvailability, minWarmAvail, rep.Cold.PostRestartAvailability)
	// Reabsorb is wall-clock AND quantized by the failure detector: any
	// single measurement lands anywhere inside one detection window
	// (HeartbeatMisses silent periods), so the absolute ceiling alone would
	// flake. A warm pass within one detection window of the same report's
	// cold pass also passes — that covers both detector quantization and a
	// loaded CI runner slowing the passes alike — while a genuinely broken
	// warm path overshoots the window. -1 (never repaired) fails both arms.
	hb := rep.Spec.HeartbeatMS
	if hb <= 0 {
		hb = 40 // ChaosSpec.WithDefaults
	}
	detectWindow := 3 * float64(hb) / 1000 // default HeartbeatMisses
	warmReabsorbOK := rep.Warm.ReabsorbSeconds >= 0 &&
		(rep.Warm.ReabsorbSeconds <= maxWarmReabsorb ||
			(rep.Cold.ReabsorbSeconds >= 0 && rep.Warm.ReabsorbSeconds <= rep.Cold.ReabsorbSeconds+detectWindow))
	check(warmReabsorbOK, "warm reabsorb %.2fs (ceiling %.2fs, cold %.2fs + %.2fs detection window)",
		rep.Warm.ReabsorbSeconds, maxWarmReabsorb, rep.Cold.ReabsorbSeconds, detectWindow)
	check(rep.Warm.WarmDocs >= 1,
		"warm docs recovered %d (journal replay must restore something)", rep.Warm.WarmDocs)
	check(rep.Cold.FailedRevives == 0 && rep.Warm.FailedRevives == 0,
		"failed revives cold %d warm %d (every victim must come back)",
		rep.Cold.FailedRevives, rep.Warm.FailedRevives)
	if bad > 0 {
		return fmt.Errorf("%d restart gate violation(s)", bad)
	}
	return nil
}

// gateBigram applies the disk-tier thresholds; every violation is reported
// before the error returns so CI logs show the full picture.
func gateBigram(rep, base *workload.BigramReport, maxTwoTierRegress, minDropRatio, minMemOnlyDrop float64, out *os.File) error {
	// The baseline pins the workload: a smaller corpus or a bigger memory
	// budget removes the pressure the gate exists to measure.
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
	// All three figures come from the same report — the in-ram ceiling is
	// re-measured every run, so the comparison is same-hardware by
	// construction and the baseline only pins the spec.
	check(rep.TwoTier.HitRate >= rep.InRAM.HitRate*(1-maxTwoTierRegress),
		"two-tier hit rate %.4f within %.0f%% of in-ram %.4f",
		rep.TwoTier.HitRate, maxTwoTierRegress*100, rep.InRAM.HitRate)
	check(rep.MemOnlyHitDrop >= minMemOnlyDrop,
		"mem-only hit drop %.4f (floor %.2f — the constrained budget must actually thrash)",
		rep.MemOnlyHitDrop, minMemOnlyDrop)
	twoTierDrop := rep.TwoTierHitDrop
	if twoTierDrop < 0 {
		twoTierDrop = 0 // two-tier beating the in-ram ceiling only makes the ratio easier
	}
	check(rep.MemOnlyHitDrop >= minDropRatio*twoTierDrop,
		"mem-only drop %.4f is %.1fx two-tier drop %.4f (floor %.1fx)",
		rep.MemOnlyHitDrop, safeRatio(rep.MemOnlyHitDrop, twoTierDrop), rep.TwoTierHitDrop, minDropRatio)
	check(rep.TwoTier.DiskHits > 0,
		"two-tier disk hits %d (the tier must actually serve)", rep.TwoTier.DiskHits)
	if bad > 0 {
		return fmt.Errorf("%d bigger-than-ram gate violation(s)", bad)
	}
	return nil
}

// safeRatio is for display only: the drop ratio with a zero denominator is
// effectively infinite, rendered as 999x rather than +Inf.
func safeRatio(num, den float64) float64 {
	if den <= 0 {
		return 999
	}
	return num / den
}

// gateChaos applies the fault-tolerance thresholds; every violation is
// reported before the error returns so CI logs show the full picture.
func gateChaos(rep, base *workload.ChaosReport, minAvail, minJainRatio float64, out *os.File) error {
	// The baseline pins the workload: a report from a smaller tree, lighter
	// kills or a shorter schedule is not the gated scenario.
	// Every spec field is pinned — including the kill schedule and the
	// detector period, since a faster heartbeat or gentler downtime would
	// ease the scenario as surely as a smaller tree.
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
	check(rep.Availability >= minAvail,
		"availability %.4f under %d kills (floor %.4f)", rep.Availability, len(rep.Killed), minAvail)
	check(rep.JainRatio >= minJainRatio,
		"post-repair jain %.3f = %.3f of the no-failure run (floor %.2f)",
		rep.PostRepairJain, rep.JainRatio, minJainRatio)
	check(rep.Reconnects >= 1, "reconnects %d (failover must have fired)", rep.Reconnects)
	check(rep.FinalOrphaned == 0, "orphaned at end %d (tree must be repaired)", rep.FinalOrphaned)
	check(rep.ReabsorbSeconds >= 0, "reabsorb %.2fs (repair must complete within the run)", rep.ReabsorbSeconds)
	check(rep.FailedRevives == 0, "failed revives %d (every scheduled restart must succeed)", rep.FailedRevives)
	if bad > 0 {
		return fmt.Errorf("%d chaos gate violation(s)", bad)
	}
	return nil
}

// gateScaling applies the efficiency rules; it reports every violation
// before returning an error so CI logs show the full picture.
func gateScaling(rep, base *workload.ScalingReport, maxRegress float64, out *os.File) error {
	if len(rep.Spec.Procs) == 0 || len(base.Spec.Procs) == 0 {
		return fmt.Errorf("scaling report/baseline with empty proc sweep")
	}
	// Same workload or the curves mean nothing. Duration is deliberately
	// exempt: it sets the sampling window, not the offered pressure, and CI
	// measures a shorter window than the committed baseline.
	rw, bw := rep.Spec, base.Spec
	if rw.Seed != bw.Seed || rw.Nodes != bw.Nodes || rw.Clients != bw.Clients ||
		rw.NumDocs != bw.NumDocs || rw.BodyBytes != bw.BodyBytes || rw.ZipfSkew != bw.ZipfSkew {
		return fmt.Errorf("report (seed %d, %d nodes, %d clients, %d docs x %dB, skew %g) and baseline (seed %d, %d nodes, %d clients, %d docs x %dB, skew %g) are different workloads; regenerate the baseline",
			rw.Seed, rw.Nodes, rw.Clients, rw.NumDocs, rw.BodyBytes, rw.ZipfSkew,
			bw.Seed, bw.Nodes, bw.Clients, bw.NumDocs, bw.BodyBytes, bw.ZipfSkew)
	}
	if rep.Spec.Procs[0] != base.Spec.Procs[0] {
		return fmt.Errorf("report sweep starts at %d procs, baseline at %d; efficiencies are not comparable — regenerate the baseline",
			rep.Spec.Procs[0], base.Spec.Procs[0])
	}
	bad, checked := 0, 0
	for _, br := range base.Runs {
		rr := rep.Run(br.Procs)
		if rr == nil {
			continue // CI sweeps a subset of the committed baseline's procs
		}
		if rr.PerCoreRPS < br.PerCoreRPS*(1-maxRegress) {
			fmt.Fprintf(out, "warn procs=%d raw %8.0f req/s/core vs baseline %8.0f (different hardware? not gated)\n",
				br.Procs, rr.PerCoreRPS, br.PerCoreRPS)
		}
		if br.Procs == base.Spec.Procs[0] {
			continue // efficiency at the sweep base is 1.0 by definition
		}
		checked++
		if rr.Efficiency < br.Efficiency*(1-maxRegress) {
			fmt.Fprintf(out, "FAIL procs=%d efficiency %.4f fell >%.0f%% below baseline %.4f\n",
				br.Procs, rr.Efficiency, maxRegress*100, br.Efficiency)
			bad++
		} else {
			fmt.Fprintf(out, "ok   procs=%d efficiency %.4f (baseline %.4f, %6.0f req/s/core)\n",
				br.Procs, rr.Efficiency, br.Efficiency, rr.PerCoreRPS)
		}
	}
	if checked == 0 {
		return fmt.Errorf("no common core counts beyond the sweep base between report and baseline")
	}
	if bad > 0 {
		return fmt.Errorf("%d core-scaling regression(s) vs baseline", bad)
	}
	return nil
}

// gate applies the regression rules; it reports every violation before
// returning an error so CI logs show the full picture.
func gate(rep, base *workload.Report, maxRegress float64, out *os.File) error {
	if rep.Scenario != base.Scenario || rep.Seed != base.Seed {
		return fmt.Errorf("report (%s seed %d) and baseline (%s seed %d) are different runs; regenerate the baseline",
			rep.Scenario, rep.Seed, base.Scenario, base.Seed)
	}
	bad := 0
	for i := range base.Systems {
		bs := &base.Systems[i]
		if bs.Cache == nil {
			continue
		}
		rs := rep.System(bs.Name)
		switch {
		case rs == nil || rs.Cache == nil:
			fmt.Fprintf(out, "FAIL %-14s missing from the report (baseline hit %.4f)\n", bs.Name, bs.Cache.HitRate)
			bad++
		case rs.Cache.OverBudget:
			fmt.Fprintf(out, "FAIL %-14s exceeded its byte budget (max node %d > %d)\n",
				rs.Name, rs.Cache.MaxNodeBytes, rs.Cache.BudgetBytes)
			bad++
		case rs.Cache.HitRate < bs.Cache.HitRate*(1-maxRegress):
			fmt.Fprintf(out, "FAIL %-14s hit rate %.4f fell >%.0f%% below baseline %.4f\n",
				rs.Name, rs.Cache.HitRate, maxRegress*100, bs.Cache.HitRate)
			bad++
		default:
			fmt.Fprintf(out, "ok   %-14s hit rate %.4f (baseline %.4f)\n",
				rs.Name, rs.Cache.HitRate, bs.Cache.HitRate)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d cache regression(s) vs baseline", bad)
	}
	return nil
}
