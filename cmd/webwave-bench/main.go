// Command webwave-bench runs named workload scenarios against the WebWave
// reproduction and emits a machine-readable JSON report comparing WebWave
// with the comparison policies on the identical request trace.
//
// Fast-forward mode (the default) replays the scenario in virtual time on
// the discrete-event engine against the document-level protocol simulator;
// two runs with the same seed produce byte-identical reports. Live mode
// replays the compressed schedule against a real in-memory cluster through
// the HTTP gateway.
//
// Usage:
//
//	webwave-bench -list
//	webwave-bench -scenario flash-crowd -seed 1 -json out.json
//	webwave-bench -scenario churn -mode live -speedup 20 -json out.json
//	webwave-bench -scenario zipf-steady -n 63 -duration 60 -rate 500
//	webwave-bench -scenario zipf-steady -mode live -transport tcp
//	webwave-bench -scenario core-scaling -procs 1,2,4,8 -json BENCH_scaling.json
//	webwave-bench -scenario core-scaling -procs 1,4 -cpuprofile cpu.pprof -memprofile mem.pprof
//	webwave-bench -scenario chaos -kill-fraction 0.1 -json BENCH_chaos.json
//
// Two scenarios are special, wall-clock (NOT deterministic) measurements
// of the live serving stack: core-scaling sweeps GOMAXPROCS (the servers'
// shard-loop count follows) and reports req/s, per-core efficiency, Jain
// fairness and hit rate per core count; chaos kills and restarts a fraction
// of a live cluster's interior nodes mid-run and reports availability,
// repair time and post-repair fairness against a no-failure control pass.
//
// -cpuprofile and -memprofile write pprof artifacts covering the run, so a
// scaling regression caught by CI can be diagnosed from the uploaded
// profile instead of reproduced by hand.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"webwave/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "webwave-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("webwave-bench", flag.ContinueOnError)
	list := fs.Bool("list", false, "list scenarios and exit")
	scenario := fs.String("scenario", "zipf-steady", "scenario name (see -list)")
	seed := fs.Int64("seed", 1, "RNG seed; fixes tree, trace and report in fast mode")
	mode := fs.String("mode", "fast", "fast (virtual time, deterministic) or live (real cluster)")
	jsonPath := fs.String("json", "", "write the JSON report to this file")
	n := fs.Int("n", 0, "override tree size")
	duration := fs.Float64("duration", 0, "override schedule length, seconds")
	rate := fs.Float64("rate", 0, "override aggregate request rate, req/s")
	window := fs.Float64("window", 0, "override metrics window, seconds")
	speedup := fs.Float64("speedup", 10, "live: schedule time compression")
	clients := fs.Int("clients", 16, "live/core-scaling: concurrent workers")
	transportName := fs.String("transport", "mem", "live: cluster transport (mem or tcp)")
	cacheBudget := fs.Int64("cache-budget", 0, "override per-node cache budget, bytes (0 = scenario default)")
	diskBudget := fs.Int64("disk-budget", 0, "restart/bigger-than-ram: per-node disk-tier budget, bytes (0 = scenario default)")
	docBytes := fs.Int("doc-bytes", 0, "override document body size, bytes")
	procs := fs.String("procs", "1,2,4,8", "core-scaling: comma-separated GOMAXPROCS sweep")
	repeat := fs.Int("repeat", 1, "core-scaling: full-sweep repetitions, keeping the lowest efficiency per core count (baselines use 3)")
	killFraction := fs.Float64("kill-fraction", 0, "chaos: fraction of interior nodes killed mid-run (0 = default 0.10)")
	heartbeatMS := fs.Int("heartbeat-ms", 0, "chaos: failure-detector period, milliseconds (0 = default 40)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile covering the run to this file")
	memprofile := fs.String("memprofile", "", "write an end-of-run heap profile to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Printf("cpu profile: %s\n", *cpuprofile)
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "webwave-bench: memprofile:", err)
				return
			}
			runtime.GC() // settle so the profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "webwave-bench: memprofile:", err)
			}
			f.Close()
			fmt.Printf("heap profile: %s\n", *memprofile)
		}()
	}

	if *list {
		for _, s := range workload.Scenarios() {
			d := s.WithDefaults()
			fmt.Printf("%-14s %3d nodes, %4d docs, %-7s popularity, %-7s arrivals, %.0f req/s for %.0fs\n",
				d.Name, d.Nodes, d.NumDocs, d.Popularity, d.Arrival, d.TotalRate, d.Duration)
		}
		fmt.Printf("%-14s live TCP stack, GOMAXPROCS sweep, req/s + per-core efficiency + Jain + hit rate\n",
			"core-scaling")
		fmt.Printf("%-14s live cluster under node churn: kill/restart interior nodes, availability + repair time + post-repair Jain\n",
			"chaos")
		fmt.Printf("%-14s chaos workload twice, cold vs warm (disk-tier) restarts: post-restart availability + reabsorb + recovered docs\n",
			"restart")
		fmt.Printf("%-14s corpus ~10x memory budget, three passes (in-ram / mem-only / two-tier): hit-rate retention + disk hits\n",
			"bigger-than-ram")
		return nil
	}

	if *scenario == "core-scaling" {
		sweep, err := parseProcs(*procs)
		if err != nil {
			return err
		}
		return runCoreScaling(workload.ScalingSpec{
			Seed: *seed, Nodes: *n, Clients: *clients,
			Duration: *duration, Procs: sweep, Repeat: *repeat,
		}, *jsonPath)
	}
	if *scenario == "chaos" {
		return runChaos(workload.ChaosSpec{
			Seed: *seed, Nodes: *n, TotalRate: *rate, Duration: *duration,
			KillFraction: *killFraction, HeartbeatMS: *heartbeatMS,
		}, *jsonPath)
	}
	if *scenario == "restart" {
		return runRestart(workload.RestartSpec{
			ChaosSpec: workload.ChaosSpec{
				Seed: *seed, Nodes: *n, TotalRate: *rate, Duration: *duration,
				KillFraction: *killFraction, HeartbeatMS: *heartbeatMS,
			},
			CacheBudgetBytes: *cacheBudget,
			DiskBudgetBytes:  *diskBudget,
		}, *jsonPath)
	}
	if *scenario == "bigger-than-ram" {
		return runBigram(workload.BigramSpec{
			Seed: *seed, Nodes: *n, Clients: *clients,
			BodyBytes: *docBytes, Duration: *duration,
			CacheBudgetBytes: *cacheBudget,
			DiskBudgetBytes:  *diskBudget,
		}, *jsonPath)
	}

	sp, ok := workload.Lookup(*scenario)
	if !ok {
		return fmt.Errorf("unknown scenario %q (try -list)", *scenario)
	}
	if *n > 0 {
		sp.Nodes = *n
	}
	if *duration > 0 {
		sp.Duration = *duration
	}
	if *rate > 0 {
		sp.TotalRate = *rate
	}
	if *window > 0 {
		sp.Window = *window
	}
	if *cacheBudget > 0 {
		sp.CacheBudgetBytes = *cacheBudget
	}
	if *docBytes > 0 {
		sp.DocBytes = *docBytes
	}

	var rep *workload.Report
	var err error
	switch *mode {
	case "fast":
		rep, err = workload.RunFast(sp, *seed)
	case "live":
		rep, err = workload.RunLive(sp, *seed, workload.LiveOptions{
			Speedup: *speedup, Clients: *clients,
			Transport: *transportName,
		})
	default:
		return fmt.Errorf("unknown mode %q (want fast or live)", *mode)
	}
	if err != nil {
		return err
	}

	printSummary(rep)

	return writeReport(*jsonPath, rep)
}

// writeReport writes rep to path as indented JSON and names the file; an
// empty path writes nothing.
func writeReport(path string, rep any) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
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
	fmt.Printf("report: %s\n", path)
	return nil
}

func printSummary(rep *workload.Report) {
	fmt.Printf("scenario %s (%s mode, seed %d): %d nodes (height %d), %d requests @ %.1f req/s, %d churn events\n",
		rep.Scenario, rep.Mode, rep.Seed, rep.Tree.Nodes, rep.Tree.Height,
		rep.Requests, rep.OfferedRPS, rep.ChurnEvents)
	fmt.Printf("%-12s %9s %7s %8s %8s %8s %8s %9s %9s\n",
		"system", "thr(r/s)", "failed", "p50(ms)", "p95(ms)", "p99(ms)", "hops", "jain", "max/mean")
	for _, s := range rep.Systems {
		fmt.Printf("%-12s %9.1f %7d %8.2f %8.2f %8.2f %8.2f %9.3f %9.2f\n",
			s.Name, s.ThroughputRPS, s.Failed,
			s.Latency.P50MS, s.Latency.P95MS, s.Latency.P99MS,
			s.MeanHops, s.MeanJain, s.WorstMaxOverMean)
	}
	for _, s := range rep.Systems {
		if s.Cache == nil {
			continue
		}
		c := s.Cache
		fmt.Printf("%-12s cache: policy=%-4s budget=%dB hit=%.3f evictions=%d evictedMB=%.1f maxnode=%dB overBudget=%v\n",
			s.Name, c.Policy, c.BudgetBytes, c.HitRate, c.Evictions,
			float64(c.EvictedBytes)/(1<<20), c.MaxNodeBytes, c.OverBudget)
	}
	fmt.Println("analytic capacity models (steady-state mean demand):")
	for _, b := range rep.Baselines {
		fmt.Printf("  %-12s thr=%8.1f maxload=%8.1f nodes=%3d ctl/req=%.2f bottleneck=%s\n",
			b.Name, b.ThroughputRPS, b.MaxLoadRPS, b.ServingNodes, b.ControlMsgsPerReq, b.Bottleneck)
	}
}
