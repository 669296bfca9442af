package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// result is one run of one workload in one mode, with what is needed to
// tell whether two results are comparable.
type result struct {
	Workload   string `json:"workload"`
	Trace      bool   `json:"trace"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"window_seconds"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	// StealFrac is the share of the machine's CPU time the hypervisor gave
	// to other tenants during the window (0 where the kernel does not say).
	StealFrac float64 `json:"steal_frac"`

	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	// Suspect lists reasons not to trust the run's timings: failures on an
	// unmodified tree, a load generator that ran late, a host that was mostly
	// someone else's, a leaked goroutine, a prediction of "no work" that did
	// not hold.
	Suspect []string `json:"suspect,omitempty"`
	// Defects lists wrong answers the system gave that its own contract
	// cannot see; they are counted per layer, not as failed operations.
	Defects []string           `json:"defects,omitempty"`
	Metrics map[string]measure `json:"metrics"`
}

// resultFile is what the benchmark writes under out/ and -compare reads.
type resultFile struct {
	Results []result `json:"results"`
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown" // a checkout without git history
	}
	return strings.TrimSpace(string(out))
}

// waitGoroutines waits for the goroutine count to fall back to base after
// a teardown and returns how many are left over.
func waitGoroutines(base int) int {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	return max(runtime.NumGoroutine()-base, 0)
}

// runOne measures one workload once. repeats is how many times the stack
// is set up; outDir receives scratch directories and, for a traced run,
// the trace file.
func runOne(sp spec, seed int64, seconds int, traced bool, repeats int, outDir string) (*result, error) {
	origin := time.Now()
	res := &result{
		Workload: sp.Name, Trace: traced, Seed: seed, Seconds: seconds,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(),
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	var tr *tracer
	if traced {
		tr = &tracer{}
	}
	baseGoroutines := runtime.NumGoroutine()

	// One set-up is everything between process start and the first warm-up
	// request: generating the inputs, starting the stack, priming it. Half
	// of them are timed before the run, the last of those carrying it, and
	// half after it: the host's bad spells last from seconds to minutes, and
	// half a minute apart the two batches rarely share one.
	var in *inputs
	var st *stack
	defer func() {
		if st != nil {
			st.close() // on every path: the disk-tier directory must not outlive the run
		}
	}()
	var setups, clusterSetups []time.Duration
	setUp := func(n int) error {
		for i := 0; i < n; i++ {
			if st != nil {
				st.close()
				st = nil
			}
			start := time.Now()
			in = generate(sp, seed, runtime.GOMAXPROCS(0), sp.Warmup+time.Duration(seconds)*time.Second)
			var err error
			if st, err = buildStack(sp, in, outDir); err != nil {
				return fmt.Errorf("set-up %d: %w", len(setups), err)
			}
			end := time.Now()
			tr.add(span{Name: "setup", Start: start, End: end})
			setups = append(setups, end.Sub(start))
			clusterSetups = append(clusterSetups, st.clusterDur)
		}
		return nil
	}
	if err := setUp((repeats + 1) / 2); err != nil {
		return nil, err
	}
	a := &stageA{c: st.c, traced: traced}
	var obs *observations
	if sp.closed() {
		obs = runClosed(st, in, seconds, tr, a)
	} else {
		obs = runOpen(st, in, seconds, tr, a)
	}
	if err := setUp(repeats / 2); err != nil {
		return nil, err
	}
	st.close()
	if a.err != nil {
		return nil, fmt.Errorf("stats scrape: %w", a.err)
	}
	if left := waitGoroutines(baseGoroutines); left > 0 {
		res.Suspect = append(res.Suspect, fmt.Sprintf("%d goroutines outlived cluster.Stop and gateway.Close", left))
	}

	const root = 0
	res.Attempted, res.Failed = obs.Attempted, obs.Failed
	res.Correct = obs.Attempted > 0 && obs.Failed == 0
	if obs.RMWViolations > 0 || obs.Mislabeled > 0 {
		res.Defects = append(res.Defects, fmt.Sprintf("%d reads carried a real version of the document under the wrong label; %d of them were older than their session's floor",
			obs.Mislabeled, obs.RMWViolations))
	}
	final := sumCounters(a.last, root)
	if final.overBudget > 1 {
		res.Correct = false
		res.Suspect = append(res.Suspect, fmt.Sprintf("a cache held %.3fx its byte budget", final.overBudget))
	}
	if obs.Failed > 0 {
		res.Suspect = append(res.Suspect, fmt.Sprintf("%d of %d operations failed on a tree that should fail none", obs.Failed, obs.Attempted))
		res.Suspect = append(res.Suspect, obs.Failures...)
	}
	if lag := percentile(sortedCopy(obs.LagMs), 99); lag > 5 {
		res.Suspect = append(res.Suspect, fmt.Sprintf("load generator ran late: lag p99 %.2f ms > 5 ms", lag))
	}
	res.StealFrac = obs.stealFrac()
	if res.StealFrac > maxStealFrac {
		res.Suspect = append(res.Suspect, fmt.Sprintf("the hypervisor withheld %.0f%% of the machine's CPU time: throughput and CPU per request are extrapolated a long way", 100*res.StealFrac))
	}
	if final.promotions > 0 {
		res.Suspect = append(res.Suspect, fmt.Sprintf("prediction broken: %v promotions with promotion off", final.promotions))
	}

	var m *metricSet
	if !traced {
		m = endToEndMetrics(obs, sp.closed(), setups, root)
	} else {
		m = newMetricSet(perLayer)
		clientMetrics(m, obs, in.Hash)
		m.set("host.steal_frac", res.StealFrac, int64(len(obs.Slices)))
		a.serverMetrics(m, obs, root)
		m.set("cluster.setup_ms_per_node", ms(slices.Min(clusterSetups))/float64(sp.Nodes), int64(len(clusterSetups)))
		replayStart := time.Now()
		if err := replayLayers(m, sp, in, outDir, tr); err != nil {
			return nil, err
		}
		tr.add(span{Name: "replay", Start: replayStart, End: time.Now()})
		if left := waitGoroutines(baseGoroutines); left > 0 {
			res.Suspect = append(res.Suspect, fmt.Sprintf("%d goroutines outlived the layer replays", left))
		}
		// The isolated layers should add up to the zero-hop request the
		// client saw: a local hit, plus the gateway where there is one.
		isolated := m.values["server.local_hit_rtt_p50_us"].Value
		if !sp.closed() {
			isolated += m.values["gateway.overhead_p50_us"].Value
		}
		hops0 := m.values["client.service_hops0_p50_ms"]
		m.set("trace.accounted_frac", ratio(isolated/1000, hops0.Value), hops0.N)

		// The layers a workload is built to bypass must have done no work.
		if sp.CacheBudgetBytes == 0 && m.values["cachestore.evicted_docs_per_kreq"].Value != 0 {
			res.Suspect = append(res.Suspect, "prediction broken: evictions without a cache budget")
		}
		if sp.DiskBudgetBytes == 0 && m.values["server.disk_hit_frac"].Value != 0 {
			res.Suspect = append(res.Suspect, "prediction broken: disk hits without a disk tier")
		}
		if err := tr.write(filepath.Join(outDir, "trace-"+sp.Name+".json"), origin); err != nil {
			return nil, err
		}
	}
	if missing := m.missing(); len(missing) > 0 {
		panic(fmt.Sprintf("benchmark: metrics never set: %v", missing))
	}
	res.Metrics = m.values
	return res, nil
}

// report prints a result for people, then writes it under outDir.
func report(res *result, outDir string) error {
	mode, defs := "untraced", endToEnd
	if res.Trace {
		mode, defs = "traced", perLayer
	}
	fmt.Printf("%s (%s): seed %d, window %d s, %d cores (GOMAXPROCS %d), %s, commit %s\n",
		res.Workload, mode, res.Seed, res.Seconds, res.NProc, res.GOMAXPROCS, res.GoVersion, res.Commit)
	fmt.Printf("  attempted %d, failed %d, correct %v, %.1f%% of the machine's CPU time stolen\n", res.Attempted, res.Failed, res.Correct, 100*res.StealFrac)
	(&metricSet{defs: defs, values: res.Metrics}).print()
	for _, s := range res.Suspect {
		fmt.Printf("  SUSPECT: %s\n", s)
	}
	for _, s := range res.Defects {
		fmt.Printf("  DEFECT: %s\n", s)
	}
	trace := 0
	if res.Trace {
		trace = 1
	}
	return writeResults(filepath.Join(outDir, fmt.Sprintf("%s-trace%d.json", res.Workload, trace)), []result{*res})
}

func writeResults(path string, results []result) error {
	data, err := json.MarshalIndent(resultFile{Results: results}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResults(path string) ([]result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f.Results, nil
}
