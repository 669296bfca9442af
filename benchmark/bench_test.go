package main

import (
	"encoding/json"
	"flag"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSameSeedSameInputs(t *testing.T) {
	for _, sp := range workloads {
		a := generate(sp.tiny(), 7, 2, 2*time.Second)
		b := generate(sp.tiny(), 7, 2, 2*time.Second)
		c := generate(sp.tiny(), 8, 2, 2*time.Second)
		if a.Hash != b.Hash || !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 generated two different inputs (hash %d vs %d)", sp.Name, a.Hash, b.Hash)
		}
		if a.Hash == c.Hash {
			t.Errorf("%s: seeds 7 and 8 share schedule hash %d", sp.Name, a.Hash)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := sortedCopy([]float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6})
	for _, tc := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestBalanceHelpers(t *testing.T) {
	if got := jain([]float64{3, 3, 3, 3}); math.Abs(got-1) > 1e-12 {
		t.Errorf("jain of equal loads = %v, want 1", got)
	}
	if got := jain([]float64{8, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("jain of one loaded node in four = %v, want 0.25", got)
	}
	// Idle nodes do not count toward the mean: 6 against (6+2)/2.
	if got := maxOverMean([]float64{6, 2, 0, 0}); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("maxOverMean = %v, want 1.5", got)
	}
	if jain(nil) != 0 || maxOverMean(nil) != 0 || ratio(1, 0) != 0 {
		t.Error("empty inputs must read 0, not NaN")
	}
}

func TestBodyCheckRejectsWrongVersion(t *testing.T) {
	in := generate(workloads[3].tiny(), 1, 1, time.Second)
	v1 := docBody(in.DocIDs[0], 1, len(in.Bodies[0]))
	if !in.checkBody(0, 0, in.Bodies[0]) || !in.checkBody(0, 1, v1) {
		t.Fatal("a body does not verify as the version it is")
	}
	if in.checkBody(0, 1, in.Bodies[0]) {
		t.Error("version 0's body verified as version 1")
	}
	if in.checkBody(0, 0, v1) {
		t.Error("version 1's body verified as version 0")
	}
	if in.checkBody(1, 0, in.Bodies[0]) {
		t.Error("one document's body verified as another's")
	}
	if in.checkBody(0, 0, in.Bodies[0][:len(in.Bodies[0])-1]) {
		t.Error("a truncated body verified")
	}
	// A real version under the wrong label is recognised for what it is.
	if v, ok := in.bodyVersion(0, 9, v1); !ok || v != 1 {
		t.Errorf("version 1's body labelled 9 recognised as version %d (found %v)", v, ok)
	}
	if v, ok := in.bodyVersion(0, 0, v1); !ok || v != 1 {
		t.Errorf("version 1's body labelled 0 recognised as version %d (found %v)", v, ok)
	}
	if _, ok := in.bodyVersion(0, 3, in.Bodies[1]); ok {
		t.Error("another document's body recognised as a version of this one")
	}
}

// The benchmark must keep working while internal/workload, cmd/*, bench/
// and the paper-reproduction packages are collapsed or moved, so it may
// import none of them, nor the root package that re-exports them.
func TestImportsOnlyTheLiveStack(t *testing.T) {
	allowed := map[string]bool{}
	for _, p := range []string{"cachestore", "cluster", "core", "diskstore", "forest", "gateway", "netproto", "router", "transport", "tree"} {
		allowed["webwave/internal/"+p] = true
	}
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no source files found: %v", err)
	}
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if (path == "webwave" || strings.HasPrefix(path, "webwave/")) && !allowed[path] {
				t.Errorf("%s imports %s, which is not a live-stack package", file, path)
			}
		}
	}
}

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in the code")

// BENCHMARK.json is the contract other tools read; the tables in the code
// are what the benchmark does. They must say the same thing; after editing
// a table, `go test -run BenchmarkJSON -update` rewrites the file.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	if *update {
		type named struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}
		contract := struct {
			Command    []string    `json:"command"`
			Paths      []string    `json:"paths"`
			RunSeconds int         `json:"run_seconds"`
			Workloads  []named     `json:"workloads"`
			EndToEnd   []metricDef `json:"end_to_end"`
			PerLayer   []metricDef `json:"per_layer"`
		}{
			Command:    []string{"go", "run", "-C", "benchmark", "webwave/benchmark"},
			Paths:      []string{"benchmark"},
			RunSeconds: defaultSeconds,
			EndToEnd:   endToEnd,
			PerLayer:   perLayer,
		}
		for _, w := range workloads {
			contract.Workloads = append(contract.Workloads, named{w.Name, w.Why})
		}
		data, err := json.MarshalIndent(contract, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", key)
		}
	}
	if len(raw) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly 6", len(raw))
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", doc.Paths)
	}
	if len(doc.Command) == 0 || doc.Command[0] != "go" {
		t.Errorf("command = %v", doc.Command)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the code's default window is %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: listed %+v, defined %q: %q", i, doc.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the code:\n json %+v\n code %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the code:\n json %+v\n code %+v", doc.PerLayer, perLayer)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric name %q used twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
}

// A one-second, seven-node run of every workload, in both modes: every
// response verifies, every registered metric is reported, the trace file
// loads, and the layers a workload bypasses did no work. The four run side
// by side (most of a run is waiting), which keeps the package under 10 s.
func TestSmoke(t *testing.T) {
	var wg sync.WaitGroup
	for _, sp := range workloads {
		wg.Add(1)
		go func(sp spec, out string) {
			defer wg.Done()
			smoke(t, sp, out)
		}(sp.tiny(), t.TempDir())
	}
	wg.Wait()
}

func smoke(t *testing.T, sp spec, out string) {
	for _, traced := range []bool{false, true} {
		res, err := runOne(sp, 3, 1, traced, 1, out)
		if err != nil {
			t.Errorf("%s: %v", sp.Name, err)
			return
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s traced=%v: correct %v, %d of %d failed, suspect %v", sp.Name, traced, res.Correct, res.Failed, res.Attempted, res.Suspect)
			return
		}
		m := res.Metrics
		if !traced {
			for _, d := range endToEnd {
				if m[d.Name].Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", sp.Name, d.Name, m[d.Name].Value)
				}
			}
			continue
		}
		if sp.DiskBudgetBytes == 0 && (m["server.disk_hit_frac"].Value != 0 || m["diskstore.spills_per_kreq"].Value != 0) {
			t.Errorf("%s: disk tier worked on a workload without one", sp.Name)
		}
		if sp.CacheBudgetBytes == 0 && m["cachestore.evicted_docs_per_kreq"].Value != 0 {
			t.Errorf("%s: evictions on a workload without a cache budget", sp.Name)
		}
		if sp.CacheBudgetBytes > 0 && m["cachestore.max_bytes_over_budget"].Value > 1 {
			t.Errorf("%s: a cache held %vx its budget", sp.Name, m["cachestore.max_bytes_over_budget"].Value)
		}
		if m["server.promotions"].Value != 0 {
			t.Errorf("%s: promotions with promotion off", sp.Name)
		}
		if sp.PutFrac > 0 && m["client.rmw_read_p50_ms"].N == 0 {
			t.Errorf("%s: no write was followed by its session's read", sp.Name)
		}
		data, err := os.ReadFile(filepath.Join(out, "trace-"+sp.Name+".json"))
		if err != nil {
			t.Errorf("%s: %v", sp.Name, err)
			return
		}
		var tr struct {
			TraceEvents []chromeEvent `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &tr); err != nil || len(tr.TraceEvents) == 0 {
			t.Errorf("%s: trace file: %d events, err %v", sp.Name, len(tr.TraceEvents), err)
		}
	}
	if left, _ := filepath.Glob(filepath.Join(out, "*disk-*")); len(left) > 0 {
		t.Errorf("%s: scratch directories left behind: %v", sp.Name, left)
	}
}

func TestStackTeardownLeaksNoGoroutines(t *testing.T) {
	for _, sp := range []spec{workloads[1].tiny(), workloads[2].tiny()} { // closed with disk, open with gateway
		base := runtime.NumGoroutine()
		in := generate(sp, 1, 1, time.Second)
		st, err := buildStack(sp, in, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		st.close()
		if left := waitGoroutines(base); left > 0 {
			t.Errorf("%s: %d goroutines outlived cluster.Stop and gateway.Close", sp.Name, left)
		}
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, throughput float64, failed int64) string {
		metrics := map[string]measure{}
		for _, d := range endToEnd {
			metrics[d.Name] = measure{Value: 100, Unit: d.Unit}
		}
		metrics["throughput_rps"] = measure{Value: throughput, Unit: "1/s"}
		path := filepath.Join(dir, name)
		if err := writeResults(path, []result{{Workload: workloads[0].Name, Seed: 1, Seconds: 15, Failed: failed, Metrics: metrics}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 100, 0)
	for _, tc := range []struct {
		name       string
		throughput float64
		failed     int64
		pass       bool
	}{
		{"same.json", 100, 0, true},
		{"faster.json", 150, 0, true},
		{"within.json", 80, 0, true},
		{"slower.json", 70, 0, false},
		{"failing.json", 100, 1, false},
	} {
		pass, err := compareFiles(base, write(tc.name, tc.throughput, tc.failed))
		if err != nil || pass != tc.pass {
			t.Errorf("%s: pass %v err %v, want pass %v", tc.name, pass, err, tc.pass)
		}
	}
	if _, err := compareFiles(base, filepath.Join(dir, "missing.json")); err == nil {
		t.Error("comparing against a missing file did not fail")
	}
}

func TestAtZeroSteal(t *testing.T) {
	// Throughput 100 on a quiet host, losing twice the stolen share.
	x, y := make([]float64, 25), make([]float64, 25)
	for i := range x {
		x[i] = float64(i*7%25) / 100
		y[i] = 100 * (1 - 2*x[i])
	}
	if got := atZeroSteal(x, y, -1); math.Abs(got-100) > 1e-9 {
		t.Errorf("a line read at zero steal = %v, want 100", got)
	}
	// A slope in the direction steal cannot push is noise: the median stands.
	if got := atZeroSteal(x, y, +1); got != percentile(sortedCopy(y), 50) {
		t.Errorf("slope of the wrong sign: got %v, want the median %v", got, percentile(sortedCopy(y), 50))
	}
	// So it does where steal never varied (or is not reported at all).
	if got := atZeroSteal(make([]float64, len(y)), y, -1); got != percentile(sortedCopy(y), 50) {
		t.Errorf("no steal reported: got %v, want the median", got)
	}
	// One wild slice does not move the reading once the slope is out.
	y[3] = 5
	if got := atZeroSteal(x, y, -1); got < 90 || got > 110 {
		t.Errorf("one stalled slice moved the reading to %v", got)
	}
	if steal := hostSteal(); steal < 0 {
		t.Errorf("negative steal %v", steal)
	}
}
