// Command benchmark is the repository's performance benchmark: four named
// workloads against the live stack over TCP loopback, each reporting the
// end-to-end metrics a client sees (untraced) or the per-layer metrics that
// say where the time went (traced). README.md is the glossary; the tables
// in metrics.go and spec.go are the definitions.
//
//	go run -C benchmark webwave/benchmark                  # every workload, untraced then traced
//	go run -C benchmark webwave/benchmark --workload hot-read-closed --seed 1 --seconds 15 --trace 0
//	go run -C benchmark webwave/benchmark -compare a.json b.json
//
// It reaches the system only through the exported API of the live-stack
// packages, and imports none of internal/workload, cmd/* or the paper
// stack (a test checks this), so those can be reshaped without touching
// the benchmark.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

func main() {
	workload := flag.String("workload", "", "run one workload and end with its one-line JSON result (default: all workloads, untraced then traced)")
	seed := flag.Int64("seed", defaultSeed, "seed for the generated inputs")
	seconds := flag.Int("seconds", defaultSeconds, "length of the measured window, in seconds")
	trace := flag.Int("trace", 0, "0 reports the end-to-end metrics, 1 the per-layer metrics")
	outDir := flag.String("out", "out", "directory for result files, traces and scratch data")
	compare := flag.Bool("compare", false, "compare the end-to-end metrics of two result files: -compare a.json b.json")
	flag.Parse()

	// One process hosts every server and the load generator; more than
	// four cores would mostly measure the host.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two result files")
			break
		}
		var pass bool
		if pass, err = compareFiles(flag.Arg(0), flag.Arg(1)); err == nil && !pass {
			os.Exit(1)
		}
	case *workload == "":
		err = runAll(*seed, *seconds, *outDir)
	default:
		err = runWorkload(*workload, *seed, *seconds, *trace != 0, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
}

// runWorkload is the driver's entry point: one workload, one mode, and as
// the last line of standard output the result as one JSON object.
func runWorkload(name string, seed int64, seconds int, traced bool, outDir string) error {
	sp, err := findWorkload(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds %d: need at least 1", seconds)
	}
	res, err := runOne(sp, seed, seconds, traced, setupRepeats, outDir)
	if err != nil {
		return err
	}
	if err := report(res, outDir); err != nil {
		return err
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]value, len(res.Metrics))}
	for name, m := range res.Metrics {
		line.Metrics[name] = value{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", data)
	return err
}

// runQuietly runs a single-workload child and passes its output through,
// except the one-line JSON result meant for the driver.
func runQuietly(cmd *exec.Cmd) error {
	out, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	lines := bufio.NewScanner(out)
	lines.Buffer(nil, 1<<20) // the traced result line is several KiB
	for lines.Scan() {
		if !strings.HasPrefix(lines.Text(), "{") {
			fmt.Println(lines.Text())
		}
	}
	return cmd.Wait()
}

// runAll runs every workload untraced, then traced, each in a process of
// its own so that CPU time and peak memory belong to one run, and gathers
// the results in out/<workload>.json and out/all.json.
func runAll(seed int64, seconds int, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var all []result
	for _, w := range workloads {
		var both []result
		for trace := 0; trace <= 1; trace++ {
			cmd := exec.Command(self, "--workload", w.Name, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace), "--out", outDir)
			cmd.Stderr = os.Stderr
			if err := runQuietly(cmd); err != nil {
				return fmt.Errorf("%s --trace %d: %w", w.Name, trace, err)
			}
			res, err := readResults(filepath.Join(outDir, fmt.Sprintf("%s-trace%d.json", w.Name, trace)))
			if err != nil {
				return err
			}
			both = append(both, res...)
		}
		if err := writeResults(filepath.Join(outDir, w.Name+".json"), both); err != nil {
			return err
		}
		all = append(all, both...)
	}
	if err := writeResults(filepath.Join(outDir, "all.json"), all); err != nil {
		return err
	}
	suspect := 0
	for _, r := range all {
		suspect += len(r.Suspect)
	}
	fmt.Printf("\n%d runs written to %s; %d SUSPECT notes (see above)\n", len(all), filepath.Join(outDir, "all.json"), suspect)
	return nil
}
