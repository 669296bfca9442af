// Command benchwire turns `go test -bench -benchmem` output into the
// machine-readable BENCH_wire.json artifact and enforces the allocation
// regression gate: any benchmark whose allocs/op grew to more than 2x its
// committed baseline (or above 0 when the baseline is allocation-free)
// fails the run. CI runs it via `make bench-micro` so the hot path's
// ns/op and allocs/op trajectory is recorded on every push.
//
// Usage:
//
//	go test -bench . -benchmem ./internal/netproto/ | benchwire -out BENCH_wire.json
//	benchwire -in bench.out -baseline bench/BENCH_wire_baseline.json -out BENCH_wire.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result.
type Benchmark struct {
	// Name is "<package>.<benchmark>" with the Benchmark prefix and the
	// -GOMAXPROCS suffix stripped, e.g. "netproto.EncodeGossip".
	Name     string  `json:"name"`
	NsOp     float64 `json:"ns_op"`
	BOp      float64 `json:"b_op"`
	AllocsOp float64 `json:"allocs_op"`
}

// Report is the BENCH_wire.json document.
type Report struct {
	Schema     string      `json:"schema"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchwire:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchwire", flag.ContinueOnError)
	in := fs.String("in", "", "bench output file (default stdin)")
	out := fs.String("out", "BENCH_wire.json", "JSON report path")
	baseline := fs.String("baseline", "", "baseline JSON to gate allocs/op regressions against")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	rep, err := parse(r)
	if err != nil {
		return err
	}
	if len(rep.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines found (was -benchmem passed?)")
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("benchwire: %d benchmarks -> %s\n", len(rep.Benchmarks), *out)

	if *baseline != "" {
		return gate(rep, *baseline)
	}
	return nil
}

// parse extracts benchmark result lines, qualifying names with the short
// package name from the surrounding `pkg:` headers.
func parse(r io.Reader) (*Report, error) {
	rep := &Report{Schema: "webwave-bench-micro/v1"}
	sc := bufio.NewScanner(r)
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "pkg:"); ok {
			full := strings.TrimSpace(rest)
			pkg = full[strings.LastIndexByte(full, '/')+1:]
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// BenchmarkName-8 N 32.89 ns/op 0 B/op 0 allocs/op
		if len(fields) < 4 {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			name = name[:i]
		}
		if pkg != "" {
			name = pkg + "." + name
		}
		b := Benchmark{Name: name, NsOp: -1, BOp: -1, AllocsOp: -1}
		for i := 2; i+1 < len(fields); i++ {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				b.NsOp = v
			case "B/op":
				b.BOp = v
			case "allocs/op":
				b.AllocsOp = v
			}
		}
		if b.NsOp < 0 {
			continue // not a result line (e.g. a failure message)
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rep, nil
}

// gate compares allocs/op against the baseline and fails on regressions.
func gate(rep *Report, baselinePath string) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("read baseline: %w", err)
	}
	base := &Report{}
	if err := json.Unmarshal(data, base); err != nil {
		return fmt.Errorf("parse baseline: %w", err)
	}
	got := make(map[string]Benchmark, len(rep.Benchmarks))
	for _, b := range rep.Benchmarks {
		got[b.Name] = b
	}
	var failures []string
	checked := 0
	for _, b := range base.Benchmarks {
		cur, ok := got[b.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchwire: warning: baseline benchmark %s missing from this run\n", b.Name)
			continue
		}
		checked++
		// Allocation-free paths may not silently start allocating: 2x of a
		// zero baseline is zero, so any allocation fails it.
		limit := 2 * b.AllocsOp
		if cur.AllocsOp > limit {
			failures = append(failures, fmt.Sprintf(
				"%s: %.0f allocs/op vs baseline %.0f (limit %.0f)",
				b.Name, cur.AllocsOp, b.AllocsOp, limit))
		}
	}
	if checked == 0 {
		return fmt.Errorf("no baseline benchmarks matched this run")
	}
	if len(failures) > 0 {
		return fmt.Errorf("allocs/op regressions:\n  %s", strings.Join(failures, "\n  "))
	}
	fmt.Printf("benchwire: allocs/op gate passed (%d benchmarks checked against %s)\n", checked, baselinePath)
	return nil
}
