package main

import (
	"os"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: webwave/internal/netproto
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkEncodeGossip-8         34776181                32.89 ns/op            0 B/op          0 allocs/op
BenchmarkDecodeRequestJSON-8      283923              4248 ns/op             248 B/op          6 allocs/op
PASS
ok      webwave/internal/netproto       9.961s
pkg: webwave/internal/server
BenchmarkServeCachedRequest-8    2169637               168.8 ns/op             0 B/op          0 allocs/op
PASS
`

func TestParse(t *testing.T) {
	rep, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %+v", len(rep.Benchmarks), rep.Benchmarks)
	}
	b := rep.Benchmarks[0]
	if b.Name != "netproto.EncodeGossip" || b.NsOp != 32.89 || b.AllocsOp != 0 {
		t.Errorf("first benchmark = %+v", b)
	}
	if rep.Benchmarks[1].AllocsOp != 6 || rep.Benchmarks[1].BOp != 248 {
		t.Errorf("second benchmark = %+v", rep.Benchmarks[1])
	}
	if rep.Benchmarks[2].Name != "server.ServeCachedRequest" {
		t.Errorf("package qualification broken: %+v", rep.Benchmarks[2])
	}
}

func TestGate(t *testing.T) {
	base := `{"schema":"webwave-bench-micro/v1","benchmarks":[
		{"name":"netproto.EncodeGossip","ns_op":30,"b_op":0,"allocs_op":0},
		{"name":"netproto.DecodeRequestJSON","ns_op":4000,"b_op":248,"allocs_op":6}]}`
	dir := t.TempDir()
	path := dir + "/baseline.json"
	if err := writeFile(path, base); err != nil {
		t.Fatal(err)
	}

	rep, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if err := gate(rep, path); err != nil {
		t.Errorf("clean run failed the gate: %v", err)
	}

	// A zero-baseline benchmark that starts allocating must fail, by one
	// allocation as much as by two.
	for _, n := range []float64{1, 2} {
		rep.Benchmarks[0].AllocsOp = n
		if err := gate(rep, path); err == nil {
			t.Errorf("0 -> %.0f allocs/op regression passed the gate", n)
		}
	}
	rep.Benchmarks[0].AllocsOp = 0

	// A >2x regression on an allocating benchmark must fail; 2x passes.
	rep.Benchmarks[1].AllocsOp = 13
	if err := gate(rep, path); err == nil {
		t.Error("6 -> 13 allocs/op regression passed the gate")
	}
	rep.Benchmarks[1].AllocsOp = 12
	if err := gate(rep, path); err != nil {
		t.Errorf("6 -> 12 allocs/op (exactly 2x) failed the gate: %v", err)
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
