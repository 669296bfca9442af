package main

import (
	"fmt"
	"time"
)

// Settings shared by every workload: TCP loopback, wire v2, tunneling on.
const (
	gossipPeriod    = 25 * time.Millisecond
	diffusionPeriod = 50 * time.Millisecond
	rateWindow      = 500 * time.Millisecond
	// gatewayTimeout is the gateway's own default. An answer later than
	// this is a failed operation; on the build host only a hypervisor stall
	// of seconds produces one.
	gatewayTimeout = 5 * time.Second

	defaultSeed    = 1
	defaultSeconds = 25
	// setupRepeats is how many times a run generates its inputs and builds
	// and primes the stack, half before the measured run and half after it;
	// setup_s is the fastest.
	setupRepeats = 20
	// primeDocs is how many of the hottest documents the priming pass
	// fetches, verified, through every entry point before a stack counts
	// as set up.
	primeDocs = 2
	// maxStealFrac is the stolen share of the machine's CPU time above which
	// a run is printed as SUSPECT: the zero-steal readings then rest on an
	// extrapolation longer than the data.
	maxStealFrac = 0.2
	// spanSample is the share of requests a traced slice records spans
	// for: one in spanSample.
	spanSample = 64
)

// treeParents is the fixed routing tree: node i's parent, with every
// parent index below its child's, so any prefix is itself a tree. The
// shape is irregular (fan-out 1..3, leaves at depths 2..5) and does not
// depend on the seed, because depth sets hops and latency and a seeded
// shape would make runs with different seeds incomparable.
var treeParents = []int{
	-1, 0, 0, 0, 1, 1, 1, 2, 2, 3, 4, 4, 7, 9, 9, // 15 nodes, height 3
	5, 5, 6, 8, 8, 10, 10, 10, 11, 12, 12, 13, 14, 14, 15, 20, // 31 nodes, height 5
}

// spec is one named workload. Everything the system's behaviour depends on
// is here; the seed only chooses which documents are hot, the request
// sequences, the entry nodes of open-loop requests and their arrival times.
type spec struct {
	Name string
	Why  string

	Nodes    int
	Docs     int
	DocBytes int
	Zipf     float64

	// Closed loop: one raw transport connection per non-root node, each
	// keeping Outstanding requests in flight. Open loop (Outstanding 0):
	// Rate operations per second through the gateway on a Poisson schedule.
	Outstanding int
	Rate        float64
	PutFrac     float64 // share of open-loop operations that are PUTs
	Sessions    int     // logical sessions threading X-WebWave-Session

	CacheBudgetBytes int64 // per node; 0 = unlimited
	DiskBudgetBytes  int64 // per node; 0 = no disk tier

	Warmup time.Duration
}

func (s spec) closed() bool { return s.Outstanding > 0 }

var workloads = []spec{
	{
		Name:  "hot-read-closed",
		Why:   "everything fits in RAM: server fast path, netproto codec and transport lanes do all the work; gateway, disk, eviction and writes do none",
		Nodes: 15, Docs: 32, DocBytes: 1 << 10, Zipf: 1.0,
		Outstanding: 2,
		Warmup:      4 * time.Second,
	},
	{
		Name:  "bigger-than-ram-closed",
		Why:   "working set 10x each node's memory budget with the disk tier on: cachestore eviction and spill, diskstore reads and journal dominate",
		Nodes: 15, Docs: 256, DocBytes: 4 << 10, Zipf: 0.7,
		Outstanding:      2,
		CacheBudgetBytes: 256 * (4 << 10) / 10,
		DiskBudgetBytes:  2 << 20,
		// Memory and disk tiers take about five seconds of this load to fill
		// and for diffusion to settle on them; throughput climbs by 40 % meanwhile.
		Warmup: 6 * time.Second,
	},
	{
		Name:  "edge-viral-open",
		Why:   "independent users at the HTTP edge at a fifth of saturation, a third of them after one document: gateway, parent round trips and diffusion's balance; only latency, CPU and balance can move",
		Nodes: 31, Docs: 64, DocBytes: 1 << 10, Zipf: 1.3,
		// Promotion (replica forests) stays off: with it on, the home
		// promotes and demotes the same documents every few seconds and
		// load_jain lands anywhere between 0.17 and 0.99 (README, "Defects
		// the benchmark surfaces"), so no balance metric could gate.
		Rate:   4000,
		Warmup: 3 * time.Second,
	},
	{
		Name:  "update-mix-open",
		Why:   "one write in ten with session tokens beside the reads: a read-path gain bought with stale or wrong answers shows here",
		Nodes: 31, Docs: 48, DocBytes: 1 << 10, Zipf: 1.0,
		Rate: 2000, PutFrac: 0.10, Sessions: 8,
		Warmup: 3 * time.Second,
	},
}

func findWorkload(name string) (spec, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// tiny shrinks a workload to a smoke-test size: same layers, a 7-node
// tree, fewer documents, a lower rate and a short warm-up.
func (s spec) tiny() spec {
	s.Nodes = 7
	s.Docs = min(s.Docs, 24)
	if s.CacheBudgetBytes > 0 {
		s.CacheBudgetBytes = int64(s.Docs*s.DocBytes) / 10
	}
	s.Rate = min(s.Rate, 400)
	s.Warmup = 300 * time.Millisecond
	return s
}
