package main

// CLI wiring for the core-scaling scenario (internal/workload.RunCoreScaling):
// parse the GOMAXPROCS sweep, run it, print the scaling table, write the
// JSON artifact CI's benchgate compares against the committed baseline.

import (
	"fmt"
	"strconv"
	"strings"

	"webwave/internal/workload"
)

// parseProcs turns "1,2,4,8" into the sweep list.
func parseProcs(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		n, err := strconv.Atoi(p)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -procs entry %q (want positive integers, e.g. 1,2,4,8)", p)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -procs sweep")
	}
	return out, nil
}

func runCoreScaling(sp workload.ScalingSpec, jsonPath string) error {
	sp = sp.WithDefaults()
	fmt.Printf("scenario core-scaling: %d nodes over TCP loopback, %d closed-loop clients, %d docs x %dB, %.1fs per core count, sweep %v\n",
		sp.Nodes, sp.Clients, sp.NumDocs, sp.BodyBytes, sp.Duration, sp.Procs)
	rep, err := workload.RunCoreScaling(sp, func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
	})
	if err != nil {
		return err
	}
	fmt.Printf("  host cores: %d; max speedup over 1 proc: %.2fx\n", rep.HostProcs, rep.SpeedupMaxOverOne)
	for _, r := range rep.Runs {
		fmt.Printf("  procs=%d shards=%d: eff=%.3f (%6.0f req/s/core)\n",
			r.Procs, r.Shards, r.Efficiency, r.PerCoreRPS)
	}

	return writeReport(jsonPath, rep)
}
