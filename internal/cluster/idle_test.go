//go:build unix

package cluster

import (
	"syscall"
	"testing"
	"time"

	"webwave/internal/core"
	"webwave/internal/tree"
)

// cpuTime returns the user plus system CPU time this process has used.
func cpuTime(tb testing.TB) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		tb.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// BenchmarkIdleTree measures what an idle tree costs: a 31-node binary tree
// on the memory network, at the benchmark's gossip, diffusion and window
// periods (25/50/500 ms), holding documents and serving nothing. Each
// iteration is 100 ms of wall time; the metric is the process's CPU seconds
// per wall second over them. It depends on the host (cores, GOMAXPROCS,
// neighbours), so it reports and gates nothing.
func BenchmarkIdleTree(b *testing.B) {
	tr, err := tree.KAry(2, 4)
	if err != nil {
		b.Fatal(err)
	}
	docs := map[core.DocID][]byte{"a": []byte("body a"), "b": []byte("body b")}
	c, err := New(tr, docs, Config{
		GossipPeriod:    25 * time.Millisecond,
		DiffusionPeriod: 50 * time.Millisecond,
		Window:          500 * time.Millisecond,
		Tunneling:       true,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Stop()
	time.Sleep(time.Second) // children register and the first gossip settles
	b.ResetTimer()
	cpu0, wall0 := cpuTime(b), time.Now()
	for i := 0; i < b.N; i++ {
		time.Sleep(100 * time.Millisecond)
	}
	b.ReportMetric((cpuTime(b)-cpu0).Seconds()/time.Since(wall0).Seconds(), "cpu-s/s")
}
