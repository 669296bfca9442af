package main

import (
	"bytes"
	"os"
	"sort"
	"strconv"
	"time"
)

// The benchmark runs on a few virtual CPUs of a shared host, and the
// hypervisor takes them away for other tenants whenever it likes: "steal"
// time, which Linux counts in the eighth column of /proc/stat. On the
// reference host the share of the VM's CPU time that is stolen sits near
// 3 % for minutes, then near 20 %, then above 30 %, and a closed loop that
// saturates both CPUs loses about 1.7 times that share of its throughput
// while the CPU time charged per request rises with it. No statistic over
// a run's own slices removes a spell that outlasts the run, so the two
// timing metrics are measured against steal instead: see atZeroSteal and
// observations.speed, and the README's section on steal for the numbers.

// userHz is the unit of /proc/stat's columns: USER_HZ, 100 on every Linux
// platform Go supports.
const userHz = 100

// hostSteal returns the CPU time the hypervisor has withheld from this
// machine since boot, summed over its CPUs; 0 where the kernel does not say
// (no /proc/stat, or a line older than the steal column).
func hostSteal() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	fields := bytes.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || string(fields[0]) != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(string(fields[8]), 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * (time.Second / userHz)
}

// atZeroSteal estimates what y would have read had the hypervisor stolen
// nothing: the least-squares slope of y on the stolen share x, one point
// per slice of the window, is taken out of every slice, and the median of
// what is left is the reading at x = 0. harm is the direction in which
// steal can push y (+1: it inflates y, -1: it deflates y); a slope of the
// other sign is noise and is taken as 0. Where steal is not reported, or
// never varied, that leaves the median slice, as robust against a
// neighbour's burst as a run's own statistics get.
func atZeroSteal(x, y []float64, harm float64) float64 {
	var mx, my float64
	for i := range x {
		mx += x[i] / float64(len(x))
		my += y[i] / float64(len(y))
	}
	var sxx, sxy float64
	for i := range x {
		sxx += (x[i] - mx) * (x[i] - mx)
		sxy += (x[i] - mx) * (y[i] - my)
	}
	slope := 0.0
	if sxx > 0 && sxy*harm > 0 {
		slope = sxy / sxx
	}
	rest := make([]float64, len(y))
	for i := range y {
		rest[i] = y[i] - slope*x[i]
	}
	sort.Float64s(rest)
	return percentile(rest, 50)
}
