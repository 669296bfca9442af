package main

import (
	"slices"
	"sort"
	"syscall"
	"time"
)

// observations is what a driver saw from the client side of the measured
// window, in the same shape for the closed and the open loop.
type observations struct {
	Window    time.Duration
	PeakRSSMB float64 // peak resident set when the window closed

	Attempted int64
	Failed    int64
	Failures  []string // what was wrong with the first few failed operations
	Verified  int64    // the throughput numerator: verified scheduled operations

	// One entry per verified scheduled read: latency from the scheduled
	// time (open loop) or from send (closed loop), the same from the moment
	// the call was actually made, and the hops it took.
	LatMs     []float64
	ServiceMs []float64
	Hops      []uint8
	Served    []float64 // verified reads per serving node
	Reads     int64     // verified reads, scheduled or not

	LagMs       []float64 // open loop: how late each operation was dispatched
	MaxInflight int64

	// The window cut into its one-second slices.
	Slices []sliceObs

	Writes        int64
	StaleReads    int64
	StalenessMs   []float64 // per read of a written document, 0 when fresh
	RMWMs         []float64 // latency of the floored read after each write
	RMWViolations int64
	Mislabeled    int64 // reads whose body is a real version other than the one claimed
	Rerouted      int64 // reads the gateway entered at a replica root
}

// sliceObs is one second of the window. The latency metrics are medians
// over slices: on a shared host a neighbour's burst slows a few slices
// badly, which moves a mean over the window but not the median slice.
// Throughput and CPU per request are read at zero steal (host.go).
type sliceObs struct {
	sliceCost
	Count     int64     // verified scheduled operations
	LatMs     []float64 // verified scheduled reads, end-to-end latency
	ServiceMs []float64 // open loop: the same reads from the actual call
}

// newObservations closes the window that began at start: elapsed time and
// peak memory are read here, before post-processing the samples costs any
// of its own.
func newObservations(start time.Time, costs []sliceCost, nodes int) *observations {
	_, peak := rusage()
	obs := &observations{
		Window: time.Since(start), PeakRSSMB: peak,
		Served: make([]float64, nodes), Slices: make([]sliceObs, len(costs)),
	}
	for i, c := range costs {
		obs.Slices[i].sliceCost = c
	}
	return obs
}

// fail counts one failed operation and keeps the first few reasons.
func (obs *observations) fail(why string) {
	obs.Failed++
	if len(obs.Failures) < 5 {
		obs.Failures = append(obs.Failures, why)
	}
}

// atZeroSteal is f(slice) over the window's slices, read at zero steal;
// harm is the direction steal pushes f in.
func (obs *observations) atZeroSteal(harm float64, f func(sliceObs) float64) float64 {
	x, y := make([]float64, len(obs.Slices)), make([]float64, len(obs.Slices))
	for i, sl := range obs.Slices {
		x[i], y[i] = sl.Steal, f(sl)
	}
	return atZeroSteal(x, y, harm)
}

// speed returns the run's two timing figures as an unshared host would
// have shown them: verified operations per second, and the process CPU
// seconds per thousand of them. An open loop completes what its schedule
// offers whatever is stolen, so its throughput is the median slice's. A
// closed loop is bound by the CPU, and its throughput is taken apart into
// the CPU seconds the process used per second and the operations it
// completed per CPU second: each of those is close to linear in the stolen
// share (the first by accounting: what is stolen cannot be used; the second
// by measurement) while their product is not, which matters once a fifth
// of the machine is stolen.
func (obs *observations) speed(closed bool) (throughput, cpuPerKreq float64) {
	perCPUSecond := obs.atZeroSteal(-1, func(sl sliceObs) float64 { return ratio(float64(sl.Count), sl.CPU.Seconds()) })
	cpuPerKreq = ratio(1000, perCPUSecond)
	if !closed {
		return obs.overSlices(func(sl sliceObs) float64 { return float64(sl.Count) }), cpuPerKreq
	}
	cpuPerSecond := obs.atZeroSteal(-1, func(sl sliceObs) float64 { return ratio(sl.CPU.Seconds(), sl.Dur.Seconds()) })
	return perCPUSecond * cpuPerSecond, cpuPerKreq
}

// stealFrac is the share of the machine's CPU time the hypervisor withheld
// over the window.
func (obs *observations) stealFrac() float64 {
	sum := 0.0
	for _, sl := range obs.Slices {
		sum += sl.Steal
	}
	return ratio(sum, float64(len(obs.Slices)))
}

// overSlices is the median over the window's slices of f(slice).
func (obs *observations) overSlices(f func(sliceObs) float64) float64 {
	vals := make([]float64, len(obs.Slices))
	for i, sl := range obs.Slices {
		vals[i] = f(sl)
	}
	sort.Float64s(vals)
	return percentile(vals, 50)
}

// rusage returns the process's user plus system CPU time so far (the
// load generator runs in this process and is included) and its peak
// resident set (VmHWM) in MB, which Linux reports in KiB.
func rusage() (cpu time.Duration, peakRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), float64(ru.Maxrss) / 1024
}

// endToEndMetrics derives the untraced run's metrics.
func endToEndMetrics(obs *observations, closed bool, setups []time.Duration, root int) *metricSet {
	m := newMetricSet(endToEnd)
	// The fastest of the repeated set-ups: everything the host does to a
	// set-up lengthens it (a stolen CPU stalls its chain of handshakes for
	// milliseconds at a time), so the shortest is the one the host disturbed
	// least. Between runs it moved a third as much as the median did.
	m.set("setup_s", slices.Min(setups).Seconds(), int64(len(setups)))

	throughput, cpuPerKreq := obs.speed(closed)
	m.set("throughput_rps", throughput, obs.Verified)
	m.set("offload_frac", 1-ratio(obs.Served[root], float64(obs.Reads)), obs.Reads)
	m.set("load_jain", jain(obs.Served), obs.Reads)
	m.set("load_max_over_mean", maxOverMean(obs.Served), obs.Reads)
	m.set("cpu_s_per_kreq", cpuPerKreq, obs.Verified)
	m.set("peak_rss_mb", obs.PeakRSSMB, 0)
	return m
}

// clientMetrics derives the client.*, loadgen.* and trace.overhead_frac
// metrics of a traced run.
func clientMetrics(m *metricSet, obs *observations, hash uint32) {
	lat := sortedCopy(obs.LatMs)
	n := int64(len(lat))
	var byHops [3][]float64
	hopsSum := 0
	for i, h := range obs.Hops {
		byHops[min(int(h), 2)] = append(byHops[min(int(h), 2)], obs.ServiceMs[i])
		hopsSum += int(h)
	}
	m.set("client.failed_frac", ratio(float64(obs.Failed), float64(obs.Attempted)), obs.Attempted)
	m.set("client.mean_hops", ratio(float64(hopsSum), float64(n)), n)
	m.set("client.latency_p50_ms", obs.overSlices(func(sl sliceObs) float64 { return percentile(sortedCopy(sl.LatMs), 50) }), n)
	m.set("client.latency_p90_ms", obs.overSlices(func(sl sliceObs) float64 { return percentile(sortedCopy(sl.LatMs), 90) }), n)
	m.set("client.latency_p99_ms", percentile(lat, 99), n)
	m.set("client.latency_p999_ms", percentile(lat, 99.9), n)
	m.set("client.latency_max_ms", percentile(lat, 100), n)
	service := sortedCopy(obs.ServiceMs)
	m.set("client.service_p50_ms", percentile(service, 50), n)
	m.set("client.service_p90_ms", percentile(service, 90), n)
	for i, name := range []string{"client.service_hops0_p50_ms", "client.service_hops1_p50_ms", "client.service_hops2plus_p50_ms"} {
		m.set(name, percentile(sortedCopy(byHops[i]), 50), int64(len(byHops[i])))
	}
	m.set("client.stale_read_frac", ratio(float64(obs.StaleReads), float64(obs.Reads)), obs.Reads)
	m.set("client.staleness_p99_ms", percentile(sortedCopy(obs.StalenessMs), 99), int64(len(obs.StalenessMs)))
	m.set("client.rmw_read_p50_ms", percentile(sortedCopy(obs.RMWMs), 50), int64(len(obs.RMWMs)))
	m.set("client.rmw_violations", float64(obs.RMWViolations), obs.Reads)
	m.set("client.version_mislabels", float64(obs.Mislabeled), obs.Reads)

	lag := sortedCopy(obs.LagMs)
	m.set("loadgen.lag_p99_ms", percentile(lag, 99), int64(len(lag)))
	m.set("loadgen.lag_max_ms", percentile(lag, 100), int64(len(lag)))
	m.set("loadgen.max_inflight", float64(obs.MaxInflight), 0)
	m.set("loadgen.schedule_hash", float64(hash), 0)
	m.set("forest.replica_entry_frac", ratio(float64(obs.Rerouted), float64(obs.Reads)), obs.Reads)

	// Tracing overhead from the run's own two halves, odd slices traced:
	// lost throughput on the closed loop, added median service time on the
	// open loop.
	var count [2]float64
	var halves [2][]float64
	for i, sl := range obs.Slices {
		count[i%2] += float64(sl.Count) / float64((len(obs.Slices)+1-i%2)/2) // mean per slice
		halves[i%2] = append(halves[i%2], sl.ServiceMs...)
	}
	overhead := 0.0
	if len(halves[1]) > 0 {
		overhead = ratio(percentile(sortedCopy(halves[1]), 50), percentile(sortedCopy(halves[0]), 50)) - 1
	} else if count[1] > 0 {
		overhead = 1 - ratio(count[1], count[0])
	}
	m.set("trace.overhead_frac", overhead, int64(len(obs.Slices)/2))
}
