package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one metric the benchmark reports. The two tables below
// are the benchmark's contract: BENCHMARK.json lists exactly these names,
// units, directions and bounds (a test compares them), and -compare gates
// on the end-to-end bounds.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the client-observed metrics of an untraced run. Bound is
// the share of the reference median by which a metric may get worse before
// a change counts as a regression. Every metric is defined, and never
// zero, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_rps", "1/s", "higher", 0.25},
	{"offload_frac", "frac", "higher", 0.15},
	{"load_jain", "frac", "higher", 0.15},
	{"load_max_over_mean", "ratio", "lower", 0.25},
	{"cpu_s_per_kreq", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer are the diagnostics of a traced run: client-side spans and
// cluster.Stats deltas around the end-to-end run (stage A), then each
// layer replayed in isolation on the workload's own inputs (stage B).
// They carry no bound.
var perLayer = []metricDef{
	// Stage A: client.
	{"client.failed_frac", "frac", "lower", 0},
	{"client.mean_hops", "hops", "lower", 0},
	{"client.latency_p50_ms", "ms", "lower", 0},
	{"client.latency_p90_ms", "ms", "lower", 0},
	{"client.latency_p99_ms", "ms", "lower", 0},
	{"client.latency_p999_ms", "ms", "lower", 0},
	{"client.latency_max_ms", "ms", "lower", 0},
	{"client.service_p50_ms", "ms", "lower", 0},
	{"client.service_p90_ms", "ms", "lower", 0},
	{"client.service_hops0_p50_ms", "ms", "lower", 0},
	{"client.service_hops1_p50_ms", "ms", "lower", 0},
	{"client.service_hops2plus_p50_ms", "ms", "lower", 0},
	{"client.stale_read_frac", "frac", "lower", 0},
	{"client.staleness_p99_ms", "ms", "lower", 0},
	{"client.rmw_read_p50_ms", "ms", "lower", 0},
	{"client.rmw_violations", "count", "lower", 0},
	{"client.version_mislabels", "count", "lower", 0},
	// Stage A: load generator.
	{"loadgen.lag_p99_ms", "ms", "lower", 0},
	{"loadgen.lag_max_ms", "ms", "lower", 0},
	{"loadgen.max_inflight", "count", "lower", 0},
	{"loadgen.schedule_hash", "hash", "higher", 0},
	// Stage A: server counters, differenced over the window.
	{"server.fast_served_frac", "frac", "higher", 0},
	{"server.forwarded_per_req", "1/req", "lower", 0},
	{"server.coalesced_frac", "frac", "higher", 0},
	{"server.disk_hit_frac", "frac", "lower", 0},
	{"server.queue_len_mean", "count", "lower", 0},
	{"server.queue_len_max", "count", "lower", 0},
	{"server.pending_len_max", "count", "lower", 0},
	{"server.tunnels_per_kreq", "1/kreq", "lower", 0},
	{"server.gossip_per_req", "1/req", "lower", 0},
	{"server.delegations_per_s", "1/s", "lower", 0},
	{"server.sheds_per_s", "1/s", "lower", 0},
	{"server.lease_refreshes_per_write", "1/write", "lower", 0},
	{"server.session_refreshes_per_write", "1/write", "lower", 0},
	{"server.stale_drops", "count", "lower", 0},
	{"server.promotions", "count", "higher", 0},
	{"server.demotions", "count", "lower", 0},
	{"cachestore.evicted_docs_per_kreq", "1/kreq", "lower", 0},
	{"cachestore.evicted_bytes_per_req", "B/req", "lower", 0},
	{"cachestore.max_bytes_over_budget", "ratio", "lower", 0},
	{"diskstore.spills_per_kreq", "1/kreq", "lower", 0},
	{"diskstore.bytes_on_disk_mb", "MB", "lower", 0},
	{"diskstore.journal_lag_max", "count", "lower", 0},
	{"router.extracted_frac", "frac", "higher", 0},
	{"forest.replica_entry_frac", "frac", "higher", 0},
	{"forest.replica_load_max_over_mean", "ratio", "lower", 0},
	{"trace.overhead_frac", "frac", "lower", 0},
	{"host.steal_frac", "frac", "lower", 0},
	// Stage B: layer replay.
	{"netproto.encode_ns_per_frame", "ns", "lower", 0},
	{"netproto.decode_ns_per_frame", "ns", "lower", 0},
	{"netproto.encode_allocs_per_frame", "1/frame", "lower", 0},
	{"netproto.decode_allocs_per_frame", "1/frame", "lower", 0},
	{"netproto.bytes_per_frame", "B", "lower", 0},
	{"transport.rtt_p50_us", "us", "lower", 0},
	{"transport.send_ns_per_frame", "ns", "lower", 0},
	{"transport.allocs_per_frame", "1/frame", "lower", 0},
	{"server.local_hit_rtt_p50_us", "us", "lower", 0},
	{"server.local_hit_allocs_per_req", "1/req", "lower", 0},
	{"cachestore.get_ns", "ns", "lower", 0},
	{"cachestore.put_ns", "ns", "lower", 0},
	{"cachestore.put_evict_ns", "ns", "lower", 0},
	{"cachestore.allocs_per_put", "1/put", "lower", 0},
	{"cachestore.replay_hit_frac", "frac", "higher", 0},
	{"diskstore.get_us", "us", "lower", 0},
	{"diskstore.put_us", "us", "lower", 0},
	{"diskstore.journal_append_ns", "ns", "lower", 0},
	{"diskstore.journal_sync_us", "us", "lower", 0},
	{"diskstore.replay_open_ms", "ms", "lower", 0},
	{"gateway.serve_local_p50_us", "us", "lower", 0},
	{"gateway.overhead_p50_us", "us", "lower", 0},
	{"gateway.allocs_per_req", "1/req", "lower", 0},
	{"gateway.session_parse_ns", "ns", "lower", 0},
	{"router.classify_ns", "ns", "lower", 0},
	{"forest.two_choices_ns", "ns", "lower", 0},
	{"cluster.setup_ms_per_node", "ms", "lower", 0},
	{"cluster.stats_scrape_ms", "ms", "lower", 0},
	{"trace.accounted_frac", "frac", "higher", 0},
}

// measure is one reported value; N is the sample count behind it (0 when
// the value is a plain counter or ratio of counters).
type measure struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int64   `json:"n,omitempty"`
}

// metricSet collects one run's values for one of the two tables.
type metricSet struct {
	defs   []metricDef
	values map[string]measure
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: make(map[string]measure, len(defs))}
}

// set records a value under a registered name. An unregistered name is a
// bug in the benchmark, not an input error.
func (m *metricSet) set(name string, v float64, n int64) {
	for _, d := range m.defs {
		if d.Name == name {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			m.values[name] = measure{Value: v, Unit: d.Unit, N: n}
			return
		}
	}
	panic("benchmark: unregistered metric " + name)
}

// missing lists registered names no value was recorded for.
func (m *metricSet) missing() []string {
	var out []string
	for _, d := range m.defs {
		if _, ok := m.values[d.Name]; !ok {
			out = append(out, d.Name)
		}
	}
	return out
}

func (m *metricSet) print() {
	for _, d := range m.defs {
		v := m.values[d.Name]
		n := ""
		if v.N > 0 {
			n = fmt.Sprintf("n=%d", v.N)
		}
		fmt.Printf("  %-38s %16.6g %-8s %s\n", d.Name, v.Value, v.Unit, n)
	}
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending-sorted slice, 0 when empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// sortedCopy returns an ascending copy of xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// jain is Jain's fairness index (sum x)^2 / (n * sum x^2): 1 when every
// node serves equally, 1/n when one node serves everything.
func jain(xs []float64) float64 {
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// maxOverMean is DistCache's imbalance ratio over the nodes that served at
// all: the busiest node's share against the mean.
func maxOverMean(xs []float64) float64 {
	var sum, mx float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += x
			n++
			mx = max(mx, x)
		}
	}
	if n == 0 {
		return 0
	}
	return mx / (sum / float64(n))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
