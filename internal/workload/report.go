package workload

import (
	"fmt"

	"webwave/internal/baseline"
	"webwave/internal/stats"
	"webwave/internal/tree"
)

// Schema identifies the report format; bump on breaking changes.
const Schema = "webwave-bench/v1"

// Report is the machine-readable outcome of one benchmark run. All fields
// are plain values or slices — no maps — so encoding/json renders it
// byte-identically for identical runs.
type Report struct {
	Schema   string `json:"schema"`
	Scenario string `json:"scenario"`
	Mode     string `json:"mode"` // "fast" or "live"
	Seed     int64  `json:"seed"`

	Spec Spec     `json:"spec"`
	Tree TreeInfo `json:"tree"`

	Requests    int64   `json:"requests"` // generated by the schedule
	ChurnEvents int     `json:"churn_events"`
	OfferedRPS  float64 `json:"offered_rps"` // requests / duration

	// Systems are the policies replayed on the identical trace, WebWave
	// first. Every system carries the full latency and fairness series.
	Systems []SystemResult `json:"systems"`

	// Baselines are the analytic steady-state capacity models of
	// internal/baseline evaluated on the trace's mean demand vector.
	Baselines []BaselineResult `json:"baselines"`
}

// TreeInfo summarizes the routing tree a run used.
type TreeInfo struct {
	Nodes  int `json:"nodes"`
	Height int `json:"height"`
	Leaves int `json:"leaves"`
}

func treeInfo(t *tree.Tree) TreeInfo {
	return TreeInfo{Nodes: t.Len(), Height: t.Height(), Leaves: len(t.Leaves())}
}

// LatencyStats reports latency in milliseconds.
type LatencyStats struct {
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

func latencyStats(s stats.Summary) LatencyStats {
	ms := func(sec float64) float64 { return round6(sec * 1000) }
	return LatencyStats{
		MeanMS: ms(s.Mean), P50MS: ms(s.P50), P95MS: ms(s.P95),
		P99MS: ms(s.P99), MaxMS: ms(s.Max),
	}
}

// HistBucket is one latency histogram bucket (milliseconds).
type HistBucket struct {
	UpToMS float64 `json:"up_to_ms"` // -1 for the overflow bucket
	Count  int64   `json:"count"`
}

func histBuckets(h *stats.Histogram) []HistBucket {
	var out []HistBucket
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		up := -1.0
		if i < len(h.Bounds) {
			up = round6(h.Bounds[i] * 1000)
		}
		out = append(out, HistBucket{UpToMS: up, Count: c})
	}
	return out
}

// WindowStat is one metrics window of the fairness series.
type WindowStat struct {
	Start        float64 `json:"start"`
	End          float64 `json:"end"`
	Requests     int64   `json:"requests"`
	Failed       int64   `json:"failed,omitempty"`
	Jain         float64 `json:"jain"`
	MaxOverMean  float64 `json:"max_over_mean"`
	MaxLoadRPS   float64 `json:"max_load_rps"`
	ServingNodes int     `json:"serving_nodes"`
}

// SystemResult is one policy's measured outcome on the shared trace.
type SystemResult struct {
	Name          string       `json:"name"`
	Served        int64        `json:"served"`
	Failed        int64        `json:"failed"`
	ThroughputRPS float64      `json:"throughput_rps"`
	MeanHops      float64      `json:"mean_hops"`
	Latency       LatencyStats `json:"latency"`
	Histogram     []HistBucket `json:"histogram"`
	// MeanJain / WorstMaxOverMean aggregate the window series for one-look
	// comparison; Windows carries the full per-window imbalance trace.
	MeanJain         float64      `json:"mean_jain"`
	WorstMaxOverMean float64      `json:"worst_max_over_mean"`
	Windows          []WindowStat `json:"windows"`
	// Cache carries the cache-pressure outcome for byte-budgeted runs.
	Cache *CacheResult `json:"cache,omitempty"`
	// Nodes carries per-server scrape detail (live mode only).
	Nodes []NodeStat `json:"nodes,omitempty"`
}

// CacheResult summarizes how a byte-budgeted run behaved under memory
// pressure. HitRate is the fraction of served requests answered below the
// home server (origin offload); StoreHits/StoreMisses count lookups where
// the protocol placed a copy and the budget kept or destroyed it.
type CacheResult struct {
	Policy       string  `json:"policy"`
	BudgetBytes  int64   `json:"budget_bytes"` // per node
	DocBytes     int     `json:"doc_bytes,omitempty"`
	HitRate      float64 `json:"hit_rate"`
	StoreHits    int64   `json:"store_hits,omitempty"`
	StoreMisses  int64   `json:"store_misses,omitempty"`
	Evictions    int64   `json:"evictions"`
	EvictedBytes int64   `json:"evicted_bytes"`
	// MaxNodeBytes is the high-water cache size across non-home nodes;
	// OverBudget flags any node that ever exceeded its budget (an
	// invariant violation — always false unless the store is broken).
	MaxNodeBytes int64 `json:"max_node_bytes"`
	OverBudget   bool  `json:"over_budget,omitempty"`
}

// systemResult assembles a SystemResult from a collector.
func systemResult(name string, c *Collector, duration float64) SystemResult {
	windows := c.Windows()
	var jainSum float64
	var worst float64 = 1
	active := 0
	for _, w := range windows {
		if w.Requests == 0 {
			continue
		}
		active++
		jainSum += w.Jain
		if w.MaxOverMean > worst {
			worst = w.MaxOverMean
		}
	}
	meanJain := 1.0
	if active > 0 {
		meanJain = jainSum / float64(active)
	}
	return SystemResult{
		Name:             name,
		Served:           c.Served(),
		Failed:           c.Failed(),
		ThroughputRPS:    round6(float64(c.Served()) / duration),
		MeanHops:         round6(c.MeanHops()),
		Latency:          latencyStats(c.Latency()),
		Histogram:        histBuckets(c.Histogram()),
		MeanJain:         round6(meanJain),
		WorstMaxOverMean: round6(worst),
		Windows:          windows,
	}
}

// BaselineResult mirrors baseline.Metrics for the report.
type BaselineResult struct {
	Name              string  `json:"name"`
	ThroughputRPS     float64 `json:"throughput_rps"`
	MaxLoadRPS        float64 `json:"max_load_rps"`
	ServingNodes      int     `json:"serving_nodes"`
	ControlMsgsPerReq float64 `json:"control_msgs_per_req"`
	Bottleneck        string  `json:"bottleneck"`
}

// analyticBaselines evaluates internal/baseline's capacity models on the
// trace's mean demand.
func analyticBaselines(t *tree.Tree, tr *Trace, sp Spec) ([]BaselineResult, error) {
	p := baseline.DefaultParams()
	p.NodeCapacity = sp.NodeCapacity
	ms, err := baseline.Compare(t, tr.MeanDemand(sp.TotalRate), p)
	if err != nil {
		return nil, fmt.Errorf("workload: baselines: %w", err)
	}
	out := make([]BaselineResult, len(ms))
	for i, m := range ms {
		out[i] = BaselineResult{
			Name:              m.Name,
			ThroughputRPS:     round6(m.Throughput),
			MaxLoadRPS:        round6(m.MaxLoad),
			ServingNodes:      m.ServingNodes,
			ControlMsgsPerReq: round6(m.ControlMsgsPerReq),
			Bottleneck:        m.Bottleneck,
		}
	}
	return out, nil
}

// System returns the named system result, nil when absent.
func (r *Report) System(name string) *SystemResult {
	for i := range r.Systems {
		if r.Systems[i].Name == name {
			return &r.Systems[i]
		}
	}
	return nil
}
