// Package workload is the benchmark subsystem of the WebWave reproduction:
// an open-loop, fully seeded workload generator (Zipf / uniform / hot-set
// document popularity, Poisson and Pareto-burst arrivals, flash-crowd
// ramps, diurnal rate shifts, node-churn schedules), a windowed metrics
// pipeline (latency histograms, per-node load vectors, Jain's fairness
// index, max/mean imbalance per sliding window), and two scenario runners:
//
//   - RunFast replays a scenario in virtual time on the discrete-event
//     engine (internal/sim) against the document-level protocol simulator
//     (internal/docwave), producing a bit-for-bit deterministic report —
//     the mode CI regressions are judged by.
//
//   - RunLive replays the same schedule in compressed wall-clock time
//     against a live cluster (internal/cluster) through the HTTP gateway
//     (internal/gateway), exercising the real servers, transport and
//     packet filters.
//
// Both emit the same machine-readable Report comparing WebWave against the
// comparison policies simulated on the identical request trace, plus the
// analytic capacity models of internal/baseline.
package workload

import (
	"fmt"
)

// Popularity selects the document-popularity model.
type Popularity string

// Popularity models.
const (
	// PopZipf ranks documents by 1/rank^skew — the classic web popularity
	// model (s ≈ 1).
	PopZipf Popularity = "zipf"
	// PopUniform gives every document identical popularity.
	PopUniform Popularity = "uniform"
	// PopHotset gives HotsetSize documents a combined HotsetShare of the
	// traffic, uniformly, and spreads the remainder over the rest.
	PopHotset Popularity = "hotset"
)

// Arrival selects the request arrival process.
type Arrival string

// Arrival processes.
const (
	// ArrivalPoisson is memoryless open-loop arrivals at the nominal rate.
	ArrivalPoisson Arrival = "poisson"
	// ArrivalBursty modulates Poisson arrivals with a Pareto ON/OFF
	// envelope (heavy-tailed burst and silence periods, Crovella &
	// Bestavros style): ON with rate BurstFactor·λ for a 1/BurstFactor
	// fraction of time, preserving the long-run mean.
	ArrivalBursty Arrival = "bursty"
)

// FlashCrowd describes a hot-document flash event: between Start and
// Start+Ramp the aggregate rate climbs linearly to Factor×nominal, holds
// for Hold, then decays linearly over Decay. All the surplus traffic
// targets the HotDocs most popular documents.
type FlashCrowd struct {
	Start   float64 `json:"start"`    // seconds into the run
	Ramp    float64 `json:"ramp"`     // ramp-up duration, seconds
	Hold    float64 `json:"hold"`     // plateau duration, seconds
	Decay   float64 `json:"decay"`    // ramp-down duration, seconds
	Factor  float64 `json:"factor"`   // peak rate multiplier (≥ 1)
	HotDocs int     `json:"hot_docs"` // size of the flash document set
}

// factorAt returns the rate multiplier at time t (1 outside the event).
func (f *FlashCrowd) factorAt(t float64) float64 {
	if f == nil || f.Factor <= 1 {
		return 1
	}
	switch {
	case t < f.Start:
		return 1
	case t < f.Start+f.Ramp:
		return 1 + (f.Factor-1)*(t-f.Start)/f.Ramp
	case t < f.Start+f.Ramp+f.Hold:
		return f.Factor
	case t < f.Start+f.Ramp+f.Hold+f.Decay:
		return f.Factor - (f.Factor-1)*(t-f.Start-f.Ramp-f.Hold)/f.Decay
	default:
		return 1
	}
}

// Diurnal modulates the aggregate rate sinusoidally: rate(t) = nominal ×
// (1 + Amplitude·sin(2πt/Period)), modelling day/night demand shifts
// compressed into the run.
type Diurnal struct {
	Period    float64 `json:"period"`    // seconds per cycle
	Amplitude float64 `json:"amplitude"` // relative swing in [0, 1)
}

// factorAt returns the rate multiplier at time t.
func (d *Diurnal) factorAt(t float64) float64 {
	if d == nil || d.Amplitude <= 0 || d.Period <= 0 {
		return 1
	}
	return 1 + d.Amplitude*sin2pi(t/d.Period)
}

// ChurnSpec asks the generator for a node-churn schedule: Events nodes
// (non-root, distinct) go down at random times in the middle 80% of the
// run and come back after an exponential downtime of mean MeanDowntime.
type ChurnSpec struct {
	Events       int     `json:"events"`
	MeanDowntime float64 `json:"mean_downtime"` // seconds
}

// ChurnEvent is one scheduled node state flip.
type ChurnEvent struct {
	Time float64 `json:"time"`
	Node int     `json:"node"`
	Down bool    `json:"down"`
}

// Spec fully describes a benchmark scenario. The zero value is not usable;
// obtain specs from Lookup/Scenarios or fill the fields and let
// WithDefaults complete the rest.
type Spec struct {
	Name string `json:"name"`

	// Topology.
	Nodes       int `json:"nodes"`        // routing-tree size
	MaxChildren int `json:"max_children"` // branching bound for the random tree

	// Document catalog and popularity.
	NumDocs     int        `json:"num_docs"`
	Popularity  Popularity `json:"popularity"`
	ZipfSkew    float64    `json:"zipf_skew,omitempty"`
	HotsetSize  int        `json:"hotset_size,omitempty"`
	HotsetShare float64    `json:"hotset_share,omitempty"`

	// Demand.
	TotalRate   float64 `json:"total_rate"` // aggregate requests/second
	Duration    float64 `json:"duration"`   // seconds of schedule
	Arrival     Arrival `json:"arrival"`
	BurstFactor float64 `json:"burst_factor,omitempty"` // bursty: ON-rate multiplier
	ParetoAlpha float64 `json:"pareto_alpha,omitempty"` // bursty: tail index
	LeavesOnly  bool    `json:"leaves_only"`            // only leaves originate requests

	// Perturbations.
	Flash   *FlashCrowd `json:"flash,omitempty"`
	Diurnal *Diurnal    `json:"diurnal,omitempty"`
	Churn   *ChurnSpec  `json:"churn,omitempty"`

	// Protocol knobs.
	CacheCap        int  `json:"cache_cap,omitempty"` // per-node copy bound (0 = unlimited)
	Tunneling       bool `json:"tunneling"`
	RoundsPerWindow int  `json:"rounds_per_window"` // protocol rounds per metrics window

	// Cache capacity model (byte-budgeted stores). When CacheBudgetBytes
	// is set, every non-home node runs a byte-budgeted cachestore and the
	// fast runner compares eviction policies on the identical trace; the
	// live runner plumbs the budget into the real servers.
	CacheBudgetBytes int64 `json:"cache_budget_bytes,omitempty"` // per node, 0 = unlimited
	DocBytes         int   `json:"doc_bytes,omitempty"`          // body size per document (default 4096)
	CacheShards      int   `json:"cache_shards,omitempty"`       // store stripes (default 1 in fast mode)

	// Service/latency model (fast-forward mode).
	HopDelay     float64 `json:"hop_delay"`     // one-way per-edge delay, seconds
	ServiceTime  float64 `json:"service_time"`  // unloaded per-request service time, seconds
	NodeCapacity float64 `json:"node_capacity"` // requests/second per server

	// Metrics.
	Window float64 `json:"window"` // metrics window length, seconds
}

// WithDefaults fills unset fields with workable defaults.
func (s Spec) WithDefaults() Spec {
	if s.Nodes <= 0 {
		s.Nodes = 31
	}
	if s.MaxChildren <= 0 {
		s.MaxChildren = 3
	}
	if s.NumDocs <= 0 {
		s.NumDocs = 64
	}
	if s.Popularity == "" {
		s.Popularity = PopZipf
	}
	if s.Popularity == PopZipf && s.ZipfSkew <= 0 {
		s.ZipfSkew = 1.0
	}
	if s.Popularity == PopHotset {
		if s.HotsetSize <= 0 {
			s.HotsetSize = 4
		}
		if s.HotsetShare <= 0 || s.HotsetShare >= 1 {
			s.HotsetShare = 0.8
		}
	}
	if s.TotalRate <= 0 {
		s.TotalRate = 200
	}
	if s.Duration <= 0 {
		s.Duration = 30
	}
	if s.Arrival == "" {
		s.Arrival = ArrivalPoisson
	}
	if s.Arrival == ArrivalBursty {
		if s.BurstFactor < 1 {
			s.BurstFactor = 4
		}
		if s.ParetoAlpha <= 1 {
			s.ParetoAlpha = 1.5
		}
	}
	if s.RoundsPerWindow <= 0 {
		s.RoundsPerWindow = 4
	}
	if s.CacheBudgetBytes > 0 {
		if s.DocBytes <= 0 {
			s.DocBytes = 4096
		}
		if s.CacheShards <= 0 {
			// One stripe keeps the whole budget in a single segment, so the
			// per-node byte bound is exact regardless of doc-to-shard
			// hashing; live clusters may raise it for lock spreading.
			s.CacheShards = 1
		}
	}
	if s.HopDelay <= 0 {
		s.HopDelay = 0.005
	}
	if s.ServiceTime <= 0 {
		s.ServiceTime = 0.002
	}
	if s.NodeCapacity <= 0 {
		s.NodeCapacity = 500
	}
	if s.Window <= 0 {
		s.Window = 2
	}
	return s
}

// Validate rejects specs the generator cannot honor. Call on a spec that
// already has defaults applied.
func (s Spec) Validate() error {
	if s.Nodes < 2 {
		return fmt.Errorf("workload: need at least 2 nodes, got %d", s.Nodes)
	}
	switch s.Popularity {
	case PopZipf, PopUniform, PopHotset:
	default:
		return fmt.Errorf("workload: unknown popularity %q", s.Popularity)
	}
	switch s.Arrival {
	case ArrivalPoisson, ArrivalBursty:
	default:
		return fmt.Errorf("workload: unknown arrival %q", s.Arrival)
	}
	if s.Flash != nil {
		f := s.Flash
		if f.Factor < 1 {
			return fmt.Errorf("workload: flash factor %v < 1", f.Factor)
		}
		if f.Ramp <= 0 || f.Decay <= 0 {
			return fmt.Errorf("workload: flash ramp/decay must be positive")
		}
		if f.HotDocs < 1 || f.HotDocs > s.NumDocs {
			return fmt.Errorf("workload: flash hot_docs %d outside [1, %d]", f.HotDocs, s.NumDocs)
		}
		if f.Start >= s.Duration {
			return fmt.Errorf("workload: flash starts at %vs but the run ends at %vs", f.Start, s.Duration)
		}
	}
	if s.Diurnal != nil && (s.Diurnal.Amplitude < 0 || s.Diurnal.Amplitude >= 1) {
		return fmt.Errorf("workload: diurnal amplitude %v outside [0, 1)", s.Diurnal.Amplitude)
	}
	if s.Churn != nil && s.Churn.Events >= s.Nodes {
		return fmt.Errorf("workload: churn events %d >= nodes %d", s.Churn.Events, s.Nodes)
	}
	if s.HotsetSize > s.NumDocs {
		return fmt.Errorf("workload: hotset size %d > num docs %d", s.HotsetSize, s.NumDocs)
	}
	if s.CacheBudgetBytes > 0 {
		shards := int64(s.CacheShards)
		if shards <= 0 {
			shards = 1 // tolerate un-defaulted specs instead of dividing by zero
		}
		if int64(s.DocBytes) > s.CacheBudgetBytes/shards {
			return fmt.Errorf("workload: doc_bytes %d exceeds the per-shard budget %d (budget %d / %d shards); no document would fit",
				s.DocBytes, s.CacheBudgetBytes/shards, s.CacheBudgetBytes, shards)
		}
	}
	if s.Window > s.Duration {
		return fmt.Errorf("workload: window %v > duration %v", s.Window, s.Duration)
	}
	return nil
}

// rateFactorAt is the combined time-varying rate multiplier at time t.
func (s *Spec) rateFactorAt(t float64) float64 {
	return s.Flash.factorAt(t) * s.Diurnal.factorAt(t)
}

// peakRateFactor bounds rateFactorAt over the whole run (for thinning).
func (s *Spec) peakRateFactor() float64 {
	peak := 1.0
	if s.Flash != nil && s.Flash.Factor > peak {
		peak = s.Flash.Factor
	}
	if s.Diurnal != nil {
		peak *= 1 + s.Diurnal.Amplitude
	}
	return peak
}
