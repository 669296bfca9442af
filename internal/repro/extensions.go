package repro

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"webwave/internal/baseline"
	"webwave/internal/cluster"
	"webwave/internal/core"
	"webwave/internal/fold"
	"webwave/internal/stats"
	"webwave/internal/trace"
	"webwave/internal/tree"
	"webwave/internal/wave"
)

// ---------------------------------------------------------------------------
// X1: baseline ablation (the Section 1/6 scalability argument).

// BaselineRow is one (system, tree size) evaluation.
type BaselineRow struct {
	System string
	Nodes  int
	baseline.Metrics
}

// BaselineResult sweeps tree size with demand proportional to size: a
// scalable system's throughput grows linearly, a directory-bound system
// saturates.
type BaselineResult struct {
	Sizes []int
	Rows  []BaselineRow
}

// RunBaselineComparison evaluates every baseline system on random trees of
// the given sizes, with total demand 500·n req/s and the default cost model.
func RunBaselineComparison(sizes []int, seed int64) (*BaselineResult, error) {
	res := &BaselineResult{Sizes: sizes}
	p := baseline.DefaultParams()
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(seed))
		t, err := tree.Random(n, rng)
		if err != nil {
			return nil, fmt.Errorf("baselines n=%d: %w", n, err)
		}
		e := trace.UniformRates(n, 0, 1000, rng)
		ms, err := baseline.Compare(t, e, p)
		if err != nil {
			return nil, fmt.Errorf("baselines n=%d: %w", n, err)
		}
		for _, m := range ms {
			res.Rows = append(res.Rows, BaselineRow{System: m.Name, Nodes: n, Metrics: m})
		}
	}
	return res, nil
}

// Render returns one row per (size, system).
func (r *BaselineResult) Render() string {
	var b strings.Builder
	b.WriteString("X1 — caching-system ablation (throughput req/s vs tree size)\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  n=%4d  %s\n", row.Nodes, row.Metrics)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// X2: erratic request rates (the paper's "ongoing simulation study").

// ErraticResult measures how WebWave tracks a regime-switching workload:
// after every regime change the distance to the new TLB spikes and then
// decays geometrically again.
type ErraticResult struct {
	Regimes        int
	RoundsPerShift int
	// RecoveryRatio[k] = distance at the end of regime k divided by the
	// distance right after the shift — below 1 means the protocol re-tracked.
	RecoveryRatio []float64
	FinalDistance float64
}

// RunErraticTracking switches spontaneous rates every roundsPerShift rounds
// and measures recovery within each regime.
func RunErraticTracking(n, regimes, roundsPerShift int, seed int64) (*ErraticResult, error) {
	rng := rand.New(rand.NewSource(seed))
	t, err := tree.Random(n, rng)
	if err != nil {
		return nil, fmt.Errorf("erratic: %w", err)
	}
	gen := trace.NewErratic(n, 1, 10, 100, rng)
	e := core.CloneVec(gen.Next())
	s, err := wave.NewSim(t, e, wave.Config{Initial: wave.InitialSelf, Alpha: wave.LocalDegreeAlpha(t)})
	if err != nil {
		return nil, fmt.Errorf("erratic: %w", err)
	}
	res := &ErraticResult{Regimes: regimes, RoundsPerShift: roundsPerShift}
	for k := 0; k < regimes; k++ {
		if k > 0 {
			e = core.CloneVec(gen.Next())
			if err := s.SetRates(e); err != nil {
				return nil, fmt.Errorf("erratic: regime %d: %w", k, err)
			}
		}
		tlb, err := fold.Compute(t, e)
		if err != nil {
			return nil, fmt.Errorf("erratic: regime %d: %w", k, err)
		}
		rr, err := s.Run(tlb.Load, roundsPerShift, 0)
		if err != nil {
			return nil, fmt.Errorf("erratic: regime %d: %w", k, err)
		}
		d0 := rr.Distances[0]
		dEnd := rr.Distances[len(rr.Distances)-1]
		ratio := 1.0
		if d0 > 0 {
			ratio = dEnd / d0
		}
		res.RecoveryRatio = append(res.RecoveryRatio, ratio)
		res.FinalDistance = dEnd
	}
	return res, nil
}

// Render returns per-regime recovery rows.
func (r *ErraticResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "X2 — erratic rates: %d regimes × %d rounds\n", r.Regimes, r.RoundsPerShift)
	for k, ratio := range r.RecoveryRatio {
		fmt.Fprintf(&b, "  regime %d: end/start distance ratio = %.4g\n", k, ratio)
	}
	fmt.Fprintf(&b, "  final distance: %.4g\n", r.FinalDistance)
	return b.String()
}

// ---------------------------------------------------------------------------
// X3: live cluster (goroutine servers over real messages).

// LiveConfig parameterizes the live-cluster experiment.
type LiveConfig struct {
	Tree      *tree.Tree
	NumDocs   int
	TotalRate float64 // requests/second
	Horizon   float64 // schedule length, seconds
	Seed      int64
	Tunneling bool

	// CacheBudgetBytes bounds each server's cached bytes (0 = unlimited);
	// CacheShards stripes the store (see internal/cachestore).
	CacheBudgetBytes int64
	CacheShards      int

	// DataDir non-empty adds the disk tier: per-node subdirectories holding
	// spilled bodies plus a recovery journal (see internal/diskstore).
	// DiskBudgetBytes bounds each node's on-disk bytes (0 = unlimited).
	DataDir         string
	DiskBudgetBytes int64

	// NumShards is each server's doc-sharded event loop count (0 =
	// GOMAXPROCS).
	NumShards int

	// Ancestors gives every non-root server a failover candidate list so a
	// node whose parent dies re-attaches to a surviving ancestor;
	// HeartbeatPeriod (>0 implies Ancestors) enables the liveness detector
	// and HeartbeatMisses its silence budget (0 = 3 periods). See
	// cluster.Config.
	Ancestors       bool
	HeartbeatPeriod time.Duration
	HeartbeatMisses int
}

// DefaultLiveConfig returns a laptop-scale live run: a 7-node binary tree,
// 8 Zipf documents, ~4000 req/s for 3 seconds.
func DefaultLiveConfig() LiveConfig {
	return LiveConfig{
		Tree:      tree.MustFromParents([]int{-1, 0, 0, 1, 1, 2, 2}),
		NumDocs:   8,
		TotalRate: 4000,
		Horizon:   3,
		Seed:      7,
		Tunneling: true,
	}
}

// LiveResult captures a live-cluster run.
type LiveResult struct {
	Requests     int
	Responses    int64
	MeanHops     float64
	Loads        core.Vector // served rate per node at end of run
	ServedCounts core.Vector
	TLB          core.Vector
	// RootShare is the fraction of all requests served by the home server —
	// 1.0 without caching, far less once WebWave spreads copies.
	RootShare float64
	// LoadRatio is max measured load / TLB max load.
	LoadRatio       float64
	DocsCachedTotal int
	// Latency summarizes inject-to-response times in seconds.
	Latency stats.Summary
}

// RunLiveCluster starts one goroutine server per tree node over an
// in-memory transport, plays a Poisson schedule, and scrapes the result.
func RunLiveCluster(cfg LiveConfig) (*LiveResult, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	demand, err := trace.ZipfDemand(cfg.Tree, trace.ZipfDemandConfig{
		NumDocs: cfg.NumDocs, Skew: 1.0, TotalRate: cfg.TotalRate, LeavesOnly: true,
	}, rng)
	if err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	docs := make(map[core.DocID][]byte, len(demand.Docs))
	for _, d := range demand.Docs {
		docs[d.ID] = []byte("webwave document body: " + string(d.ID))
	}
	c, err := cluster.New(cfg.Tree, docs, cluster.Config{
		GossipPeriod:     20 * time.Millisecond,
		DiffusionPeriod:  40 * time.Millisecond,
		Window:           400 * time.Millisecond,
		Tunneling:        cfg.Tunneling,
		CacheBudgetBytes: cfg.CacheBudgetBytes,
		CacheShards:      cfg.CacheShards,
		DataDir:          cfg.DataDir,
		DiskBudgetBytes:  cfg.DiskBudgetBytes,
		NumShards:        cfg.NumShards,
		Ancestors:        cfg.Ancestors,
		HeartbeatPeriod:  cfg.HeartbeatPeriod,
		HeartbeatMisses:  cfg.HeartbeatMisses,
	})
	if err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	defer c.Stop()

	sched := trace.PoissonSchedule(demand, cfg.Horizon, rng)
	if err := c.Play(sched, 1.0); err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	c.Drain(5 * time.Second)

	loads, err := c.Loads()
	if err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	served := c.ServedVector()
	tlb, err := fold.Compute(cfg.Tree, demand.NodeTotals())
	if err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	cached, err := c.CachedDocs()
	if err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	total := core.SumVec(served)
	rootShare := 0.0
	if total > 0 {
		rootShare = served[cfg.Tree.Root()] / total
	}
	maxLoad, _ := core.MaxVec(loads)
	ratio := 0.0
	if m := tlb.MaxLoad(); m > 0 {
		ratio = maxLoad / m
	}
	nCached := 0
	for _, ds := range cached {
		nCached += len(ds)
	}
	return &LiveResult{
		Requests:        len(sched),
		Responses:       c.Responses(),
		MeanHops:        c.MeanHops(),
		Loads:           loads,
		ServedCounts:    served,
		TLB:             tlb.Load,
		RootShare:       rootShare,
		LoadRatio:       ratio,
		DocsCachedTotal: nCached,
		Latency:         c.LatencySummary(),
	}, nil
}

// Render returns the live-run rows.
func (r *LiveResult) Render() string {
	var b strings.Builder
	b.WriteString("X3 — live cluster (goroutine servers, real messages)\n")
	fmt.Fprintf(&b, "  requests=%d responses=%d meanHops=%.3f rootShare=%.3f\n",
		r.Requests, r.Responses, r.MeanHops, r.RootShare)
	fmt.Fprintf(&b, "  measured loads: %s\n", formatVec(r.Loads))
	fmt.Fprintf(&b, "  TLB target:     %s\n", formatVec(r.TLB))
	fmt.Fprintf(&b, "  max-load ratio vs TLB: %.3f; cache copies in system: %d\n", r.LoadRatio, r.DocsCachedTotal)
	fmt.Fprintf(&b, "  response latency: p50=%.2gms p95=%.2gms p99=%.2gms\n",
		r.Latency.P50*1000, r.Latency.P95*1000, r.Latency.P99*1000)
	return b.String()
}
