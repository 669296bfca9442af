package workload

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"webwave/internal/cluster"
	"webwave/internal/core"
	"webwave/internal/gateway"
	"webwave/internal/trace"
	"webwave/internal/transport"
)

// originHeader carries the schedule's per-request entry node through the
// gateway.
const originHeader = "X-WebWave-Enter"

// LiveOptions tunes the live (wall-clock) runner.
type LiveOptions struct {
	// Speedup compresses the schedule: a request at schedule time T is
	// issued T/Speedup seconds after start. Default 10.
	Speedup float64
	// Clients is the number of concurrent HTTP workers. Default 16.
	Clients int
	// GossipPeriod / DiffusionPeriod / Window override the cluster's
	// protocol timers; defaults are fast (25/50/500 ms) so short
	// compressed runs still see diffusion happen.
	GossipPeriod    time.Duration
	DiffusionPeriod time.Duration
	Window          time.Duration
	// Transport selects the cluster's links: "" or "mem" is the in-process
	// memory network, "tcp" runs the tree over real loopback sockets (and
	// so through the wire codec).
	Transport string
	// NumShards is each server's doc-sharded event loop count (0 =
	// GOMAXPROCS).
	NumShards int
}

func (o LiveOptions) withDefaults() LiveOptions {
	if o.Speedup <= 0 {
		o.Speedup = 10
	}
	if o.Clients <= 0 {
		o.Clients = 16
	}
	if o.GossipPeriod <= 0 {
		o.GossipPeriod = 25 * time.Millisecond
	}
	if o.DiffusionPeriod <= 0 {
		o.DiffusionPeriod = 50 * time.Millisecond
	}
	if o.Window <= 0 {
		o.Window = 500 * time.Millisecond
	}
	return o
}

// respSink is the minimal ResponseWriter the load workers hand to the
// gateway: it keeps status and headers, discards the body.
type respSink struct {
	status int
	header http.Header
}

func (r *respSink) Header() http.Header { return r.header }

func (r *respSink) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return len(b), nil
}

func (r *respSink) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *respSink) statusCode() int {
	if r.status == 0 {
		return http.StatusOK
	}
	return r.status
}

// NodeStat is one live server's end-of-run scrape.
type NodeStat struct {
	Node          int     `json:"node"`
	Served        int64   `json:"served"`
	FastServed    int64   `json:"fast_served,omitempty"`
	Forwarded     int64   `json:"forwarded"`
	Coalesced     int64   `json:"coalesced,omitempty"`
	LoadRPS       float64 `json:"load_rps"`
	CachedDocs    int     `json:"cached_docs"`
	CacheBytes    int64   `json:"cache_bytes"`
	MaxCacheBytes int64   `json:"max_cache_bytes,omitempty"`
	EvictedDocs   int64   `json:"evicted_docs,omitempty"`
	EvictedBytes  int64   `json:"evicted_bytes,omitempty"`
	QueueLen      int     `json:"queue_len"`
	PendingLen    int     `json:"pending_len,omitempty"`
	Tunnels       int64   `json:"tunnels"`
}

// liveCacheResult aggregates the scraped per-node cache counters into the
// report's cache-pressure summary. The home node is excluded from budget
// accounting (its originals are pinned); HitRate is the share of serves
// that happened below it.
func liveCacheResult(sp Spec, root int, nodes []NodeStat) *CacheResult {
	cr := &CacheResult{
		Policy:      "heat", // a live server evicts the copy with the least duty per byte
		BudgetBytes: sp.CacheBudgetBytes,
		DocBytes:    sp.DocBytes,
	}
	var total, below int64
	for _, ns := range nodes {
		total += ns.Served
		if ns.Node == root {
			continue
		}
		below += ns.Served
		cr.Evictions += ns.EvictedDocs
		cr.EvictedBytes += ns.EvictedBytes
		if ns.MaxCacheBytes > cr.MaxNodeBytes {
			cr.MaxNodeBytes = ns.MaxCacheBytes
		}
		if ns.MaxCacheBytes > sp.CacheBudgetBytes {
			cr.OverBudget = true
		}
	}
	if total > 0 {
		cr.HitRate = round6(float64(below) / float64(total))
	}
	return cr
}

// RunLive replays the scenario's schedule against a real cluster through
// the HTTP gateway over the in-memory transport. The same (spec, seed)
// yields the same tree and request trace as RunFast; latencies and the
// resulting report are wall-clock measurements and NOT deterministic.
func RunLive(sp Spec, seed int64, opt LiveOptions) (*Report, error) {
	sp = sp.WithDefaults()
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if sp.CacheCap > 0 {
		// CacheCap is the fluid simulator's copy-count knob; the live
		// server enforces byte budgets (CacheBudgetBytes) instead. Running
		// anyway would produce a report whose spec claims a cap that
		// wasn't enforced.
		return nil, fmt.Errorf("workload: live mode does not support cache_cap (scenario %q sets %d); use cache_budget_bytes or fast mode", sp.Name, sp.CacheCap)
	}
	opt = opt.withDefaults()
	t, err := BuildTree(sp, seed)
	if err != nil {
		return nil, fmt.Errorf("workload: tree: %w", err)
	}
	tr, err := Generate(sp, t, traceSeed(seed))
	if err != nil {
		return nil, err
	}

	docs := make(map[core.DocID][]byte, len(tr.DocWeights))
	for j := range tr.DocWeights {
		id := DocID(j)
		if sp.DocBytes > 0 {
			docs[id] = make([]byte, sp.DocBytes)
			copy(docs[id], id)
		} else {
			docs[id] = []byte("webwave live document " + string(id))
		}
	}
	ccfg := cluster.Config{
		GossipPeriod:     opt.GossipPeriod,
		DiffusionPeriod:  opt.DiffusionPeriod,
		Window:           opt.Window,
		Tunneling:        sp.Tunneling,
		CacheBudgetBytes: sp.CacheBudgetBytes,
		CacheShards:      sp.CacheShards,
		NumShards:        opt.NumShards,
	}
	switch opt.Transport {
	case "", "mem":
		// cluster's default in-memory network.
	case "tcp":
		if len(tr.Churn) > 0 {
			return nil, fmt.Errorf("workload: scenario %q uses churn, which needs the memory transport's link faults; run it with Transport \"mem\"", sp.Name)
		}
		ccfg.Network = transport.TCPNetwork{}
		ccfg.AddrFor = func(int) string { return "127.0.0.1:0" }
	default:
		return nil, fmt.Errorf("workload: unknown transport %q (want mem or tcp)", opt.Transport)
	}
	c, err := cluster.New(t, docs, ccfg)
	if err != nil {
		return nil, fmt.Errorf("workload: cluster: %w", err)
	}
	defer c.Stop()

	gw := gateway.New(c, gateway.Config{
		Origin: gateway.OriginFromHeader(originHeader, gateway.FixedOrigin(t.Root())),
	})
	defer gw.Close()

	col := NewCollector(t.Len(), sp.Window, sp.Duration)
	var colMu sync.Mutex

	// Churn: partition the victim's parent edge for the scheduled span.
	// Edges heal even if the run ends first; cluster.Stop tears all down.
	var churnWG sync.WaitGroup
	start := time.Now()
	for _, ev := range tr.Churn {
		ev := ev
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			due := start.Add(time.Duration(ev.Time / opt.Speedup * float64(time.Second)))
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			if ev.Down {
				c.PartitionEdge(ev.Node)
			} else {
				c.HealEdge(ev.Node)
			}
		}()
	}

	// Workers issue the schedule open-loop through the gateway. Latency is
	// measured from each request's *scheduled* wall time, not from when a
	// worker got around to it — when the cluster saturates and the worker
	// pool backs up, the queueing delay counts, instead of the schedule
	// silently degrading to closed-loop with rosy percentiles.
	type job struct {
		req trace.Request
		due time.Time
	}
	jobs := make(chan job, opt.Clients)
	var workWG sync.WaitGroup
	for w := 0; w < opt.Clients; w++ {
		workWG.Add(1)
		go func(id int) {
			defer workWG.Done()
			for jb := range jobs {
				httpReq, err := http.NewRequest("GET", "/docs/"+string(jb.req.Doc), nil)
				if err != nil {
					colMu.Lock()
					col.Record(jb.req.Time, -1, 0, 0, false)
					colMu.Unlock()
					continue
				}
				httpReq.Header.Set(originHeader, strconv.Itoa(jb.req.Origin))
				httpReq.RemoteAddr = fmt.Sprintf("10.0.%d.%d:999", id, jb.req.Origin)
				rec := &respSink{header: make(http.Header)}
				gw.ServeHTTP(rec, httpReq)
				lat := time.Since(jb.due).Seconds()
				servedBy, _ := strconv.Atoi(rec.header.Get("X-WebWave-Served-By"))
				hops, _ := strconv.Atoi(rec.header.Get("X-WebWave-Hops"))
				ok := rec.statusCode() == http.StatusOK
				colMu.Lock()
				if ok {
					col.Record(jb.req.Time, servedBy, hops, lat, true)
				} else {
					col.Record(jb.req.Time, -1, 0, 0, false)
				}
				colMu.Unlock()
			}
		}(w)
	}
	for i := range tr.Requests {
		req := tr.Requests[i]
		due := start.Add(time.Duration(req.Time / opt.Speedup * float64(time.Second)))
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		jobs <- job{req: req, due: due}
	}
	close(jobs)
	workWG.Wait()
	churnWG.Wait()

	rep := &Report{
		Schema: Schema, Scenario: sp.Name, Mode: "live", Seed: seed,
		Spec: sp, Tree: treeInfo(t),
		Requests:    int64(len(tr.Requests)),
		ChurnEvents: len(tr.Churn),
		OfferedRPS:  round6(float64(len(tr.Requests)) / sp.Duration),
	}
	sys := systemResult("webwave-live", col, sp.Duration)
	if sts, err := c.Stats(); err == nil {
		for _, st := range sts {
			if st == nil {
				continue
			}
			sys.Nodes = append(sys.Nodes, NodeStat{
				Node:          st.Node,
				Served:        st.Served,
				FastServed:    st.FastServed,
				Forwarded:     st.Forwarded,
				Coalesced:     st.Coalesced,
				LoadRPS:       round6(st.Load),
				CachedDocs:    len(st.CachedDocs),
				CacheBytes:    st.CacheBytes,
				MaxCacheBytes: st.MaxCacheBytes,
				EvictedDocs:   st.EvictedDocs,
				EvictedBytes:  st.EvictedBytes,
				QueueLen:      st.QueueLen,
				PendingLen:    st.PendingLen,
				Tunnels:       st.Tunnels,
			})
		}
		sort.Slice(sys.Nodes, func(i, j int) bool { return sys.Nodes[i].Node < sys.Nodes[j].Node })
		if sp.CacheBudgetBytes > 0 {
			sys.Cache = liveCacheResult(sp, t.Root(), sys.Nodes)
		}
	}
	rep.Systems = append(rep.Systems, sys)
	rep.Baselines, err = analyticBaselines(t, tr, sp)
	if err != nil {
		return nil, err
	}
	return rep, nil
}
