package workload

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"webwave/internal/cachestore"
	"webwave/internal/core"
	"webwave/internal/docwave"
	"webwave/internal/lru"
	"webwave/internal/sim"
	"webwave/internal/trace"
	"webwave/internal/tree"
)

// Policy names a request-placement policy replayed on the benchmark trace.
type Policy string

// Policies.
const (
	// PolicyWebWave places requests per the document-level WebWave
	// protocol: the docwave simulator diffuses cache copies between
	// windows and each request is served en route with probability equal
	// to the fluid serve/forward split at each node it passes.
	PolicyWebWave Policy = "webwave"
	// PolicyNoCache serves every request at the home server.
	PolicyNoCache Policy = "no-cache"
	// PolicyPathLRU fills an LRU cache at every node on the request path
	// (classic en-route / CDN caching) and serves at the first hit.
	PolicyPathLRU Policy = "path-lru"
	// PolicyBoundedHeat / PolicyBoundedLRU run WebWave placement over a
	// byte-budgeted store at every non-home node: the fluid protocol
	// decides where copies should live, the store decides which survive the
	// budget, and a request is served en route only where the copy actually
	// survived. Heat is the live server's store, each copy ranked by the
	// rate it serves; LRU is a least-recently-used cache of budget /
	// DocBytes slots, the classic baseline.
	PolicyBoundedHeat Policy = "webwave-heat"
	PolicyBoundedLRU  Policy = "webwave-lru"
)

// DefaultPolicies returns the policies RunFast compares for a spec:
// WebWave and no-cache always, en-route LRU when the spec bounds cache
// slots, and the eviction-policy shoot-out when it bounds cache bytes.
func DefaultPolicies(sp Spec) []Policy {
	if sp.CacheBudgetBytes > 0 {
		return []Policy{PolicyBoundedHeat, PolicyBoundedLRU, PolicyNoCache}
	}
	ps := []Policy{PolicyWebWave, PolicyNoCache}
	if sp.CacheCap > 0 {
		ps = append(ps, PolicyPathLRU)
	}
	return ps
}

// BuildTree derives the scenario's routing tree deterministically from the
// seed, shared by the fast and live runners.
func BuildTree(sp Spec, seed int64) (*tree.Tree, error) {
	rng := rand.New(rand.NewSource(seed))
	return tree.RandomBounded(sp.Nodes, sp.MaxChildren, rng)
}

// traceSeed separates the tree and trace RNG streams.
func traceSeed(seed int64) int64 { return seed*2654435761 + 1 }

// replayer is one policy's request-placement engine.
type replayer interface {
	name() string
	// windowTick advances protocol state to the window starting at t.
	windowTick(t float64)
	// place returns the serving node and hop count for a request, or
	// ok=false when the request is lost. down flags churned-out nodes.
	place(req trace.Request, down []bool, rng *rand.Rand) (node, hops int, ok bool)
}

// ---------------------------------------------------------------------------

// webwaveReplayer drives docwave.Sim between windows and samples the fluid
// serve/forward split per request.
type webwaveReplayer struct {
	sp       Spec
	t        *tree.Tree
	tr       *Trace
	ds       *docwave.Sim
	demand   *trace.Demand
	docIndex map[core.DocID]int
	rounds   int
}

func newWebwaveReplayer(sp Spec, t *tree.Tree, tr *Trace) (*webwaveReplayer, error) {
	m := len(tr.DocWeights)
	docs := make([]core.Document, m)
	index := make(map[core.DocID]int, m)
	for j := range docs {
		id := DocID(j)
		docs[j] = core.Document{ID: id, Home: t.Root(), Size: 1 << 12}
		index[id] = j
	}
	demand := &trace.Demand{Docs: docs, Rates: tr.DemandMatrix(sp.TotalRate)}
	ds, err := docwave.NewSim(t, demand, docwave.Config{
		Tunneling: sp.Tunneling,
		CacheCap:  sp.CacheCap,
		EvictIdle: sp.CacheCap > 0,
	}, nil)
	if err != nil {
		return nil, fmt.Errorf("workload: webwave replayer: %w", err)
	}
	return &webwaveReplayer{
		sp: sp, t: t, tr: tr, ds: ds, demand: demand,
		docIndex: index, rounds: sp.RoundsPerWindow,
	}, nil
}

func (r *webwaveReplayer) name() string { return string(PolicyWebWave) }

// windowTick refreshes the demand matrix to the window's midpoint rates
// (diurnal scaling plus the flash surplus on the hot set) and runs the
// protocol rounds for the window, so placement chases the moving demand
// exactly as the live protocol would.
func (r *webwaveReplayer) windowTick(t float64) {
	sp := r.sp
	mid := t + sp.Window/2
	di := sp.Diurnal.factorAt(mid)
	f := sp.Flash.factorAt(mid)
	base := r.tr.DemandMatrix(sp.TotalRate * di)
	if f > 1 {
		extra := sp.TotalRate * di * (f - 1)
		for v := range base {
			share := extra * r.tr.NodeWeights[v] / float64(sp.Flash.HotDocs)
			for j := 0; j < sp.Flash.HotDocs; j++ {
				base[v][j] += share
			}
		}
	}
	r.demand.Rates = base
	for i := 0; i < r.rounds; i++ {
		r.ds.Step()
	}
}

func (r *webwaveReplayer) place(req trace.Request, down []bool, rng *rand.Rand) (int, int, bool) {
	if down[req.Origin] {
		return -1, 0, false
	}
	j, ok := r.docIndex[req.Doc]
	if !ok {
		return -1, 0, false
	}
	path := r.t.PathToRoot(req.Origin)
	for hops, v := range path {
		if v == r.t.Root() {
			return v, hops, true
		}
		if down[v] {
			continue // a down node forwards nothing but blocks nothing
		}
		serve := r.ds.ServeRate(v, j)
		fwd := r.ds.ForwardRate(v, j)
		if tot := serve + fwd; tot > 0 && rng.Float64() < serve/tot {
			return v, hops, true
		}
	}
	root := r.t.Root()
	return root, len(path) - 1, true
}

// ---------------------------------------------------------------------------

// boundedReplayer layers byte-budgeted stores over the fluid WebWave
// placement: windowTick installs copies where the protocol placed them
// (bounded by budget, displacing per the store's rule), and a request is
// served en route only where its copy actually survived — a placement the
// wave intended but eviction destroyed counts as a store miss and the
// request keeps climbing toward the home server.
type boundedReplayer struct {
	*webwaveReplayer
	lru    bool                // LRU slots instead of ranked stores
	stores []*cachestore.Store // heat: nil at the home node
	caches []*lru.Cache        // lru: nil at the home node
	body   []byte              // shared dummy body, len = Spec.DocBytes

	servedBelow, servedRoot int64
}

func newBoundedReplayer(sp Spec, t *tree.Tree, tr *Trace, useLRU bool) (*boundedReplayer, error) {
	// Align the fluid guidance with the byte capacity: the protocol
	// simulator bounds copies per node at budget/doc-size slots, so its
	// placement is one the stores could in principle hold in full.
	guided := sp
	guided.CacheCap = int(sp.CacheBudgetBytes / int64(sp.DocBytes))
	ww, err := newWebwaveReplayer(guided, t, tr)
	if err != nil {
		return nil, err
	}
	r := &boundedReplayer{
		webwaveReplayer: ww,
		lru:             useLRU,
		stores:          make([]*cachestore.Store, t.Len()),
		caches:          make([]*lru.Cache, t.Len()),
		body:            make([]byte, sp.DocBytes),
	}
	for v := range r.stores {
		switch {
		case v == t.Root(): // the home serves from pinned originals, not a budget
		case useLRU:
			r.caches[v] = lru.New(guided.CacheCap)
		default:
			r.stores[v] = cachestore.New(cachestore.Config{BudgetBytes: sp.CacheBudgetBytes, Shards: sp.CacheShards})
		}
	}
	return r, nil
}

func (r *boundedReplayer) name() string { return "webwave-" + r.policy() }

func (r *boundedReplayer) policy() string {
	if r.lru {
		return "lru"
	}
	return "heat"
}

func (r *boundedReplayer) windowTick(t float64) {
	r.webwaveReplayer.windowTick(t)
	docs := r.demand.Docs
	for v, st := range r.stores {
		if c := r.caches[v]; c != nil {
			for j, d := range docs {
				if r.ds.ServeRate(v, j) > 0 && !c.Contains(d.ID) {
					c.Put(d.ID, r.body)
				}
			}
			continue
		}
		if st == nil {
			continue
		}
		// Rank every copy first so evictions triggered by this window's
		// installs see this window's rates. The rank is the rate the copy
		// *serves*, not total passing flow: a document whose requests
		// stream through but are served elsewhere must rank low here, or
		// eviction keeps busy-path bystanders over working copies.
		for j, d := range docs {
			st.SetRank(d.ID, r.ds.ServeRate(v, j))
		}
		for j, d := range docs {
			if rate := r.ds.ServeRate(v, j); rate > 0 && !st.Contains(d.ID) {
				st.PutVersion(d.ID, r.body, 0, rate)
			}
		}
	}
}

// hit reports whether node v's store still holds doc, counting the lookup.
func (r *boundedReplayer) hit(v int, doc core.DocID) bool {
	if c := r.caches[v]; c != nil {
		_, ok := c.Get(doc)
		return ok
	}
	_, ok := r.stores[v].Get(doc)
	return ok
}

func (r *boundedReplayer) place(req trace.Request, down []bool, rng *rand.Rand) (int, int, bool) {
	if down[req.Origin] {
		return -1, 0, false
	}
	j, ok := r.docIndex[req.Doc]
	if !ok {
		return -1, 0, false
	}
	path := r.t.PathToRoot(req.Origin)
	for hops, v := range path {
		if v == r.t.Root() {
			r.servedRoot++
			return v, hops, true
		}
		if down[v] {
			continue
		}
		serve := r.ds.ServeRate(v, j)
		fwd := r.ds.ForwardRate(v, j)
		if tot := serve + fwd; tot > 0 && rng.Float64() < serve/tot {
			// The wave wants this node to serve; it can only if the copy
			// survived the byte budget.
			if r.hit(v, req.Doc) {
				r.servedBelow++
				return v, hops, true
			}
		}
	}
	root := r.t.Root()
	r.servedRoot++
	return root, len(path) - 1, true
}

// cacheResult aggregates the run's cache-pressure outcome.
func (r *boundedReplayer) cacheResult() *CacheResult {
	cr := &CacheResult{
		Policy:      r.policy(),
		BudgetBytes: r.sp.CacheBudgetBytes,
		DocBytes:    r.sp.DocBytes,
	}
	for v, st := range r.stores {
		var s cachestore.Stats
		var maxBytes int64
		switch c := r.caches[v]; {
		case c != nil:
			s.Hits, s.Misses, s.Evictions = c.Stats()
			s.EvictedBytes = s.Evictions * int64(r.sp.DocBytes)
			maxBytes = int64(c.Len() * r.sp.DocBytes) // nothing leaves but to make room: Len never falls
		case st != nil:
			s, maxBytes = st.Stats(), st.MaxBytes()
		default:
			continue
		}
		cr.StoreHits += s.Hits
		cr.StoreMisses += s.Misses
		cr.Evictions += s.Evictions
		cr.EvictedBytes += s.EvictedBytes
		cr.MaxNodeBytes = max(cr.MaxNodeBytes, maxBytes)
		cr.OverBudget = cr.OverBudget || maxBytes > r.sp.CacheBudgetBytes
	}
	if total := r.servedBelow + r.servedRoot; total > 0 {
		cr.HitRate = round6(float64(r.servedBelow) / float64(total))
	}
	return cr
}

// ---------------------------------------------------------------------------

// noCacheReplayer serves everything at the home server.
type noCacheReplayer struct{ t *tree.Tree }

func (r *noCacheReplayer) name() string       { return string(PolicyNoCache) }
func (r *noCacheReplayer) windowTick(float64) {}

func (r *noCacheReplayer) place(req trace.Request, down []bool, _ *rand.Rand) (int, int, bool) {
	if down[req.Origin] {
		return -1, 0, false
	}
	return r.t.Root(), r.t.Depth(req.Origin), true
}

// ---------------------------------------------------------------------------

// pathLRUReplayer is en-route caching: serve at the first path node holding
// the document, then install it at every node the response passes.
type pathLRUReplayer struct {
	t      *tree.Tree
	caches []*lru.Cache
}

func newPathLRUReplayer(sp Spec, t *tree.Tree) *pathLRUReplayer {
	cap := sp.CacheCap
	if cap <= 0 {
		cap = 8
	}
	caches := make([]*lru.Cache, t.Len())
	for v := range caches {
		if v != t.Root() {
			caches[v] = lru.New(cap)
		}
	}
	return &pathLRUReplayer{t: t, caches: caches}
}

func (r *pathLRUReplayer) name() string       { return string(PolicyPathLRU) }
func (r *pathLRUReplayer) windowTick(float64) {}

func (r *pathLRUReplayer) place(req trace.Request, down []bool, _ *rand.Rand) (int, int, bool) {
	if down[req.Origin] {
		return -1, 0, false
	}
	path := r.t.PathToRoot(req.Origin)
	served, hops := r.t.Root(), len(path)-1
	for i, v := range path {
		if v == r.t.Root() {
			break
		}
		if down[v] {
			continue
		}
		if _, ok := r.caches[v].Get(req.Doc); ok {
			served, hops = v, i
			break
		}
	}
	// En-route fill on the response path.
	for i := 0; i < hops; i++ {
		v := path[i]
		if v != r.t.Root() && !down[v] {
			r.caches[v].Put(req.Doc, nil)
		}
	}
	return served, hops, true
}

// ---------------------------------------------------------------------------

// RunFast replays the scenario in virtual time on the discrete-event engine
// for every policy in DefaultPolicies, producing a deterministic report.
func RunFast(sp Spec, seed int64) (*Report, error) {
	return RunFastPolicies(sp, seed, DefaultPolicies(sp.WithDefaults()))
}

// RunFastPolicies is RunFast with an explicit policy set.
func RunFastPolicies(sp Spec, seed int64, policies []Policy) (*Report, error) {
	sp = sp.WithDefaults()
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	t, err := BuildTree(sp, seed)
	if err != nil {
		return nil, fmt.Errorf("workload: tree: %w", err)
	}
	tr, err := Generate(sp, t, traceSeed(seed))
	if err != nil {
		return nil, err
	}

	rep := &Report{
		Schema: Schema, Scenario: sp.Name, Mode: "fast", Seed: seed,
		Spec: sp, Tree: treeInfo(t),
		Requests:    int64(len(tr.Requests)),
		ChurnEvents: len(tr.Churn),
		OfferedRPS:  round6(float64(len(tr.Requests)) / sp.Duration),
	}

	for _, p := range policies {
		var rp replayer
		switch p {
		case PolicyWebWave:
			rp, err = newWebwaveReplayer(sp, t, tr)
			if err != nil {
				return nil, err
			}
		case PolicyNoCache:
			rp = &noCacheReplayer{t: t}
		case PolicyPathLRU:
			rp = newPathLRUReplayer(sp, t)
		case PolicyBoundedLRU, PolicyBoundedHeat:
			if sp.CacheBudgetBytes <= 0 {
				return nil, fmt.Errorf("workload: policy %q needs cache_budget_bytes", p)
			}
			rp, err = newBoundedReplayer(sp, t, tr, p == PolicyBoundedLRU)
			if err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("workload: unknown policy %q", p)
		}
		col, err := replayFast(sp, t, tr, rp, seed)
		if err != nil {
			return nil, err
		}
		sys := systemResult(rp.name(), col, sp.Duration)
		if br, ok := rp.(*boundedReplayer); ok {
			sys.Cache = br.cacheResult()
		}
		rep.Systems = append(rep.Systems, sys)
	}

	rep.Baselines, err = analyticBaselines(t, tr, sp)
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// replayFast runs one policy over the trace on the event engine: window
// ticks advance protocol state and the load-dependent latency model,
// churn events flip node availability, and each request is placed and
// scored in schedule order.
func replayFast(sp Spec, t *tree.Tree, tr *Trace, rp replayer, seed int64) (*Collector, error) {
	col := NewCollector(t.Len(), sp.Window, sp.Duration)
	// Separate RNG stream per policy, keyed by a hash of its name so
	// placement sampling is independent across policies.
	h := fnv.New64a()
	h.Write([]byte(rp.name()))
	rng := rand.New(rand.NewSource(traceSeed(seed) ^ int64(h.Sum64())))
	down := make([]bool, t.Len())

	// Per-window served counts feed a queueing-flavored latency model:
	// response time grows as the serving node's measured utilization in
	// the previous window approaches 1.
	cur := make(core.Vector, t.Len())
	prevUtil := make(core.Vector, t.Len())
	latency := func(servedBy, hops int) float64 {
		u := prevUtil[servedBy]
		if u > 0.95 {
			u = 0.95
		}
		return 2*sp.HopDelay*float64(hops) + sp.ServiceTime/(1-u)
	}

	eng := &sim.Engine{}
	nw := int(math.Ceil(sp.Duration / sp.Window))
	for w := 0; w < nw; w++ {
		start := float64(w) * sp.Window
		eng.At(start, func() {
			for v := range cur {
				prevUtil[v] = cur[v] / (sp.Window * sp.NodeCapacity)
				cur[v] = 0
			}
			rp.windowTick(start)
		})
	}
	for _, ev := range tr.Churn {
		ev := ev
		eng.At(ev.Time, func() { down[ev.Node] = ev.Down })
	}
	for i := range tr.Requests {
		req := tr.Requests[i]
		eng.At(req.Time, func() {
			node, hops, ok := rp.place(req, down, rng)
			if !ok {
				col.Record(req.Time, -1, 0, 0, false)
				return
			}
			cur[node]++
			col.Record(req.Time, node, hops, latency(node, hops), true)
		})
	}
	eng.RunAll(0)
	return col, nil
}
