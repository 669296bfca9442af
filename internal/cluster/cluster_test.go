package cluster

import (
	"math/rand"
	"testing"
	"time"

	"webwave/internal/core"
	"webwave/internal/fold"
	"webwave/internal/trace"
	"webwave/internal/transport"
	"webwave/internal/tree"
)

func smallConfig() Config {
	return Config{
		GossipPeriod:    15 * time.Millisecond,
		DiffusionPeriod: 30 * time.Millisecond,
		Window:          300 * time.Millisecond,
		Tunneling:       true,
	}
}

func docsFor(d *trace.Demand) map[core.DocID][]byte {
	out := make(map[core.DocID][]byte, len(d.Docs))
	for _, doc := range d.Docs {
		out[doc.ID] = []byte("body:" + string(doc.ID))
	}
	return out
}

func TestClusterServesEveryRequest(t *testing.T) {
	tr := tree.MustFromParents([]int{tree.NoParent, 0, 0})
	rng := rand.New(rand.NewSource(1))
	demand, err := trace.ZipfDemand(tr, trace.ZipfDemandConfig{
		NumDocs: 4, Skew: 1, TotalRate: 1500, LeavesOnly: true,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(tr, docsFor(demand), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	sched := trace.PoissonSchedule(demand, 1.5, rng)
	if err := c.Play(sched, 1.0); err != nil {
		t.Fatal(err)
	}
	if left := c.Drain(5 * time.Second); left != 0 {
		t.Fatalf("%d of %d requests unanswered", left, len(sched))
	}
	if got := c.Responses(); got != int64(len(sched)) {
		t.Errorf("responses = %d, want %d", got, len(sched))
	}
}

func TestClusterSpreadsLoadOffTheRoot(t *testing.T) {
	tr := tree.MustFromParents([]int{tree.NoParent, 0, 0, 1, 1, 2, 2})
	rng := rand.New(rand.NewSource(2))
	demand, err := trace.ZipfDemand(tr, trace.ZipfDemandConfig{
		NumDocs: 6, Skew: 1, TotalRate: 3000, LeavesOnly: true,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(tr, docsFor(demand), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	sched := trace.PoissonSchedule(demand, 2.5, rng)
	if err := c.Play(sched, 1.0); err != nil {
		t.Fatal(err)
	}
	c.Drain(5 * time.Second)

	served := c.ServedVector()
	total := core.SumVec(served)
	if total == 0 {
		t.Fatal("nothing served")
	}
	rootShare := served[tr.Root()] / total
	if rootShare > 0.7 {
		t.Errorf("root still serves %.0f%% of requests; caching ineffective", rootShare*100)
	}
	// Several nodes participate.
	participating := 0
	for _, s := range served {
		if s > 0 {
			participating++
		}
	}
	if participating < 4 {
		t.Errorf("only %d nodes serve; want most of the tree", participating)
	}
	// Copies exist beyond the root.
	cached, err := c.CachedDocs()
	if err != nil {
		t.Fatal(err)
	}
	copies := 0
	for v, ds := range cached {
		if v != tr.Root() {
			copies += len(ds)
		}
	}
	if copies == 0 {
		t.Error("no cache copies spread into the tree")
	}
	// Mean hops must beat all-the-way-to-root (depth 2 for the leaves).
	if h := c.MeanHops(); h >= 2 {
		t.Errorf("mean hops = %v; requests not stumbling on en-route copies", h)
	}
}

func TestClusterLoadsVsTLB(t *testing.T) {
	tr := tree.MustFromParents([]int{tree.NoParent, 0, 0})
	rng := rand.New(rand.NewSource(3))
	demand, err := trace.ZipfDemand(tr, trace.ZipfDemandConfig{
		NumDocs: 4, Skew: 0.8, TotalRate: 2000, LeavesOnly: true,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(tr, docsFor(demand), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	sched := trace.PoissonSchedule(demand, 2.5, rng)
	if err := c.Play(sched, 1.0); err != nil {
		t.Fatal(err)
	}
	c.Drain(5 * time.Second)

	loads, err := c.Loads()
	if err != nil {
		t.Fatal(err)
	}
	tlb, err := fold.Compute(tr, demand.NodeTotals())
	if err != nil {
		t.Fatal(err)
	}
	maxLoad, _ := core.MaxVec(loads)
	// Loose steady-state bound: the live max load stays within 3x the TLB
	// optimum (a no-caching system would be at n× for this demand).
	if maxLoad > 3*tlb.MaxLoad() {
		t.Errorf("max live load %v vs TLB %v: balancing ineffective", maxLoad, tlb.MaxLoad())
	}
}

func TestClusterOverTCP(t *testing.T) {
	tr := tree.MustFromParents([]int{tree.NoParent, 0})
	rng := rand.New(rand.NewSource(4))
	demand, err := trace.ZipfDemand(tr, trace.ZipfDemandConfig{
		NumDocs: 2, Skew: 1, TotalRate: 400,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.Network = transport.TCPNetwork{}
	cfg.AddrFor = func(id int) string { return "127.0.0.1:0" }
	c, err := New(tr, docsFor(demand), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	sched := trace.PoissonSchedule(demand, 1.0, rng)
	if err := c.Play(sched, 1.0); err != nil {
		t.Fatal(err)
	}
	if left := c.Drain(5 * time.Second); left != 0 {
		t.Fatalf("%d requests unanswered over TCP", left)
	}
	// The tree edge carried the traffic over TCP; the injectors and the
	// scrape enter their nodes in-process. Client-side TCP reply paths are
	// covered by the server's TCP tests (tcp_test.go, lend_test.go,
	// pending_test.go) and the benchmark's closed loops.
	sts, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != 2 || sts[0] == nil || sts[1] == nil {
		t.Fatalf("stats scrape of a TCP cluster failed: %v", sts)
	}
}

func TestClusterWithLossyLinks(t *testing.T) {
	tr := tree.MustFromParents([]int{tree.NoParent, 0, 0})
	rng := rand.New(rand.NewSource(5))
	demand, err := trace.ZipfDemand(tr, trace.ZipfDemandConfig{
		NumDocs: 3, Skew: 1, TotalRate: 800, LeavesOnly: true,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	// Loss on the transport would also drop requests/responses (they are
	// soft-state-tolerant protocol-wise but the harness counts them), so
	// keep loss mild and only assert liveness.
	cfg.Network = transport.NewMemoryNetwork(transport.MemoryOptions{
		Latency: 2 * time.Millisecond, Jitter: 2 * time.Millisecond, Seed: 5,
	})
	c, err := New(tr, docsFor(demand), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	sched := trace.PoissonSchedule(demand, 1.0, rng)
	if err := c.Play(sched, 1.0); err != nil {
		t.Fatal(err)
	}
	if left := c.Drain(5 * time.Second); left != 0 {
		t.Fatalf("%d requests unanswered on jittery links", left)
	}
}

func TestSurvivesNodeFailure(t *testing.T) {
	// Star: root 0 with leaves 1 and 2. Kill leaf 2's server; traffic
	// entering at leaf 1 and the root keeps being served.
	tr := tree.MustFromParents([]int{tree.NoParent, 0, 0})
	docs := map[core.DocID][]byte{"d": []byte("x")}
	c, err := New(tr, docs, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	c.StopServer(2)
	time.Sleep(50 * time.Millisecond)

	for i := 0; i < 50; i++ {
		if err := c.Inject(1, "d"); err != nil {
			t.Fatalf("inject at healthy node: %v", err)
		}
		if err := c.Inject(0, "d"); err != nil {
			t.Fatalf("inject at root: %v", err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Responses() < 100 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := c.Responses(); got < 100 {
		t.Fatalf("only %d of 100 requests served after a leaf failure", got)
	}
}

func TestLatencySummary(t *testing.T) {
	tr := tree.MustFromParents([]int{tree.NoParent, 0})
	rng := rand.New(rand.NewSource(6))
	demand, err := trace.ZipfDemand(tr, trace.ZipfDemandConfig{
		NumDocs: 2, Skew: 1, TotalRate: 500,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(tr, docsFor(demand), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	sched := trace.PoissonSchedule(demand, 1.0, rng)
	if err := c.Play(sched, 1.0); err != nil {
		t.Fatal(err)
	}
	c.Drain(5 * time.Second)
	lat := c.LatencySummary()
	if lat.N != len(sched) {
		t.Errorf("latency samples = %d, want %d", lat.N, len(sched))
	}
	if lat.P50 <= 0 || lat.P50 > 1 {
		t.Errorf("median latency %v s implausible on an in-memory transport", lat.P50)
	}
	if lat.P95 < lat.P50 {
		t.Errorf("p95 %v < p50 %v", lat.P95, lat.P50)
	}
}

func TestInjectValidation(t *testing.T) {
	tr := tree.MustFromParents([]int{tree.NoParent})
	c, err := New(tr, map[core.DocID][]byte{"d": []byte("x")}, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if err := c.Inject(5, "d"); err == nil {
		t.Error("out-of-range origin accepted")
	}
}
