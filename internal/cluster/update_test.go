package cluster

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"webwave/internal/core"
	"webwave/internal/netproto"
	"webwave/internal/stats"
	"webwave/internal/trace"
	"webwave/internal/tree"
)

// warmCopy pumps reads for doc at node until a scrape shows the node
// caching its own copy (the root has delegated duty down).
func warmCopy(t *testing.T, c *Cluster, node int, doc core.DocID) {
	t.Helper()
	deadline := time.Now().Add(8 * time.Second)
	for time.Now().Before(deadline) {
		for i := 0; i < 40; i++ {
			if err := c.Inject(node, doc); err != nil {
				t.Fatal(err)
			}
		}
		c.Drain(2 * time.Second)
		cached, err := c.CachedDocs()
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range cached[node] {
			if d == doc {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("node %d never cached %q", node, doc)
}

// TestRepublishConvergesAndBoundsStaleness warms a delegated copy at a
// leaf, republishes the document at its origin, and checks the write
// diffuses: the cluster's version advances, the leaf applies a write frame,
// and post-propagation reads come back fresh — the staleness log shows
// latest-version serves, not a tail of stale ones.
func TestRepublishConvergesAndBoundsStaleness(t *testing.T) {
	tr := tree.MustFromParents([]int{tree.NoParent, 0})
	c, err := New(tr, map[core.DocID][]byte{"d": []byte("v0")}, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	warmCopy(t, c, 1, "d")

	ver, err := c.Republish("d", []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	if ver != 1 || c.LatestVersion("d") != 1 {
		t.Fatalf("assigned version %d, latest %d, want 1/1", ver, c.LatestVersion("d"))
	}

	// The write must reach the leaf as a republish or an invalidate.
	deadline := time.Now().Add(5 * time.Second)
	applied := false
	for !applied && time.Now().Before(deadline) {
		sts, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		applied = sts[1] != nil && sts[1].RepublishesIn+sts[1].InvalidationsIn >= 1
		time.Sleep(20 * time.Millisecond)
	}
	if !applied {
		t.Fatal("write never diffused to the leaf")
	}

	// Post-propagation reads are staleness-sampled and come back fresh.
	for i := 0; i < 30; i++ {
		if err := c.Inject(1, "d"); err != nil {
			t.Fatal(err)
		}
	}
	if left := c.Drain(5 * time.Second); left != 0 {
		t.Fatalf("%d post-write reads unanswered", left)
	}
	stale, total := c.StaleServed()
	if total < 30 {
		t.Fatalf("staleness samples = %d, want >= 30 (every post-write response sampled)", total)
	}
	if stale == total {
		t.Fatalf("all %d sampled responses were stale; write never took effect", total)
	}
	sum := c.StalenessSummary()
	if sum.N != int(total) {
		t.Errorf("summary over %d samples, want %d", sum.N, total)
	}
	if sum.Min != 0 {
		t.Errorf("min staleness %v, want 0 (fresh serves present)", sum.Min)
	}
}

// TestInvalidateLeaseRefreshesThroughTheTree invalidates a delegated copy
// (version-only at the leaf) and storms the leaf with reads: the leaf must
// converge back to serving by refreshing through its subtree lease — one
// coalesced upward fetch, visible as a lease-refresh counter — and every
// request still gets answered.
func TestInvalidateLeaseRefreshesThroughTheTree(t *testing.T) {
	tr := tree.MustFromParents([]int{tree.NoParent, 0})
	c, err := New(tr, map[core.DocID][]byte{"d": []byte("v0")}, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	warmCopy(t, c, 1, "d")
	// The leaf re-acquires the document by a lease refresh, or by the root
	// republishing the body down the duty edge before the storm hits — both
	// converge. Either counter may already have moved during warm-up (an
	// adopted copy counts as a lease refresh), so only a rise counts.
	reacquired := func() int64 {
		sts, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if sts[1] == nil {
			return -1
		}
		return sts[1].LeaseRefreshes + sts[1].RepublishesIn
	}
	before := reacquired()

	if _, err := c.Invalidate("d", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// Storm the leaf once the invalidation has reached it: reads that beat
	// it there are served from the old copy, and a delegation arriving
	// before the next storm brings the fresh copy with no lease at all.
	deadline := time.Now().Add(8 * time.Second)
	for landed := false; !landed; {
		sts, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if landed = sts[1] != nil && sts[1].InvalidationsIn >= 1; !landed && time.Now().After(deadline) {
			t.Fatal("the invalidation never reached the leaf")
		}
	}
	// Storm the leaf: all of these either hit the refreshed copy or coalesce
	// behind the single lease fetch.
	refreshed := false
	for !refreshed && time.Now().Before(deadline) {
		for i := 0; i < 40; i++ {
			if err := c.Inject(1, "d"); err != nil {
				t.Fatal(err)
			}
		}
		if left := c.Drain(5 * time.Second); left != 0 {
			t.Fatalf("%d storm reads unanswered", left)
		}
		refreshed = reacquired() > before
		time.Sleep(10 * time.Millisecond)
	}
	if !refreshed {
		t.Fatal("leaf never re-acquired the document after the invalidation")
	}
	if c.LatestVersion("d") != 1 {
		t.Fatalf("latest version = %d, want 1", c.LatestVersion("d"))
	}
	stale, total := c.StaleServed()
	if total == 0 {
		t.Fatal("no staleness samples recorded for a written document")
	}
	if stale == total {
		t.Fatal("every post-invalidate response was stale; lease refresh ineffective")
	}
}

// TestStalenessSummaryEmptyWithoutWrites: read-only traffic produces no
// staleness samples — there is no version history to be stale against.
func TestStalenessSummaryEmptyWithoutWrites(t *testing.T) {
	tr := tree.MustFromParents([]int{tree.NoParent})
	c, err := New(tr, map[core.DocID][]byte{"d": []byte("x")}, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	for i := 0; i < 10; i++ {
		if err := c.Inject(0, "d"); err != nil {
			t.Fatal(err)
		}
	}
	c.Drain(2 * time.Second)
	if sum := c.StalenessSummary(); sum.N != 0 {
		t.Errorf("staleness samples = %d without writes, want 0", sum.N)
	}
	if _, total := c.StaleServed(); total != 0 {
		t.Errorf("stale-served total = %d without writes, want 0", total)
	}
}

// writeConfig is the cluster the write-mix, storm and session tests run.
// Its diffusion period is the unit p99 staleness is judged against.
func writeConfig() Config {
	return Config{
		GossipPeriod:    20 * time.Millisecond,
		DiffusionPeriod: 40 * time.Millisecond,
		Window:          400 * time.Millisecond,
		Tunneling:       true,
	}
}

// star builds a two-level star: the origin, subtrees interior children and
// leavesPer leaves under each, so "one per subtree" is a literal count.
// leaves[s*leavesPer+l] is leaf l of subtree s.
func star(subtrees, leavesPer int) (*tree.Tree, []int) {
	parents := []int{tree.NoParent}
	for s := 0; s < subtrees; s++ {
		parents = append(parents, 0)
	}
	var leaves []int
	for s := 0; s < subtrees; s++ {
		for l := 0; l < leavesPer; l++ {
			leaves = append(leaves, len(parents))
			parents = append(parents, 1+s)
		}
	}
	return tree.MustFromParents(parents), leaves
}

// spreadBelowRoot reads every document reads times at every leaf, round
// after round, until each is cached by some node below the origin: only
// then does a write leave copies behind to go stale.
func spreadBelowRoot(t *testing.T, c *Cluster, leaves []int, docs []core.DocID, reads int) {
	t.Helper()
	deadline := time.Now().Add(8 * time.Second)
	for time.Now().Before(deadline) {
		for _, d := range docs {
			for _, v := range leaves {
				for i := 0; i < reads; i++ {
					if err := c.Inject(v, d); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if left := c.Drain(5 * time.Second); left != 0 {
			t.Fatalf("%d warm-up reads unanswered", left)
		}
		cached, err := c.CachedDocs()
		if err != nil {
			t.Fatal(err)
		}
		below := map[core.DocID]bool{}
		for v, held := range cached {
			for _, d := range held {
				below[d] = below[d] || v != c.Tree().Root()
			}
		}
		spread := true
		for _, d := range docs {
			spread = spread && below[d]
		}
		if spread {
			return
		}
	}
	t.Fatalf("warm-up never spread all of %v below the origin", docs)
}

// statsOf scrapes every node.
func statsOf(t *testing.T, c *Cluster) []*netproto.Stats {
	t.Helper()
	sts, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	return sts
}

// statSum sums one counter over the nodes a scrape reached.
func statSum(sts []*netproto.Stats, counter func(*netproto.Stats) int64) int64 {
	var sum int64
	for _, st := range sts {
		if st != nil {
			sum += counter(st)
		}
	}
	return sum
}

// mixPass is one replay of TestUpdateHeavy's schedule.
type mixPass struct {
	reads, writes, unanswered int64
	republishesIn             int64
	hitRate                   float64       // share of responses served off the origin
	staleness                 stats.Summary // seconds, one sample per response for a written document
}

// replayMix plays sched on a fresh cluster in real time, turning each entry
// into a republish write with probability writeFraction. The write decisions
// come from their own stream seeded with writeSeed, so two passes offer the
// same reads less the entries that became writes.
func replayMix(t *testing.T, tr *tree.Tree, docs map[core.DocID][]byte, sched []trace.Request, writeSeed int64, writeFraction float64) mixPass {
	t.Helper()
	c, err := New(tr, docs, writeConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	var p mixPass
	wrng := rand.New(rand.NewSource(writeSeed))
	start := time.Now()
	for _, req := range sched {
		time.Sleep(time.Until(start.Add(time.Duration(req.Time * float64(time.Second)))))
		if writeFraction > 0 && wrng.Float64() < writeFraction {
			p.writes++
			if _, err := c.Republish(req.Doc, fmt.Appendf(nil, "update body %s #%d", req.Doc, p.writes)); err != nil {
				t.Fatal(err)
			}
			continue
		}
		p.reads++
		if err := c.Inject(req.Origin, req.Doc); err != nil {
			t.Fatal(err)
		}
	}
	p.unanswered = c.Drain(5 * time.Second)
	p.staleness = c.StalenessSummary()
	var offOrigin int64
	for v, n := range c.ServedBy() {
		if v != tr.Root() {
			offOrigin += n
		}
	}
	p.hitRate = float64(offOrigin) / float64(max(c.Responses(), 1))
	p.republishesIn = statSum(statsOf(t, c), func(st *netproto.Stats) int64 { return st.RepublishesIn })
	return p
}

// TestUpdateHeavy plays one Poisson schedule (a random 31-node tree, 48
// Zipf documents, 600 req/s for 3 s) twice: read-only, then with a tenth of
// its entries turned into republish writes. Both passes answer every read.
// The read-only control writes nothing, takes no staleness sample and
// serves off the origin. The write mix writes, its writes are applied in
// the tree, every response after a write is staleness-sampled, its p99
// staleness is within one diffusion period, and it costs at most a tenth
// of the control's hit rate.
func TestUpdateHeavy(t *testing.T) {
	const (
		seed          = 1
		nodes, docs   = 31, 48
		rate, seconds = 600, 3
		writeFraction = 0.10
		maxCost       = 0.10 // hit-rate drop, as a share of the control's
	)
	rng := rand.New(rand.NewSource(seed))
	tr, err := tree.RandomBounded(nodes, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	demand, err := trace.ZipfDemand(tr, trace.ZipfDemandConfig{NumDocs: docs, Skew: 1.0, TotalRate: rate}, rng)
	if err != nil {
		t.Fatal(err)
	}
	sched := trace.PoissonSchedule(demand, seconds, rng)
	control := replayMix(t, tr, docsFor(demand), sched, seed+7777, 0)
	mix := replayMix(t, tr, docsFor(demand), sched, seed+7777, writeFraction)
	cost := (control.hitRate - mix.hitRate) / control.hitRate
	t.Logf("read-only: %d reads, hit rate %.4f; write mix: %d reads + %d writes, hit rate %.4f (cost %.4f), p99 staleness %.4fs over %d samples, %d republishes applied",
		control.reads, control.hitRate, mix.reads, mix.writes, mix.hitRate, cost,
		mix.staleness.P99, mix.staleness.N, mix.republishesIn)

	if control.unanswered != 0 || mix.unanswered != 0 {
		t.Errorf("unanswered reads: read-only %d, write mix %d", control.unanswered, mix.unanswered)
	}
	if control.writes != 0 || control.staleness.N != 0 {
		t.Errorf("the read-only control made %d writes and took %d staleness samples", control.writes, control.staleness.N)
	}
	if control.hitRate <= 0 {
		t.Errorf("read-only hit rate %v: nothing was served off the origin", control.hitRate)
	}
	if mix.writes < 1 {
		t.Fatal("the write mix made no writes")
	}
	if int64(mix.staleness.N) < mix.writes {
		t.Errorf("%d staleness samples over %d writes: responses after a write went unsampled", mix.staleness.N, mix.writes)
	}
	if mix.republishesIn < 1 {
		t.Error("no node applied a republish")
	}
	if period := writeConfig().DiffusionPeriod.Seconds(); mix.staleness.P99 > period {
		t.Errorf("p99 staleness %.4fs, over one diffusion period (%.3fs)", mix.staleness.P99, period)
	}
	if cost > maxCost {
		t.Errorf("the write mix cost %.4f of the read-only hit rate (%.4f -> %.4f), ceiling %.2f",
			cost, control.hitRate, mix.hitRate, maxCost)
	}
}

// TestInvalidationStorm spreads a hot document over a star of 3 subtrees of
// 4 leaves, then eight times invalidates it and reads it 120 times across
// the leaves. The reads land 25 ms after the write: after the invalidate
// frames have reached the leaves, before one diffusion period lets the duty
// loop send fresh bodies down. Every copy below the origin is stale at once,
// and the subtree leases must collapse the burst. Every read is answered,
// the invalidations are applied and refreshed through leases, and per write
// the origin serves at most 4 fetches per subtree and the tree forwards at
// most half as many reads as the burst holds.
func TestInvalidationStorm(t *testing.T) {
	const (
		subtrees, leavesPer = 3, 4
		clients, writes     = 120, 8
		settle              = 25 * time.Millisecond
		maxOriginPerSubtree = 4.0
		maxForwardFraction  = 0.5 // of the burst
		hot                 = core.DocID("hot")
	)
	tr, leaves := star(subtrees, leavesPer)
	c, err := New(tr, map[core.DocID][]byte{
		hot:    []byte("storm document, version 0"),
		"cold": []byte("background document"),
	}, writeConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	spreadBelowRoot(t, c, leaves, []core.DocID{hot}, 4)

	forwarded := func(st *netproto.Stats) int64 { return st.Forwarded }
	before := statsOf(t, c)
	var unanswered int64
	for w := 1; w <= writes; w++ {
		if _, err := c.Invalidate(hot, fmt.Appendf(nil, "storm document, version %d", w)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(settle)
		for i := 0; i < clients; i++ {
			if err := c.Inject(leaves[i%len(leaves)], hot); err != nil {
				t.Fatal(err)
			}
		}
		unanswered += c.Drain(5 * time.Second)
	}
	after := statsOf(t, c)
	// The origin's own serve count: a read coalesced below it reports the
	// origin as its server without costing it a fetch.
	originPerWrite := float64(after[tr.Root()].Served-before[tr.Root()].Served) / writes
	forwardsPerWrite := float64(statSum(after, forwarded)-statSum(before, forwarded)) / writes
	invalidations := statSum(after, func(st *netproto.Stats) int64 { return st.InvalidationsIn })
	leaseRefreshes := statSum(after, func(st *netproto.Stats) int64 { return st.LeaseRefreshes })
	t.Logf("%d writes x %d reads: %.2f origin fetches and %.1f forwards per write, %d invalidations applied, %d lease refreshes",
		writes, clients, originPerWrite, forwardsPerWrite, invalidations, leaseRefreshes)

	if unanswered != 0 {
		t.Errorf("%d storm reads unanswered", unanswered)
	}
	if invalidations < 1 {
		t.Error("no node applied an invalidation")
	}
	if leaseRefreshes < 1 {
		t.Error("no lease refresh: the storm never refreshed a copy through its subtree")
	}
	// Zero is legitimate: a diffusion tick that beats the burst has already
	// sent fresh bodies down, and the origin never sees the storm.
	if ceiling := maxOriginPerSubtree * subtrees; originPerWrite > ceiling {
		t.Errorf("%.2f origin fetches per write, over %.0f (%v per subtree): the leases did not collapse the burst",
			originPerWrite, ceiling, maxOriginPerSubtree)
	}
	if ceiling := maxForwardFraction * clients; forwardsPerWrite > ceiling {
		t.Errorf("%.1f forwards per write, over %.0f: the %d-read burst herded upward",
			forwardsPerWrite, ceiling, clients)
	}
}
