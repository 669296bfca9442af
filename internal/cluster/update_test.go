package cluster

import (
	"testing"
	"time"

	"webwave/internal/core"
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
