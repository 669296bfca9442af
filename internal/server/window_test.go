package server

import (
	"math"
	"testing"
	"time"
)

// TestRateWindowIdleResetViaAdd covers the advance catch-up branch through
// Add: after an idle gap far longer than the window, the ring resets in
// O(buckets) instead of rotating once per elapsed bucket, stale counts
// vanish, and the new event still lands.
func TestRateWindowIdleResetViaAdd(t *testing.T) {
	w := newRateWindow(time.Second, 8)
	start := time.Unix(1000, 0)
	for i := 0; i < 8; i++ {
		w.Add(start.Add(time.Duration(i)*125*time.Millisecond), 10)
	}
	if r := w.Rate(start.Add(900 * time.Millisecond)); r < 50 {
		t.Fatalf("warm rate = %v, want substantial", r)
	}

	// Jump forward by an hour — millions of bucket widths. The reset branch
	// must fire (bounded work) and the old counts must not survive.
	later := start.Add(time.Hour)
	done := make(chan struct{})
	go func() {
		w.Add(later, 1)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("advance did not take the catch-up reset branch (still rotating)")
	}

	got := w.Rate(later)
	// Only the single new event may contribute; one event over one bucket
	// width (125ms) is 8/s. Any stale pre-gap count would push it far higher.
	if got > 8.01 {
		t.Errorf("rate after idle gap = %v, want <= 8 (stale buckets leaked)", got)
	}
	if got <= 0 {
		t.Errorf("rate after idle gap = %v, want > 0 (new event lost)", got)
	}

	// The ring must be fully usable after the reset.
	for i := 0; i < 8; i++ {
		w.Add(later.Add(time.Duration(i)*125*time.Millisecond), 5)
	}
	if r := w.Rate(later.Add(900 * time.Millisecond)); r < 25 {
		t.Errorf("post-reset rate = %v, want substantial", r)
	}
}

// TestRateWindowModerateGapRotates covers the non-reset path around the
// catch-up bound: a gap just inside 2x the window still rotates bucket by
// bucket and simply zeroes history.
func TestRateWindowModerateGapRotates(t *testing.T) {
	w := newRateWindow(time.Second, 4)
	start := time.Unix(2000, 0)
	w.Add(start, 100)
	w.Add(start.Add(1500*time.Millisecond), 1) // 1.5 windows later
	if r := w.Rate(start.Add(1500 * time.Millisecond)); r > 4.01 {
		t.Errorf("rate after moderate gap = %v; old burst should have aged out", r)
	}
}

func TestRateWindowSteadyRate(t *testing.T) {
	w := newRateWindow(time.Second, 10)
	base := time.Unix(1000, 0)
	// 100 events/second for 2 seconds, 10ms apart.
	for i := 0; i < 200; i++ {
		w.Add(base.Add(time.Duration(i)*10*time.Millisecond), 1)
	}
	got := w.Rate(base.Add(2 * time.Second))
	if math.Abs(got-100) > 15 {
		t.Errorf("steady rate = %v, want ≈100", got)
	}
}

func TestRateWindowDecaysAfterBurst(t *testing.T) {
	w := newRateWindow(time.Second, 10)
	base := time.Unix(1000, 0)
	for i := 0; i < 100; i++ {
		w.Add(base.Add(time.Duration(i)*time.Millisecond), 1)
	}
	during := w.Rate(base.Add(100 * time.Millisecond))
	if during <= 0 {
		t.Fatal("rate zero during burst")
	}
	after := w.Rate(base.Add(5 * time.Second))
	if after != 0 {
		t.Errorf("rate %v long after burst, want 0", after)
	}
}

func TestRateWindowEmptyIsZero(t *testing.T) {
	w := newRateWindow(time.Second, 8)
	if got := w.Rate(time.Unix(5, 0)); got != 0 {
		t.Errorf("empty window rate = %v", got)
	}
}

func TestRateWindowWeightedAdds(t *testing.T) {
	w := newRateWindow(time.Second, 4)
	base := time.Unix(2000, 0)
	w.Add(base, 50)
	w.Add(base.Add(100*time.Millisecond), 50)
	got := w.Rate(base.Add(200 * time.Millisecond))
	if got <= 0 {
		t.Errorf("weighted rate = %v", got)
	}
}

func TestRateWindowLongIdleReset(t *testing.T) {
	w := newRateWindow(time.Second, 4)
	base := time.Unix(3000, 0)
	w.Add(base, 1000)
	// Rate long after must be 0, and the catch-up must not spin.
	start := time.Now()
	got := w.Rate(base.Add(24 * time.Hour))
	if time.Since(start) > 100*time.Millisecond {
		t.Error("idle catch-up too slow (unbounded rotation?)")
	}
	if got != 0 {
		t.Errorf("rate after a day = %v", got)
	}
}

func TestRateWindowDefensiveConstruction(t *testing.T) {
	// Degenerate parameters are clamped, not fatal.
	w := newRateWindow(0, 0)
	w.Add(time.Unix(1, 0), 1)
	_ = w.Rate(time.Unix(1, 0))
}

// TestRateWindowPartialCoverage pins the divisor: while the window fills —
// from its first reading, or afresh after more than two spans of idleness —
// Rate averages over the buckets covered so far, not the whole span; after
// an idle gap of one to two spans the history is gone but the span is not.
func TestRateWindowPartialCoverage(t *testing.T) {
	const width = 250 * time.Millisecond
	w := newRateWindow(time.Second, 4)
	base := time.Unix(4000, 0)
	w.Add(base, 10)
	if got := w.Rate(base); got != 40 {
		t.Errorf("one bucket covered: rate = %v, want 10/0.25s = 40", got)
	}
	w.Add(base.Add(2*width), 10)
	if got := w.Rate(base.Add(2 * width)); math.Abs(got-20/0.75) > 1e-9 {
		t.Errorf("three buckets covered: rate = %v, want 20/0.75s", got)
	}
	if got := w.Rate(base.Add(5 * width)); got != 10 {
		t.Errorf("full window: rate = %v, want 10 (first burst aged out, 10 events / 1s)", got)
	}
	// 1.5 spans idle: everything aged out, coverage stays whole.
	w.Add(base.Add(11*width), 3)
	if got := w.Rate(base.Add(11 * width)); got != 3 {
		t.Errorf("after 1.5 idle spans: rate = %v, want 3/1s", got)
	}
	// More than two spans idle: the window starts filling afresh.
	w.Add(base.Add(24*width), 3)
	if got := w.Rate(base.Add(24 * width)); got != 12 {
		t.Errorf("after 3 idle spans: rate = %v, want 3/0.25s = 12", got)
	}
}
