package server

import (
	"math"
	"time"

	"webwave/internal/core"
)

// rateWindow estimates an event rate (events/second) over a sliding window
// using a ring of fixed-width buckets. It is used by servers to measure
// their served load L_i and the per-child, per-document forwarded rates
// A_j^d — the quantities the WebWave protocol bases decisions on.
//
// Buckets are addressed by their absolute index on the clock (Unix
// nanoseconds / bucket width) and the window keeps a running total, so Add
// and Rate cost O(1) amortised.
//
// rateWindow is not safe for concurrent use; servers touch it only from
// their main loop.
type rateWindow struct {
	width   int64 // bucket width, nanoseconds
	buckets []float64
	total   float64 // sum of buckets
	// head is the absolute index of the bucket covering the latest reading;
	// first is that of the earliest bucket the window has covered since it
	// started or last reset. Until head-first+1 reaches len(buckets) the
	// window is still filling and Rate divides by the covered part only.
	head, first int64
	started     bool
}

// newRateWindow returns a window covering `span` with the given number of
// buckets (more buckets = smoother estimate, slightly more work).
func newRateWindow(span time.Duration, buckets int) *rateWindow {
	if buckets < 2 {
		buckets = 2
	}
	if span <= 0 {
		span = time.Second
	}
	return &rateWindow{
		width:   int64(span / time.Duration(buckets)),
		buckets: make([]float64, buckets),
	}
}

// advance moves the head bucket to the one covering `now`, emptying the
// buckets the ring reuses on the way. A reading older than the head lands
// in the head bucket.
func (w *rateWindow) advance(now time.Time) {
	idx := now.UnixNano() / w.width
	if !w.started {
		w.started, w.head, w.first = true, idx, idx
		return
	}
	n := int64(len(w.buckets))
	switch gap := idx - w.head; {
	case gap <= 0:
		return
	case gap < n:
		for i := w.head + 1; i <= idx; i++ {
			w.total -= w.buckets[i%n]
			w.buckets[i%n] = 0
		}
	default:
		// Everything counted has aged out. Past two spans of idleness the
		// window also starts filling afresh instead of averaging the new
		// arrivals over a span it did not watch.
		clear(w.buckets)
		w.total = 0
		if gap > 2*n {
			w.first = idx
		}
	}
	w.head = idx
}

// Add records n events at time now.
func (w *rateWindow) Add(now time.Time, n float64) {
	w.advance(now)
	w.buckets[w.head%int64(len(w.buckets))] += n
	w.total += n
}

// Rate returns the estimated events/second over the covered window.
func (w *rateWindow) Rate(now time.Time) float64 {
	w.advance(now)
	covered := min(w.head-w.first+1, int64(len(w.buckets)))
	return w.total / time.Duration(covered*w.width).Seconds()
}

// Clear forgets everything counted, for a window whose subject is gone.
func (w *rateWindow) Clear() {
	clear(w.buckets)
	w.total = 0
}

// rateBuckets is the bucket count of every window the server keeps.
const rateBuckets = 8

// rateNoise is how far a window's Rate may sit from a steady true rate r
// with nothing having changed: the head bucket is still filling, which
// understates r by up to one bucket's share, and the count over the span
// is itself a sample whose standard deviation is its square root. Gossip
// uses it as the dead-band below which a moved load figure is not news.
func rateNoise(r float64, span time.Duration) float64 {
	return r/rateBuckets + math.Sqrt(r/span.Seconds())
}

// docWindow is one of the per-document windows a shard keeps — a
// document's served rate, or its arrival flow from one sender — tagged
// with what it measures, so the shard can keep a list of the windows that
// currently hold counts instead of reading every window it owns.
type docWindow struct {
	rateWindow
	doc core.DocID
	// from is the flow's sender id (-1 = locally injected demand), or
	// servedRate for a served-rate window.
	from int
	live bool // on shard.live
}

// servedRate is docWindow.from for a served-rate window; sender ids are
// node ids (or -1) and never reach it.
const servedRate = math.MinInt
