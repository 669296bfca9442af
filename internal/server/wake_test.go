package server

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"webwave/internal/core"
	"webwave/internal/netproto"
)

// wakeRig drives one node's control loop and its one shard by hand: c.now
// and sh.now are set to the instant of each control wake or shard step,
// and nothing runs on a timer.
type wakeRig struct {
	t     *testing.T
	s     *Server
	c     *control
	sh    *shard
	doc   core.DocID // a copy the shard holds, with a target
	edge  time.Time  // a gossip edge: the control loop's wakes fall on it and its successors
	k     int        // the next period settle wakes in
	ticks int        // periodic ticks step ran
	reqID uint64
}

// newWakeRig builds the rig on a one-shard node holding one copy, whose
// snapshot's rate maps are due at every tick; disk turns the disk tier and
// its journal on.
func newWakeRig(t *testing.T, disk bool) *wakeRig {
	cfg := Config{QueueDepth: 8, GossipPeriod: 50 * time.Millisecond, DiffusionPeriod: 50 * time.Millisecond}
	if disk {
		cfg.DataDir = t.TempDir()
	}
	s, docs := gatedShard(t, cfg, 1, 100)
	t.Cleanup(s.Stop)
	p := s.cfg.GossipPeriod
	return &wakeRig{
		t: t, s: s, c: s.ctrl, sh: s.shards[0], doc: docs[0],
		edge: epoch.Add((time.Since(epoch)/p + 2) * p),
	}
}

// at is the instant frac of a period after the k-th gossip edge.
func (r *wakeRig) at(k int, frac float64) time.Time {
	return r.edge.Add(time.Duration((float64(k) + frac) * float64(r.s.cfg.GossipPeriod)))
}

// wake runs the control loop's timer wake at the given instant and reports
// whether it posted the shard a wake.
func (r *wakeRig) wake(at time.Time) bool {
	r.c.now = at
	n := len(r.sh.events)
	r.c.runDue()
	return len(r.sh.events) > n
}

// step runs one pass of the shard loop at the given instant, counting the
// periodic ticks, and holds a shard that reports idle to owing nothing.
func (r *wakeRig) step(at time.Time, ev event) {
	r.sh.now = at
	slot := r.sh.tickSlot
	r.sh.step(ev)
	if r.sh.tickSlot != slot {
		r.ticks++
	}
	checkIdle(r.t, r.ticks, r.sh)
}

// drain steps the shard until its queue is empty.
func (r *wakeRig) drain(at time.Time) {
	for len(r.sh.events) > 0 {
		r.step(at, <-r.sh.events)
	}
}

// request is a queued read of doc from a client.
func (r *wakeRig) request(doc core.DocID) event {
	r.reqID++
	return event{conn: nopConn{}, env: &netproto.Envelope{
		Kind: netproto.TypeRequest, From: -1, Origin: 1, ReqID: r.reqID, Doc: doc,
	}}
}

// settle wakes the node at successive gossip edges until its shard reports
// idle, and returns the period of that last wake.
func (r *wakeRig) settle() int {
	r.t.Helper()
	for tries := 0; tries < 10; tries++ {
		k := r.k
		r.k++
		r.wake(r.at(k, 0))
		r.drain(r.at(k, 0))
		if r.sh.idleMark.Load() != busy {
			return k
		}
	}
	r.t.Fatal("the shard never reported idle")
	return 0
}

// TestWakeTicksWhatIsOwed: the control loop wakes a shard only while it owes
// a tick, a wake only brings a shard to its after-batch check, and that
// check ticks once per gossip period however the shard was reached: by
// events alone, by wakes alone (up to a tenth of a period late, as a timer
// fires), or both, with events jittered by a tenth of a period either way.
func TestWakeTicksWhatIsOwed(t *testing.T) {
	rows := []struct {
		name string
		disk bool
		run  func(t *testing.T, r *wakeRig)
	}{
		{"an idle shard is never woken", false, func(t *testing.T, r *wakeRig) {
			k := r.settle()
			for i := 1; i <= 100; i++ {
				if r.wake(r.at(k+i, 0)) {
					t.Fatalf("control wake %d woke an idle shard", i)
				}
			}
		}},
		{"a fast serve gets an idle shard woken", false, func(t *testing.T, r *wakeRig) {
			k := r.settle()
			if !request(r.s, r.doc, -1, 1) {
				t.Fatal("the fast path declined")
			}
			if !r.wake(r.at(k+1, 0)) {
				t.Fatal("the next wake passed over a shard with a fast serve to drain")
			}
			r.drain(r.at(k+1, 0))
			if n := r.sh.state(r.doc).served.Load(); n != 0 || r.sh.idleMark.Load() != busy {
				t.Fatalf("after the wake %d serves are pending and the mark is %d", n, r.sh.idleMark.Load())
			}
		}},
		{"a wake does nothing itself", false, func(t *testing.T, r *wakeRig) {
			k := r.settle()
			request(r.s, r.doc, -1, 1)
			r.step(r.at(k, 0.5), event{cmd: cmdSnap}) // the period already had its tick
			if n := r.sh.state(r.doc).served.Load(); n != 1 {
				t.Fatalf("a wake in a period that had its tick drained: %d serves pending, want 1", n)
			}
		}},
		{"an eviction note gets an idle shard woken", false, func(t *testing.T, r *wakeRig) {
			k := r.settle()
			r.sh.postEvicted(r.doc)
			if !r.wake(r.at(k+1, 0)) {
				t.Fatal("the next wake passed over a shard with an eviction note")
			}
			r.drain(r.at(k+1, 0))
			if len(r.sh.evictedIn) != 0 {
				t.Fatal("the wake left the note undrained")
			}
		}},
		{"an eviction note posted after the step drained them keeps the shard busy", false, func(t *testing.T, r *wakeRig) {
			r.settle()
			r.sh.postEvicted(r.doc)
			r.sh.tick(false) // as if the note landed between the step's drain and its tick
			if r.sh.idleMark.Load() != busy {
				t.Fatal("the tick marked a shard with an undrained eviction note idle")
			}
		}},
		{"a scrape ticks an idle shard at once", false, func(t *testing.T, r *wakeRig) {
			k := r.settle()
			epoch := r.sh.snap.Load().epoch
			reply := make(chan *shardSnap, 1)
			r.step(r.at(k, 0.5), event{cmd: cmdSnap, reply: reply})
			if got := (<-reply).epoch; got != epoch+1 {
				t.Fatalf("the scrape returned epoch %d, want %d", got, epoch+1)
			}
		}},
		{"a read batched after a scrape keeps the shard busy", false, func(t *testing.T, r *wakeRig) {
			k := r.settle()
			r.sh.events <- r.request("cold") // held for upstream
			r.step(r.at(k, 0.5), event{cmd: cmdSnap, reply: make(chan *shardSnap, 1)})
			if r.sh.idleMark.Load() != busy {
				t.Fatal("the scrape's tick marked the shard idle and the read after it left the mark")
			}
		}},
		{"a full queue drops the wake and the shard ticks anyway", false, func(t *testing.T, r *wakeRig) {
			k := r.settle()
			for len(r.sh.events) < cap(r.sh.events) {
				r.sh.events <- r.request(r.doc)
			}
			if r.wake(r.at(k+1, 0)) {
				t.Fatal("a wake landed in a full queue")
			}
			r.step(r.at(k+1, 0.05), <-r.sh.events)
			if r.ticks == 0 || r.sh.tickSlot != int64(r.at(k+1, 0).Sub(epoch)/r.s.cfg.GossipPeriod) {
				t.Fatal("the batch after a dropped wake did not tick")
			}
		}},
		{"a flow window keeps a shard busy until its rate is published empty", false, func(t *testing.T, r *wakeRig) {
			k := r.settle()
			ev := r.request("cold")
			ev.env.From = 2 // a child's read, passed on upward: a flow, no serve
			r.step(r.at(k+1, 0), ev)
			r.step(r.at(k+1, 0.1), event{conn: nopConn{}, env: &netproto.Envelope{
				Kind: netproto.TypeResponse, From: 0, To: 1, Doc: "cold", Origin: 1, ReqID: ev.env.ReqID,
			}})
			for i := 2; r.sh.idleMark.Load() == busy; i++ {
				if i > 2+int(r.s.cfg.Window/r.s.cfg.GossipPeriod)+2 {
					t.Fatal("the shard never went idle once the window ran dry")
				}
				if !r.wake(r.at(k+i, 0)) {
					t.Fatalf("wake %d passed over a busy shard", i)
				}
				r.drain(r.at(k+i, 0))
				if i == 2 && r.sh.idleMark.Load() != busy {
					t.Fatal("the shard went idle with a live flow window")
				}
			}
		}},
		{"journal lag keeps a shard busy until synced", true, func(t *testing.T, r *wakeRig) {
			k := r.settle()
			// An invalidation journals the copy's drop and leaves nothing
			// else for a tick. It lands in the settled period, which has had
			// its tick, so the record waits for the next wake's.
			r.step(r.at(k, 0.5), event{conn: nopConn{}, env: &netproto.Envelope{
				Kind: netproto.TypeInvalidate, From: 0, To: 1, Doc: r.doc, DocVersion: 1,
			}})
			if r.s.journal.Lag() == 0 {
				t.Fatal("the invalidation journaled nothing")
			}
			if !r.wake(r.at(k+20, 0)) {
				t.Fatal("the next wake passed over a shard with journal records to sync")
			}
			r.drain(r.at(k+20, 0))
			if lag := r.s.journal.Lag(); lag != 0 {
				t.Fatalf("the wake left %d journal records unsynced", lag)
			}
		}},
		{"a clock set back leaves the next wake at most a period away", false, func(t *testing.T, r *wakeRig) {
			k := r.settle()
			r.wake(r.at(k+50, 0))
			r.c.now = r.at(k+1, 0.5) // 49.5 periods back
			if wait := r.c.runDue(); wait <= 0 || wait > r.s.cfg.GossipPeriod {
				t.Fatalf("after the clock went back the next wake is %v away, want at most %v", wait, r.s.cfg.GossipPeriod)
			}
		}},
		{"cadence: events alone", false, func(t *testing.T, r *wakeRig) { cadence(t, r, false, true) }},
		{"cadence: wakes alone", false, func(t *testing.T, r *wakeRig) { cadence(t, r, true, false) }},
		{"cadence: wakes and events", false, func(t *testing.T, r *wakeRig) { cadence(t, r, true, true) }},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) { row.run(t, newWakeRig(t, row.disk)) })
	}
}

// cadence holds the shard busy with a read waiting upstream and drives it
// for 40 gossip periods by control wakes, by four requests a period, or
// both, in time order; it ticks once a period.
func cadence(t *testing.T, r *wakeRig, wakes, events bool) {
	const periods = 40
	rng := rand.New(rand.NewSource(1))
	k := r.settle()
	r.step(r.at(k, 0.5), r.request("cold")) // held for upstream: busy until PendingTTL
	type visit struct {
		at   time.Time
		wake bool
	}
	var plan []visit
	for i := 1; i <= periods; i++ {
		if wakes {
			plan = append(plan, visit{r.at(k+i, 0.1*rng.Float64()), true})
		}
		for f := 0.0; events && f < 1; f += 0.25 {
			plan = append(plan, visit{r.at(k+i, f+0.2*rng.Float64()-0.1), false})
		}
	}
	slices.SortFunc(plan, func(a, b visit) int { return a.at.Compare(b.at) })
	r.ticks = 0
	for _, v := range plan {
		if !v.wake {
			r.step(v.at, r.request(r.doc))
		} else if !r.wake(v.at) {
			t.Fatal("a busy shard was not woken")
		} else {
			r.drain(v.at)
		}
	}
	if r.ticks < periods-1 || r.ticks > periods+1 {
		t.Fatalf("%d ticks over %d periods, want %d..%d", r.ticks, periods, periods-1, periods+1)
	}
}

// TestNoTickers: the control loop is the node's one clock-driven loop, and
// its one timer fires only when a job is due. A ticker anywhere in the
// package's code would be a second clock waking the node whether or not
// anything is due.
func TestNoTickers(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	timers := 0
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "time" {
				return true
			}
			switch sel.Sel.Name {
			case "NewTicker", "Tick":
				t.Errorf("%s: time.%s: periodic work belongs to the control loop's timer", file, sel.Sel.Name)
			case "NewTimer":
				timers++
			}
			return true
		})
	}
	if timers == 0 {
		t.Fatal("found no time.NewTimer call: the control loop's timer should be one")
	}
}
