package server

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"webwave/internal/core"
	"webwave/internal/netproto"
	"webwave/internal/transport"
)

// The tests below drive shard and control loops by hand — handlers called
// inline on the test goroutine, sh.now / c.now advanced explicitly — so
// nothing in them depends on a timer or a sleep.

// handServer returns an unstarted mid-tree node (id 1 under parent 0, with
// children 2 and 3) whose links all discard what they are sent.
func handServer(tb testing.TB, cfg Config) *Server {
	tb.Helper()
	cfg.ID, cfg.ParentID, cfg.ParentAddr = 1, 0, "parent"
	s := benchServer(tb, cfg)
	s.parent.Store(&parentLink{id: 0, conn: nopConn{}})
	s.children.Store(&childView{conns: map[int]transport.Conn{2: nopConn{}, 3: nopConn{}}})
	return s
}

// request sends one request the way dispatch does: the fast path first, the
// shard's queued path when that declines. It reports whether the fast path
// served it.
func request(s *Server, doc core.DocID, from int, reqID uint64) bool {
	env := &netproto.Envelope{Kind: netproto.TypeRequest, From: from, Origin: 1, ReqID: reqID, Doc: doc}
	sh := s.shardFor(doc)
	if s.tryFastServe(sh, shardHash(doc), env, nopConn{}) {
		return true
	}
	sh.handle(event{env: env, conn: nopConn{}})
	return false
}

// rebuildRates is the every-tick snapshot rebuild this package used to run,
// kept as the oracle the change-driven snapshot is compared against: every
// target and every window the shard owns, read from scratch (zero entries
// left out, as the snapshot leaves them out).
func rebuildRates(sh *shard) (targets, served map[core.DocID]float64, flows map[int]map[core.DocID]float64) {
	now := sh.now
	targets = make(map[core.DocID]float64)
	served = make(map[core.DocID]float64)
	flows = make(map[int]map[core.DocID]float64)
	add := func(from int, d core.DocID, w *docWindow) {
		if r := w.Rate(now); r > 0 {
			if flows[from] == nil {
				flows[from] = make(map[core.DocID]float64)
			}
			flows[from][d] = r
		}
	}
	for d, st := range sh.docs {
		if st.target > 0 {
			targets[d] = st.target
		}
		if w := st.servedWin; w != nil {
			if r := w.Rate(now); r > 0 {
				served[d] = r
			}
		}
		if st.flowWin != nil {
			add(-1, d, st.flowWin)
		}
	}
	for child, ws := range sh.childFlow {
		for d, w := range ws {
			add(child, d, w)
		}
	}
	return targets, served, flows
}

// filtersUp lists, sorted, the documents whose record has its filter up:
// what a snapshot's installed list must say.
func filtersUp(sh *shard) []core.DocID {
	var up []core.DocID
	for d, st := range sh.docs {
		if st.filter {
			up = append(up, d)
		}
	}
	slices.Sort(up)
	return up
}

// checkShardLists asserts the loop-owned lists agree with what they index:
// the flat entry list mirrors the publication index, every indexed entry
// and its document's record point at each other, a record's journal view
// is consistent, and the live list holds exactly the windows with counts
// that some record or child map owns.
func checkShardLists(t *testing.T, sh *shard) {
	t.Helper()
	indexed := 0
	for i := range sh.pub {
		if m := sh.pub[i].Load(); m != nil {
			for doc, e := range *m {
				indexed++
				if e.slot < 0 || e.slot >= len(sh.entries) || sh.entries[e.slot] != e {
					t.Fatalf("entry %s: slot %d does not point back at it in a list of %d", doc, e.slot, len(sh.entries))
				}
				if e.st == nil || e.st != sh.docs[doc] || e.st.doc != doc {
					t.Fatalf("entry %s: its record is not the shard's record for it", doc)
				}
			}
		}
	}
	if indexed != len(sh.entries) {
		t.Fatalf("flat list holds %d entries, the index %d", len(sh.entries), indexed)
	}
	for _, st := range sh.hot {
		if !st.hot {
			t.Fatalf("record %s on the hot list without its flag", st.doc)
		}
	}
	owned := make(map[*docWindow]bool)
	for doc, st := range sh.docs {
		if st.pub != sh.published(doc) {
			t.Fatalf("record %s: published entry %p, the index has %p", doc, st.pub, sh.published(doc))
		}
		if st.jTarget != 0 && !st.admitted {
			t.Fatalf("record %s: journaled target %v without an admit record", doc, st.jTarget)
		}
		for _, w := range []*docWindow{st.servedWin, st.flowWin} {
			if w != nil {
				owned[w] = true
			}
		}
	}
	for _, ws := range sh.childFlow {
		for _, w := range ws {
			owned[w] = true
		}
	}
	onList := make(map[*docWindow]bool, len(sh.live))
	for _, w := range sh.live {
		onList[w] = true
		if w.Rate(sh.now) > 0 && !owned[w] {
			t.Fatalf("live window %s/%d holds counts but nothing owns it", w.doc, w.from)
		}
	}
	for w := range owned {
		if w.Rate(sh.now) > 0 && !onList[w] {
			t.Fatalf("window %s/%d holds counts but is not live", w.doc, w.from)
		}
	}
}

// checkIdle asserts that a shard its last tick found idle owes nothing a
// later tick would do: no window holds counts, no budget is below full, no
// read is held, the published load and rate maps are empty and the journal
// is synced.
func checkIdle(t *testing.T, step int, sh *shard) {
	t.Helper()
	if sh.idleMark.Load() == busy {
		return
	}
	_, served, flows := rebuildRates(sh)
	sn := sh.snap.Load()
	lag := int64(0)
	if sh.s.journal != nil {
		lag = sh.s.journal.Lag()
	}
	if len(served)+len(flows)+len(sh.hot)+len(sh.waits)+len(sn.served)+len(sn.flows) > 0 || sn.load != 0 || lag != 0 {
		t.Fatalf("step %d: idle with %d served and %d flow rates (%d and %d published), %d hot, %d holding reads, load %v, journal lag %d",
			step, len(served), len(flows), len(sn.served), len(sn.flows), len(sh.hot), len(sh.waits), sn.load, lag)
	}
}

// TestSnapshotMatchesRebuild: after any sequence of fast serves, queued
// serves, duty movements, evictions, republishes and a child's death, the
// snapshot a scrape gets equals a from-scratch rebuild of the same figures.
// One more run keeps the disk tier on, so spills, disk hits and the journal
// take part.
func TestSnapshotMatchesRebuild(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { snapshotMatchesRebuild(t, seed, "") })
	}
	t.Run("disk", func(t *testing.T) { snapshotMatchesRebuild(t, 1, t.TempDir()) })
}

func snapshotMatchesRebuild(t *testing.T, seed int64, dataDir string) {
	rng := rand.New(rand.NewSource(seed))
	docs := make([]core.DocID, 12)
	for i := range docs {
		docs[i] = core.DocID(fmt.Sprintf("doc-%02d", i))
	}
	body := make([]byte, 100)
	s := handServer(t, Config{
		NumShards: 1, CacheShards: 1,
		CacheBudgetBytes: 650, // six of the twelve bodies: admissions evict
		DataDir:          dataDir,
		DiskBudgetBytes:  900, // nine: the disk tier evicts too
		GossipPeriod:     20 * time.Millisecond, DiffusionPeriod: 40 * time.Millisecond,
		Window: 400 * time.Millisecond,
	})
	t.Cleanup(s.Stop)
	sh := s.shards[0]
	vers := make(map[core.DocID]uint64)
	var reqID uint64
	pick := func() core.DocID { return docs[rng.Intn(len(docs))] }
	env := func(kind netproto.Type, doc core.DocID, rate float64) event {
		return event{conn: nopConn{}, env: &netproto.Envelope{
			Kind: kind, From: 0, To: 1, Doc: doc, Rate: rate, Body: body, DocVersion: vers[doc],
		}}
	}
	for step := 0; step < 3000; step++ {
		doc := pick()
		switch op := rng.Intn(100); {
		case op < 50: // a request, from a client or forwarded by a child
			reqID++
			request(s, doc, []int{-1, -1, 2, 3}[rng.Intn(4)], reqID)
		case op < 58:
			sh.handle(env(netproto.TypeDelegate, doc, float64(5+rng.Intn(400))))
		case op < 62:
			sh.handleCmd(event{cmd: cmdDelegate, child: 2 + rng.Intn(2), doc: doc, rate: float64(rng.Intn(50))})
		case op < 66:
			sh.handleCmd(event{cmd: cmdShed, doc: doc, rate: float64(rng.Intn(50))})
		case op < 70:
			sh.handleCmd(event{cmd: cmdClaim, doc: doc, rate: float64(rng.Intn(50))})
		case op < 73:
			vers[doc]++
			sh.handle(env(netproto.TypeRepublish, doc, 0))
		case op < 75:
			vers[doc]++
			ev := env(netproto.TypeInvalidate, doc, 0)
			ev.env.Body = nil
			sh.handle(ev)
		case op < 76:
			sh.handleCmd(event{cmd: cmdChildGone, child: 2 + rng.Intn(2)})
		case op < 90:
			sh.now = sh.now.Add(time.Duration(rng.Intn(30)) * time.Millisecond)
			sh.tick(false)
			checkIdle(t, step, sh)
		case op < 92: // long enough for every window to empty
			sh.now = sh.now.Add(time.Duration(rng.Intn(1500)) * time.Millisecond)
			sh.tick(false)
			checkIdle(t, step, sh)
		default:
			sh.now = sh.now.Add(time.Duration(rng.Intn(30)) * time.Millisecond)
			before := sh.snap.Load().epoch
			sh.tick(true)
			checkIdle(t, step, sh)
			sn := sh.snap.Load()
			if sn.epoch <= before {
				t.Fatalf("step %d: a scrape left the epoch at %d", step, sn.epoch)
			}
			targets, served, flows := rebuildRates(sh)
			// A reused map may be nil where the rebuild has an empty one.
			if len(targets)+len(sn.targets) > 0 && !reflect.DeepEqual(sn.targets, targets) {
				t.Fatalf("step %d: targets %v, rebuild %v", step, sn.targets, targets)
			}
			if len(served)+len(sn.served) > 0 && !reflect.DeepEqual(sn.served, served) {
				t.Fatalf("step %d: served %v, rebuild %v", step, sn.served, served)
			}
			if len(flows)+len(sn.flows) > 0 && !reflect.DeepEqual(sn.flows, flows) {
				t.Fatalf("step %d: flows %v, rebuild %v", step, sn.flows, flows)
			}
			if want := sh.totalServed.Rate(sh.now); sn.load != want {
				t.Fatalf("step %d: load %v, want %v", step, sn.load, want)
			}
			if sn.counters.served != sh.n.served+sh.nFastServed.Load() {
				t.Fatalf("step %d: served counter %d, want %d", step, sn.counters.served, sh.n.served+sh.nFastServed.Load())
			}
			if got, want := slices.Sorted(slices.Values(sn.installed)), filtersUp(sh); len(want)+len(got) > 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: installed %v, records have %v", step, got, want)
			}
		}
		checkShardLists(t, sh)
	}
	if st := s.cache.Stats(); st.Evictions == 0 {
		t.Fatal("no admission ever evicted: the sequence never exercised the eviction paths")
	}
	if dataDir != "" && (s.nSpills.Load() == 0 || s.disk.StatsSnapshot().Evictions == 0) {
		t.Fatal("the disk tier never spilled or evicted: the sequence never exercised its paths")
	}
}

// gatedShard returns a one-shard node holding n delegated (rate-limited)
// copies with the given target each.
func gatedShard(tb testing.TB, cfg Config, n int, target float64) (*Server, []core.DocID) {
	cfg.NumShards = 1
	s := handServer(tb, cfg)
	sh := s.shards[0]
	docs := make([]core.DocID, n)
	for i := range docs {
		docs[i] = core.DocID(fmt.Sprintf("doc-%02d", i))
		sh.handle(event{conn: nopConn{}, env: &netproto.Envelope{
			Kind: netproto.TypeDelegate, From: 0, To: 1, Doc: docs[i], Rate: target, Body: []byte("body"),
		}})
		if sh.published(docs[i]) == nil {
			tb.Fatalf("%s not published", docs[i])
		}
	}
	return s, docs
}

// TestIdleTickDoesNothing: once its windows have emptied, a shard reports
// idle, and its tick allocates nothing, touches no entry and publishes
// nothing, however many documents it holds.
func TestIdleTickDoesNothing(t *testing.T) {
	s, docs := gatedShard(t, Config{}, 64, 100)
	sh := s.shards[0]
	for i, doc := range docs {
		request(s, doc, -1, uint64(i+1))
	}
	// Run the windows dry.
	for i := 0; i < 3*int(s.cfg.Window/s.cfg.GossipPeriod); i++ {
		sh.now = sh.now.Add(s.cfg.GossipPeriod)
		sh.tick(false)
	}
	if len(sh.hot) != 0 || len(sh.live) != 0 {
		t.Fatalf("after three idle windows %d entries are hot and %d windows live", len(sh.hot), len(sh.live))
	}
	if sh.idleMark.Load() == busy {
		t.Fatal("after three idle windows the shard still reports a tick owed")
	}
	const sentinel = 12345
	var zero time.Time
	for _, e := range sh.entries {
		e.st.credits.Store(sentinel)
		e.st.creditAt = zero
	}
	epoch := sh.snap.Load().epoch
	allocs := testing.AllocsPerRun(100, func() {
		sh.now = sh.now.Add(s.cfg.GossipPeriod)
		sh.tick(false)
	})
	if allocs != 0 {
		t.Fatalf("an idle tick allocates %v times", allocs)
	}
	for _, e := range sh.entries {
		if e.st.credits.Load() != sentinel || e.st.creditAt != zero {
			t.Fatalf("an idle tick touched entry %s", e.st.doc)
		}
	}
	if got := sh.snap.Load().epoch; got != epoch {
		t.Fatalf("idle ticks published: epoch %d -> %d", epoch, got)
	}
	sh.tick(true)
	if got := sh.snap.Load().epoch; got != epoch+1 {
		t.Fatalf("a scrape of an idle shard moved the epoch %d -> %d, want +1", epoch, got)
	}
}

// TestScrapeBurstAdmitsOnePeriodOfCredits: every stats scrape runs a shard
// tick, and a tick tops the budget up only for the time actually elapsed
// since credits were last earned. Twenty back-to-back scrapes therefore
// admit one period's worth of fast serves in total, not one each; twenty
// scrapes a period apart refill the budget each time, so they admit at
// least nineteen periods' worth.
func TestScrapeBurstAdmitsOnePeriodOfCredits(t *testing.T) {
	const target, scrapes = 1000, 20
	s, docs := gatedShard(t, Config{GossipPeriod: 50 * time.Millisecond}, 1, target)
	sh := s.shards[0]
	onePeriod := int(target*s.cfg.GossipPeriod.Seconds()) + 1
	env := &netproto.Envelope{Kind: netproto.TypeRequest, From: -1, Origin: 1, Doc: docs[0]}
	burst := func(gap time.Duration) (admitted int) {
		for scrape := 0; scrape < scrapes; scrape++ {
			for s.tryFastServe(sh, shardHash(docs[0]), env, nopConn{}) {
				admitted++
			}
			sh.now = sh.now.Add(gap)
			sh.handleCmd(event{cmd: cmdSnap, reply: make(chan *shardSnap, 1)})
		}
		return admitted
	}
	if admitted := burst(0); admitted == 0 || admitted > onePeriod {
		t.Fatalf("%d back-to-back scrapes admitted %d fast serves, want 1..%d (one period of credits)", scrapes, admitted, onePeriod)
	}
	if admitted, least := burst(s.cfg.GossipPeriod), (scrapes-1)*(onePeriod-1); admitted < least {
		t.Fatalf("%d scrapes a period apart admitted %d fast serves, want at least %d (a refill each)", scrapes, admitted, least)
	}
	// Time passing does re-arm it.
	sh.now = sh.now.Add(s.cfg.Window + s.cfg.GossipPeriod)
	sh.tick(false)
	if !s.tryFastServe(sh, shardHash(docs[0]), env, nopConn{}) {
		t.Fatal("the fast path stayed cold after a full window without serves")
	}
}

// TestOneBudgetServesTheTarget: under demand at three times a copy's
// target, the node serves the target and forwards the surplus. The fast
// path and the queued filter spend one budget, kept on the document's
// record and refilled at the target rate, so a request is served exactly
// when it finds a credit — whichever tier holds the copy, and across a
// change of publication or of target:
//   - memory: a published copy, served nearly all on the fast path;
//   - disk: a copy too big for memory, served from disk by the queued path;
//   - republish: a published copy unpublished mid-period (as a spill does),
//     served by the queued path for a while, then republished mid-period by
//     a write frame;
//   - cut: a published copy whose target is halved by a shed at the start
//     of a period;
//   - origin: the root's own document, with no target and so no credit,
//     unpublished and republished as in the republish run: both paths
//     serve every request, and no record is listed hot.
//
// Every period after the first serves target × period ± 1, the total is
// within one period's credit of target × T, every request not served was
// passed upward, and the filter's extract and pass counts add up to the
// requests that took the queued path. Then the copy is invalidated, which
// keeps its filter up, and its eviction note, with no tier holding it,
// lowers the filter.
func TestOneBudgetServesTheTarget(t *testing.T) {
	const target, demand, periods = 200, 3, 200
	unpublishThenWrite := func(t *testing.T, sh *shard, doc core.DocID, p, i int) float64 {
		switch {
		case p == 50 && i == 15:
			sh.unpublish(sh.state(doc))
		case p == 120 && i == 15:
			sh.handle(event{conn: nopConn{}, env: &netproto.Envelope{
				Kind: netproto.TypeRepublish, From: 0, To: 1, Doc: doc, Body: []byte("body-v1"), DocVersion: 1,
			}})
			if sh.published(doc) == nil {
				t.Fatal("the republish did not publish the copy")
			}
		}
		return 0
	}
	runs := []struct {
		name       string
		disk, root bool
		// at runs before request i of period p; it returns the target in
		// force from then on (0 = unchanged).
		at func(t *testing.T, sh *shard, doc core.DocID, p, i int) float64
	}{
		{name: "memory"},
		{name: "disk", disk: true},
		{name: "republish", at: unpublishThenWrite},
		{name: "cut", at: func(_ *testing.T, sh *shard, doc core.DocID, p, i int) float64 {
			if p == 100 && i == 0 {
				sh.handleCmd(event{cmd: cmdShed, doc: doc, rate: target / 2})
				return target / 2
			}
			return 0
		}},
		{name: "origin", root: true, at: unpublishThenWrite},
	}
	for _, run := range runs {
		t.Run(run.name, func(t *testing.T) {
			cfg := Config{NumShards: 1, CacheShards: 1, GossipPeriod: 50 * time.Millisecond, Window: time.Second}
			if run.disk {
				cfg.DataDir, cfg.CacheBudgetBytes = t.TempDir(), 2 // the body is 4 bytes
			}
			doc := core.DocID("doc")
			cur := float64(target)
			var s *Server
			if run.root {
				cfg.ParentID, cfg.Docs = -1, map[core.DocID][]byte{doc: []byte("body")}
				s = benchServer(t, cfg)
				cur = demand * target // the origin serves the whole demand
			} else {
				s = handServer(t, cfg)
			}
			t.Cleanup(s.Stop)
			sh := s.shards[0]
			if !run.root {
				sh.handle(event{conn: nopConn{}, env: &netproto.Envelope{
					Kind: netproto.TypeDelegate, From: 0, To: 1, Doc: doc, Rate: target, Body: []byte("body"),
				}})
			}
			if published := sh.published(doc) != nil; published == run.disk || !s.holdsCopy(doc) {
				t.Fatalf("at the start: published %v, held %v", published, s.holdsCopy(doc))
			}
			st := sh.state(doc)
			period := s.cfg.GossipPeriod
			perPeriod := int(demand * target * period.Seconds())
			served := func() int64 { return sh.n.served + sh.nFastServed.Load() }
			var reqID, queued uint64
			var want float64
			for p := 0; p < periods; p++ {
				before := served()
				for i := 0; i < perPeriod; i++ {
					if run.at != nil {
						if tg := run.at(t, sh, doc, p, i); tg != 0 {
							cur = tg
						}
					}
					reqID++
					credit, published := run.root || st.credits.Load() > 0, sh.published(doc) != nil
					was := served()
					fast := request(s, doc, -1, reqID)
					if !fast {
						queued++
					}
					if got := served() - was; got > 1 || (got == 1) != credit {
						t.Fatalf("period %d: request %d served %d times with a credit %v", p, i, got, credit)
					}
					if credit && published && !fast {
						t.Fatalf("period %d: the fast path declined request %d with %d credits left", p, i, st.credits.Load())
					}
				}
				if run.root && (len(sh.hot) > 0 || st.hot) {
					t.Fatalf("period %d: the origin listed %d records hot", p, len(sh.hot))
				}
				want += cur * period.Seconds()
				if got, tp := served()-before, cur*period.Seconds(); p > 0 && math.Abs(float64(got)-tp) > 1 {
					t.Fatalf("period %d served %d, want %.0f ± 1", p, got, tp)
				}
				sh.now = sh.now.Add(period)
				sh.tick(false)
			}
			sh.tick(true)
			c := sh.snap.Load().counters
			onePeriod := float64(target)*period.Seconds() + 1
			if math.Abs(float64(c.served)-want) > onePeriod {
				t.Fatalf("served %d over %d periods, want %.0f ± %.0f", c.served, periods, want, onePeriod)
			}
			if passed := sh.n.forwarded + sh.n.coalesced; int64(reqID)-c.served != passed {
				t.Fatalf("%d requests, %d served, %d passed upward: the surplus went missing", reqID, c.served, passed)
			}
			if c.extracted+c.passed != int64(queued) || c.extracted != c.served-c.fastServed {
				t.Fatalf("filter extracted %d and passed %d of %d queued requests, %d served there",
					c.extracted, c.passed, queued, c.served-c.fastServed)
			}
			switch frac := float64(c.fastServed) / float64(c.served); {
			case run.disk && (c.fastServed != 0 || c.diskHits != c.served):
				t.Fatalf("disk-resident copy: %d fast serves and %d disk hits of %d served", c.fastServed, c.diskHits, c.served)
			case run.name == "memory" && frac < 0.99:
				t.Fatalf("fast serves %d of %d served (%.3f), want >= 0.99", c.fastServed, c.served, frac)
			case run.root && c.passed+sh.n.forwarded != 0:
				t.Fatalf("the origin passed %d requests and forwarded %d", c.passed, sh.n.forwarded)
			case run.root:
				return
			}
			sh.invalidateLocal(st)
			sh.tick(true)
			if !st.filter || !slices.Contains(sh.snap.Load().installed, doc) {
				t.Fatalf("invalidated copy: filter up %v, installed %v; want it kept", st.filter, sh.snap.Load().installed)
			}
			sh.dropEvicted(doc)
			sh.tick(true)
			if st.filter || slices.Contains(sh.snap.Load().installed, doc) {
				t.Fatalf("copy on no tier: filter up %v, installed %v; want it lowered", st.filter, sh.snap.Load().installed)
			}
		})
	}
}

// TestFastServesReachWindowsAcrossReap: every fast-path serve lands in
// Stats.Served and in its document's rate windows exactly once, whether the
// entry it went through was live, unpublished however long ago, or replaced
// by a republish when its connection goroutine got around to counting.
func TestFastServesReachWindowsAcrossReap(t *testing.T) {
	s, docs := gatedShard(t, Config{Window: time.Hour}, 3, 1e6)
	sh := s.shards[0]
	doc := docs[1]
	bumps := 0
	straggler := func(e *pubEntry) { // a connection goroutine that had already loaded the entry
		e.st.bumpFlow(-1)
		e.st.served.Add(1)
		sh.nFastServed.Add(1)
		bumps++
	}
	tick := func() {
		sh.now = sh.now.Add(s.cfg.GossipPeriod)
		sh.tick(false)
		checkShardLists(t, sh)
	}
	serve := func(n int) {
		for i := 0; i < n; i++ {
			if !request(s, doc, -1, uint64(bumps+1)) {
				t.Fatalf("fast path declined serve %d", bumps+1)
			}
			bumps++
		}
	}
	serve(5)
	tick()
	old := sh.published(doc)
	serve(3)
	sh.unpublish(sh.state(doc)) // drains the three
	if sh.published(doc) != nil {
		t.Fatal("unpublish left the entry in the index")
	}
	straggler(old) // lands after the entry left the index
	tick()
	tick()
	straggler(old) // descheduled past a full gossip period
	tick()
	sh.publish(doc, []byte("v2"), 1)
	straggler(old) // and past the republish
	tick()
	serve(4)
	replaced := sh.published(doc)
	straggler(replaced)
	sh.publish(doc, []byte("v3"), 2) // drains the replaced entry first
	serve(2)
	tick()
	if got := sh.state(doc).servedWin.total; got != float64(bumps) {
		t.Fatalf("served window holds %v serves, want %d", got, bumps)
	}
	if got := sh.state(doc).flowWin.total; got != float64(bumps) {
		t.Fatalf("flow window holds %v arrivals, want %d", got, bumps)
	}
	if got := sh.totalServed.total; got != float64(bumps) {
		t.Fatalf("load window holds %v serves, want %d", got, bumps)
	}
	sh.tick(true)
	if c := sh.snap.Load().counters; c.served != int64(bumps) || c.fastServed != int64(bumps) {
		t.Fatalf("counters served=%d fast=%d, want %d", c.served, c.fastServed, bumps)
	}
}

// countConn records the gossip frames it is sent.
type countConn struct {
	nopConn
	loads []float64
}

func (c *countConn) Send(env *netproto.Envelope) error {
	if env.Kind == netproto.TypeGossip {
		c.loads = append(c.loads, env.Load)
	}
	return nil
}

// TestGossipOnChange: under steady load a neighbor hears the figure at the
// refresh cadence only; a real change is on the wire within one period; a
// neighbor that just attached is told at once.
func TestGossipOnChange(t *testing.T) {
	s := handServer(t, Config{NumShards: 1})
	c := s.ctrl
	parent, kid2, kid3 := &countConn{}, &countConn{}, &countConn{}
	s.parent.Store(&parentLink{id: 0, conn: parent})
	s.children.Store(&childView{conns: map[int]transport.Conn{2: kid2, 3: kid3}})
	neighbors := map[string]*countConn{"parent": parent, "child 2": kid2, "child 3": kid3}
	setLoad := func(l float64) { s.shards[0].snap.Store(&shardSnap{load: l}) }
	period := func() {
		c.now = c.now.Add(s.cfg.GossipPeriod)
		c.doGossip()
	}

	// Steady: the estimate wobbles inside its own noise around 200 req/s.
	const periods = 40
	for i := 0; i < periods; i++ {
		setLoad(200 + 0.5*rateNoise(200, s.cfg.Window)*math.Sin(float64(i)))
		period()
	}
	refreshes := int(time.Duration(periods)*s.cfg.GossipPeriod/s.cfg.Window) + 1
	for name, conn := range neighbors {
		if n := len(conn.loads); n == 0 || n > refreshes {
			t.Fatalf("%s heard %d gossip frames over %d steady periods, want 1..%d", name, n, periods, refreshes)
		}
		conn.loads = nil
	}
	if c.nGossip > int64(3*refreshes) {
		t.Fatalf("gossip_sent = %d over %d steady periods with 3 neighbors", c.nGossip, periods)
	}

	// A 2x step reaches everyone on the next period.
	setLoad(400)
	period()
	for name, conn := range neighbors {
		if len(conn.loads) != 1 || conn.loads[0] != 400 {
			t.Fatalf("%s after a 2x step heard %v, want [400]", name, conn.loads)
		}
		conn.loads = nil
	}

	// A child registering (its first gossip) learns the figure at once.
	kid7 := &countConn{}
	c.handle(event{conn: kid7, env: &netproto.Envelope{Kind: netproto.TypeGossip, From: 7, To: 1}})
	if s.childConn(7) != kid7 {
		t.Fatal("first gossip did not register the child")
	}
	if len(kid7.loads) != 1 || kid7.loads[0] != 400 {
		t.Fatalf("new child heard %v, want [400] at once", kid7.loads)
	}

	// So does a parent installed by failover.
	c.parentLost(s.parentLink())
	grandparent := &countConn{}
	c.installParent(9, grandparent)
	if len(grandparent.loads) != 1 || grandparent.loads[0] != 400 {
		t.Fatalf("new parent heard %v, want [400] at once", grandparent.loads)
	}
	period()
	if len(grandparent.loads) != 1 || len(kid7.loads) != 1 {
		t.Fatalf("an unchanged figure was re-sent the period after attaching: parent %v, child %v", grandparent.loads, kid7.loads)
	}
	s.wg.Wait() // installParent's read loop ends on the first Recv
}
