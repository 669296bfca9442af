package main

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"webwave/internal/core"
	"webwave/internal/gateway"
)

// maxInflight bounds the open loop's request goroutines. An operation due
// while this many are in flight is counted as failed without being sent.
// Every operation ends within the gateway's timeout, so at the workloads'
// rates the bound is reached only if the whole process stalls for seconds.
const maxInflight = 1 << 15

// opRecord is what the open loop keeps of one completed operation.
type opRecord struct {
	at      time.Duration // scheduled offset (an opRMW inherits its PUT's)
	kind    opKind
	ok      bool
	latency time.Duration // opGet, opPut: from scheduled time; opRMW: from its own send
	service time.Duration // reads: the gateway call alone, without the generator's lag
	lag     time.Duration // how late the generator dispatched it
	served  int
	hops    int
	// Reads only.
	rerouted   bool          // the gateway entered the tree elsewhere than asked
	written    bool          // the document had an acknowledged write when sent
	stale      bool          // older than the latest write acknowledged before sending
	staleness  time.Duration // how long ago the served version was superseded
	violation  bool          // older than the session's own floor
	mislabeled bool          // the body is a real version, but not the one the response claims
	why        string        // for a failed operation: what was wrong with it
}

// session is one logical client threading X-WebWave-Session: the floors
// its own writes set, and their header encoding.
type session struct {
	mu     sync.Mutex
	floors map[core.DocID]uint64
	header string
}

func (s *session) snapshot(doc core.DocID) (floor uint64, header string) {
	if s == nil {
		return 0, ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.floors[doc], s.header
}

func (s *session) observe(doc core.DocID, ver uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ver > s.floors[doc] {
		s.floors[doc] = ver
		s.header = gateway.FormatSession(s.floors)
	}
}

// docState is the write history of one document. Writes are serialized
// per document so that the version the cluster will assign, and with it
// the body docBody prescribes, is known before the PUT is sent.
type docState struct {
	mu      sync.Mutex    // held across a PUT, and to read ackedAt
	acked   atomic.Uint64 // latest acknowledged version; written under mu
	ackedAt []time.Time   // ackedAt[v-1] is when version v was acknowledged
}

type openRun struct {
	st       *stack
	in       *inputs
	tr       *tracer
	t0       time.Time
	winStart time.Duration // the window is [winStart, winEnd) in schedule time
	winEnd   time.Duration
	traced   bool

	docs     []docState
	sessions []*session

	inflight atomic.Int64
	peak     atomic.Int64
	wg       sync.WaitGroup
	mu       sync.Mutex
	records  []opRecord
}

func (r *openRun) record(rec opRecord) {
	r.mu.Lock()
	r.records = append(r.records, rec)
	r.mu.Unlock()
}

// tracedAt reports whether schedule offset at falls in a traced slice.
func (r *openRun) tracedAt(at time.Duration) bool {
	return r.traced && at >= r.winStart && at < r.winEnd && ((at-r.winStart)/time.Second)%2 == 1
}

// schedule dispatches one stream's operations at their due times. The
// blocking gateway call runs on its own goroutine, so a slow response
// never delays the next arrival.
func (r *openRun) schedule(lane int, ops []op) {
	defer r.wg.Done()
	for _, o := range ops {
		if o.At >= r.winEnd {
			return
		}
		due := r.t0.Add(o.At)
		if wait := time.Until(due); wait > 50*time.Microsecond {
			time.Sleep(wait)
		}
		lag := max(time.Since(due), 0)
		n := r.inflight.Add(1)
		if n > maxInflight {
			r.inflight.Add(-1)
			r.record(opRecord{at: o.At, kind: o.Kind, lag: lag, why: "not sent: too many requests in flight"})
			continue
		}
		for p := r.peak.Load(); n > p && !r.peak.CompareAndSwap(p, n); p = r.peak.Load() {
		}
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			defer r.inflight.Add(-1)
			var sess *session
			if r.sessions != nil {
				sess = r.sessions[o.Session]
			}
			if o.Kind == opPut {
				r.put(lane, o, sess, due, lag)
			} else {
				r.get(lane, o, opGet, int(o.Entry), sess, due, lag)
			}
		}()
	}
}

// get issues one read and verifies it: status, body against the version
// the response claims, and that version against the session's floor.
func (r *openRun) get(lane int, o op, kind opKind, entry int, sess *session, due time.Time, lag time.Duration) {
	doc := r.in.DocIDs[o.Doc]
	floor, header := sess.snapshot(doc)
	ds := &r.docs[o.Doc]
	ackedAtSend := ds.acked.Load()
	req := newRequest(http.MethodGet, doc, entry, header, nil)
	start := time.Now()
	res := serve(r.st.gw, req)
	end := time.Now()

	rec := opRecord{at: o.At, kind: kind, lag: lag, latency: end.Sub(due), service: end.Sub(start), written: ackedAtSend > 0}
	if res.status == http.StatusOK {
		ver, err := strconv.ParseUint(res.header.Get(gateway.DocVersionHeader), 10, 64)
		rec.served, _ = strconv.Atoi(res.header.Get("X-WebWave-Served-By"))
		rec.hops, _ = strconv.Atoi(res.header.Get("X-WebWave-Hops"))
		rec.rerouted = res.header.Get("X-WebWave-Origin") != strconv.Itoa(entry)
		// What a response must satisfy is the system's own contract: a
		// status, a label at or above the session's floor, and a body that
		// is a real version of the document. Which version the body really
		// is gets counted separately (see README, "Defects the benchmark
		// surfaces"): a stale body under a newer label is a bookkeeping
		// defect the system cannot see, and counting it as a failed
		// operation would fail every workload with writes at random.
		actual, found := r.in.bodyVersion(int(o.Doc), ver, res.body)
		rec.mislabeled = found && actual != ver
		rec.violation = found && actual < floor
		rec.ok = err == nil && found && ver >= floor && rec.served >= 0 && rec.served < r.st.sp.Nodes
		if !rec.ok {
			rec.why = fmt.Sprintf("GET %s at node %d: labelled version %d (parse error %v), body is version %d (recognised: %v), session floor %d, served by node %d after %d hops",
				doc, entry, ver, err, actual, found, floor, rec.served, rec.hops)
		}
		if found && actual < ackedAtSend {
			rec.stale = true
			ds.mu.Lock()
			rec.staleness = end.Sub(ds.ackedAt[actual]) // when version actual+1 superseded it
			ds.mu.Unlock()
		}
	}
	if res.status != http.StatusOK {
		rec.why = fmt.Sprintf("GET %s at node %d: status %d after %v: %s", doc, entry, res.status, end.Sub(start), bytes.TrimSpace(res.body))
	}
	r.record(rec)
	if o.Sampled && r.tracedAt(o.At) {
		// "request" runs from the scheduled time, its child from the actual
		// call: the gap between the two starts is generator lag.
		r.tr.add(span{Name: "request", Parent: "window", Req: uint64(o.At), Lane: lane,
			Start: due, End: end, Doc: string(doc), Served: rec.served, Hops: rec.hops})
		r.tr.add(span{Name: "gateway.ServeHTTP", Parent: "request", Req: uint64(o.At), Lane: lane,
			Start: start, End: end, Doc: string(doc), Served: rec.served, Hops: rec.hops})
	}
}

// put republishes a document through the gateway, then reads it back in
// the same session from a different entry node.
func (r *openRun) put(lane int, o op, sess *session, due time.Time, lag time.Duration) {
	doc := r.in.DocIDs[o.Doc]
	_, header := sess.snapshot(doc)
	ds := &r.docs[o.Doc]

	ds.mu.Lock()
	want := ds.acked.Load() + 1
	req := newRequest(http.MethodPut, doc, int(o.Entry), header, docBody(doc, want, r.st.sp.DocBytes))
	res := serve(r.st.gw, req)
	end := time.Now()
	got, err := strconv.ParseUint(res.header.Get(gateway.DocVersionHeader), 10, 64)
	ok := res.status == http.StatusNoContent && err == nil && got == want &&
		gateway.ParseSession(res.header.Get(gateway.SessionHeader))[doc] == want
	if err == nil && got >= want {
		// Follow the cluster's version even when it is not the expected
		// one, so a single surprise does not fail every later write.
		for v := want; v <= got; v++ {
			ds.ackedAt = append(ds.ackedAt, end)
		}
		ds.acked.Store(got)
	}
	ds.mu.Unlock()
	rec := opRecord{at: o.At, kind: opPut, ok: ok, lag: lag, latency: end.Sub(due)}
	if !ok {
		rec.why = fmt.Sprintf("PUT %s: status %d, version %d (parse error %v), expected %d", doc, res.status, got, err, want)
	}
	r.record(rec)
	if !ok {
		return
	}
	sess.observe(doc, want)
	other := r.in.Entries[(int(o.Entry)-1+len(r.in.Entries)/2)%len(r.in.Entries)] // Entries[i] is node i+1
	r.get(lane, o, opRMW, other, sess, time.Now(), 0)
}

// runOpen drives the open loop: the schedule runs from t0 through warm-up
// and the measured window without a break; only operations due inside the
// window are measured.
func runOpen(st *stack, in *inputs, seconds int, tr *tracer, a *stageA) *observations {
	r := &openRun{
		st: st, in: in, tr: tr, traced: a.traced,
		winStart: st.sp.Warmup,
		winEnd:   st.sp.Warmup + time.Duration(seconds)*time.Second,
		docs:     make([]docState, len(in.DocIDs)),
	}
	for i := 0; i < st.sp.Sessions; i++ {
		r.sessions = append(r.sessions, &session{floors: make(map[core.DocID]uint64)})
	}
	r.t0 = time.Now()
	for lane, ops := range in.Streams {
		r.wg.Add(1)
		go r.schedule(lane, ops)
	}
	start := r.t0.Add(r.winStart)
	time.Sleep(time.Until(start.Add(-20 * time.Millisecond)))
	a.begin()
	time.Sleep(time.Until(start))
	tr.add(span{Name: "window", Start: start, End: start.Add(time.Duration(seconds) * time.Second)})
	costs := runWindow(start, seconds, a, func(int) {})
	obs := newObservations(start, costs, st.sp.Nodes)
	r.wg.Wait() // every operation ends within the gateway's timeout
	a.end()

	obs.MaxInflight = r.peak.Load()
	for _, rec := range r.records {
		if rec.at < r.winStart || rec.at >= r.winEnd {
			continue
		}
		obs.Attempted++
		sl := &obs.Slices[(rec.at-r.winStart)/time.Second]
		if !rec.ok {
			obs.fail(rec.why)
			continue
		}
		switch rec.kind {
		case opPut:
			obs.Writes++
			obs.Verified++
			sl.Count++
			obs.LagMs = append(obs.LagMs, ms(rec.lag))
			continue
		case opRMW:
			obs.RMWMs = append(obs.RMWMs, ms(rec.latency))
		case opGet:
			obs.Verified++
			sl.Count++
			sl.LatMs = append(sl.LatMs, ms(rec.latency))
			obs.LagMs = append(obs.LagMs, ms(rec.lag))
			obs.LatMs = append(obs.LatMs, ms(rec.latency))
			obs.ServiceMs = append(obs.ServiceMs, ms(rec.service))
			obs.Hops = append(obs.Hops, uint8(min(rec.hops, 255)))
			sl.ServiceMs = append(sl.ServiceMs, ms(rec.service))
		}
		obs.Reads++
		obs.Served[rec.served]++
		if rec.rerouted {
			obs.Rerouted++
		}
		if rec.mislabeled {
			obs.Mislabeled++
		}
		if rec.violation {
			obs.RMWViolations++
		}
		if rec.stale {
			obs.StaleReads++
		}
		if rec.written {
			obs.StalenessMs = append(obs.StalenessMs, ms(rec.staleness))
		}
	}
	return obs
}
