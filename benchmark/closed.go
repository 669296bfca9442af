package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"webwave/internal/netproto"
	"webwave/internal/transport"
)

const (
	phaseWarm int32 = iota
	phaseMeasure
	phaseDrain
)

// slotBits is how many low bits of a closed-loop request id name the
// client's outstanding-request slot.
const slotBits = 8

// slot is one in-flight closed-loop request.
type slot struct {
	id  uint64 // 0 = free
	doc uint16
	at  time.Time
}

// closedClient keeps spec.Outstanding requests in flight on one raw
// connection: every response is verified and immediately replaced by the
// next request of the client's pre-generated sequence. All its state is
// owned by its goroutine until that exits.
type closedClient struct {
	idx    int
	origin int
	conn   transport.Conn
	ring   []uint16
	next   int
	seq    uint64
	slots  []slot

	outstanding int
	lat         []uint32 // verified responses in the window: ns from send, 4 bytes a sample
	hops        []uint8
	served      []int64
	marks       []int // marks[i] = len(lat) when the client first saw slice i
	failed      int64
	why         string // what was wrong with the latest failed response
}

type closedRun struct {
	in     *inputs
	tr     *tracer
	traced bool
	phase  atomic.Int32
	slice  atomic.Int32 // the window's current one-second slice
	wg     sync.WaitGroup
}

func (cl *closedClient) send(r *closedRun, i int) error {
	s := &cl.slots[i]
	cl.seq++
	s.id = uint64(cl.idx+1)<<40 | cl.seq<<slotBits | uint64(i)
	s.doc = cl.ring[cl.next]
	cl.next = (cl.next + 1) % len(cl.ring)
	s.at = time.Now()
	cl.outstanding++
	return cl.conn.Send(&netproto.Envelope{
		Kind: netproto.TypeRequest, From: -1, To: cl.origin,
		Origin: cl.origin, ReqID: s.id, Doc: r.in.DocIDs[s.doc],
	})
}

func (cl *closedClient) run(r *closedRun) {
	defer r.wg.Done()
	for i := range cl.slots {
		if cl.send(r, i) != nil {
			return
		}
	}
	for {
		env, err := cl.conn.Recv()
		if err != nil {
			return // closed by the controller; what is outstanding failed
		}
		now := time.Now()
		i := int(env.ReqID & (1<<slotBits - 1))
		if env.Kind != netproto.TypeResponse || i >= len(cl.slots) || cl.slots[i].id != env.ReqID {
			netproto.PutEnvelope(env)
			continue
		}
		s := &cl.slots[i]
		phase := r.phase.Load()
		if phase == phaseMeasure {
			ok := !env.NotFound && env.Doc == r.in.DocIDs[s.doc] && env.DocVersion == 0 &&
				env.ServedBy >= 0 && env.ServedBy < len(cl.served) &&
				bytes.Equal(env.Body, r.in.Bodies[s.doc])
			if !ok {
				cl.failed++
				cl.why = fmt.Sprintf("%s at node %d: not found %v, answered as %s version %d by node %d, body matches: %v",
					r.in.DocIDs[s.doc], cl.origin, env.NotFound, env.Doc, env.DocVersion, env.ServedBy, bytes.Equal(env.Body, r.in.Bodies[s.doc]))
			} else {
				si := int(r.slice.Load())
				for len(cl.marks) <= si {
					cl.marks = append(cl.marks, len(cl.lat))
				}
				cl.lat = append(cl.lat, uint32(min(now.Sub(s.at), math.MaxUint32)))
				cl.hops = append(cl.hops, uint8(min(env.Hops, 255)))
				cl.served[env.ServedBy]++
				if r.traced && si%2 == 1 && len(cl.lat)%spanSample == 0 {
					r.tr.add(span{
						Name: "request", Parent: "window", Req: env.ReqID, Lane: cl.idx,
						Start: s.at, End: now, Doc: string(env.Doc), Served: env.ServedBy, Hops: env.Hops,
					})
				}
			}
		}
		netproto.PutEnvelope(env)
		s.id = 0
		cl.outstanding--
		if phase == phaseDrain {
			if cl.outstanding == 0 {
				return
			}
			continue
		}
		if cl.send(r, i) != nil {
			return
		}
	}
}

// runClosed drives the closed loop: warm up, measure for `seconds`, then
// stop sending and wait for what is in flight.
func runClosed(st *stack, in *inputs, seconds int, tr *tracer, a *stageA) *observations {
	r := &closedRun{in: in, tr: tr, traced: a.traced}
	clients := make([]*closedClient, len(st.conns))
	for i, conn := range st.conns {
		clients[i] = &closedClient{
			idx: i, origin: in.Entries[i], conn: conn, ring: in.Rings[i],
			slots:  make([]slot, st.sp.Outstanding),
			served: make([]int64, st.sp.Nodes),
		}
		r.wg.Add(1)
		go clients[i].run(r)
	}
	time.Sleep(st.sp.Warmup)
	a.begin()
	start := time.Now()
	r.phase.Store(phaseMeasure)
	tr.add(span{Name: "window", Start: start, End: start.Add(time.Duration(seconds) * time.Second)})
	costs := runWindow(start, seconds, a, func(i int) { r.slice.Store(int32(i)) })
	r.phase.Store(phaseDrain)
	obs := newObservations(start, costs, st.sp.Nodes)

	// Every request still in flight gets the gateway's timeout to come
	// back; closing the connections then releases clients still waiting.
	done := make(chan struct{})
	go func() { r.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(gatewayTimeout):
	}
	for _, conn := range st.conns {
		conn.Close()
	}
	<-done
	a.end()

	for _, cl := range clients {
		obs.Failed += cl.failed + int64(cl.outstanding)
		if cl.failed > 0 {
			obs.Failures = append(obs.Failures, cl.why)
		}
		if cl.outstanding > 0 {
			obs.Failures = append(obs.Failures, fmt.Sprintf("%d requests entering at node %d were never answered", cl.outstanding, cl.origin))
		}
		obs.Verified += int64(len(cl.lat))
		for i, lo := range cl.marks {
			hi := len(cl.lat)
			if i+1 < len(cl.marks) {
				hi = cl.marks[i+1]
			}
			sl := &obs.Slices[i]
			sl.Count += int64(hi - lo)
			for _, d := range cl.lat[lo:hi] {
				sl.LatMs = append(sl.LatMs, ms(time.Duration(d)))
			}
			obs.LatMs = append(obs.LatMs, sl.LatMs[len(sl.LatMs)-(hi-lo):]...)
		}
		obs.Hops = append(obs.Hops, cl.hops...)
		for v, n := range cl.served {
			obs.Served[v] += float64(n)
		}
	}
	obs.ServiceMs = obs.LatMs // a closed-loop client sends the moment it decides to
	obs.Reads = obs.Verified
	obs.Attempted = obs.Verified + obs.Failed
	obs.MaxInflight = int64(len(clients) * st.sp.Outstanding)
	return obs
}

// sliceCost is what one slice of the window cost the process and the host.
type sliceCost struct {
	Dur   time.Duration // how long the slice really lasted
	CPU   time.Duration // process CPU time
	Steal float64       // share of the machine's CPU time the hypervisor withheld
}

// runWindow sleeps through the measured window in one-second slices,
// announcing each to onSlice, and returns the process CPU time spent and
// the host's stolen share in each. A traced run traces the odd slices only,
// so one run holds its own untraced reference; each traced slice scrapes
// the queue gauges at its midpoint.
func runWindow(start time.Time, seconds int, a *stageA, onSlice func(i int)) []sliceCost {
	costs := make([]sliceCost, seconds)
	cpuBefore, _ := rusage()
	stealBefore := hostSteal()
	at := start
	for i := range costs {
		onSlice(i)
		if a.traced && i%2 == 1 {
			time.Sleep(time.Until(start.Add(time.Duration(i)*time.Second + 500*time.Millisecond)))
			a.gauge()
		}
		time.Sleep(time.Until(start.Add(time.Duration(i+1) * time.Second)))
		now := time.Now()
		cpu, _ := rusage()
		steal := hostSteal()
		costs[i] = sliceCost{
			Dur:   now.Sub(at),
			CPU:   cpu - cpuBefore,
			Steal: (steal - stealBefore).Seconds() / (now.Sub(at).Seconds() * float64(runtime.NumCPU())),
		}
		cpuBefore, stealBefore, at = cpu, steal, now
	}
	return costs
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
