package workload

// Shared closed-loop TCP measurement harness behind the core-scaling and
// bigger-than-ram scenarios: build a fresh cluster, saturate it with
// closed-loop clients (each keeps exactly one request in flight), warm the
// tree so delegation spreads the hot documents, measure only the steady
// window. Having one driver keeps the two benchmarks comparable — a change
// to the request-id scheme, the warmup cap or the shutdown dance cannot
// make them quietly measure different harnesses.

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"webwave/internal/cluster"
	"webwave/internal/core"
	"webwave/internal/netproto"
	"webwave/internal/stats"
	"webwave/internal/trace"
	"webwave/internal/transport"
	"webwave/internal/tree"
)

// ClosedLoopSpec parameterizes one closed-loop measurement.
type ClosedLoopSpec struct {
	Seed      int64
	Nodes     int     // tree size
	Clients   int     // closed-loop injector connections
	NumDocs   int     // catalog size
	BodyBytes int     // document body size
	ZipfSkew  float64 // popularity skew
	Duration  float64 // measured seconds (warmup runs before, uncounted)

	NumShards int // per-server shard loops (0 = GOMAXPROCS)

	// CacheBudgetBytes bounds every node's in-memory body bytes (0 =
	// unlimited, the pre-existing behavior); DataDir non-empty adds the
	// disk tier (per-node subdirectories) under DiskBudgetBytes — the
	// two-tier configuration the bigger-than-ram scenario measures.
	CacheBudgetBytes int64
	DiskBudgetBytes  int64
	DataDir          string
}

// ClosedLoopResult is one measurement, covering only the measured window —
// warmup traffic (everything served at the root before delegation spreads)
// is excluded from the counter-derived figures too, by differencing a
// stats scrape taken when measurement starts.
type ClosedLoopResult struct {
	Responses     int64
	ThroughputRPS float64
	Jain          float64 // fairness of per-node serve counts
	MeanHops      float64
	HitRate       float64 // share of serves below the home server
	ServingNodes  int
	Forwarded     int64
	Coalesced     int64
	FastServed    int64
	DiskHits      int64 // serves answered from the disk tier
}

// counterScrape is the per-node counter baseline captured at measure start.
type counterScrape struct {
	served                           []int64
	forwarded, coalesced, fastServed int64
	diskHits                         int64
	ok                               bool
}

func scrapeCounters(c *cluster.Cluster, n int) counterScrape {
	cs := counterScrape{served: make([]int64, n)}
	sts, err := c.Stats()
	if err != nil {
		return cs
	}
	for _, st := range sts {
		if st == nil {
			continue // killed node: no scrape entry
		}
		if st.Node >= 0 && st.Node < n {
			cs.served[st.Node] = st.Served
		}
		cs.forwarded += st.Forwarded
		cs.coalesced += st.Coalesced
		cs.fastServed += st.FastServed
		cs.diskHits += st.DiskHits
	}
	cs.ok = true
	return cs
}

// RunClosedLoop executes one measurement.
func RunClosedLoop(sp ClosedLoopSpec) (ClosedLoopResult, error) {
	rng := rand.New(rand.NewSource(sp.Seed))
	t, err := tree.RandomBounded(sp.Nodes, 4, rng)
	if err != nil {
		return ClosedLoopResult{}, err
	}
	body := make([]byte, sp.BodyBytes)
	for i := range body {
		body[i] = byte('a' + i%26)
	}
	docs := make(map[core.DocID][]byte, sp.NumDocs)
	docIDs := make([]core.DocID, sp.NumDocs)
	for j := 0; j < sp.NumDocs; j++ {
		docIDs[j] = DocID(j)
		docs[docIDs[j]] = body
	}
	c, err := cluster.New(t, docs, cluster.Config{
		Network:          transport.TCPNetwork{},
		AddrFor:          func(int) string { return "127.0.0.1:0" },
		GossipPeriod:     25 * time.Millisecond,
		DiffusionPeriod:  50 * time.Millisecond,
		Window:           500 * time.Millisecond,
		Tunneling:        true,
		NumShards:        sp.NumShards,
		CacheBudgetBytes: sp.CacheBudgetBytes,
		DiskBudgetBytes:  sp.DiskBudgetBytes,
		DataDir:          sp.DataDir,
	})
	if err != nil {
		return ClosedLoopResult{}, err
	}
	defer c.Stop()

	// Zipf CDF over the documents, on the same weights the other scenarios
	// use.
	cdf := trace.ZipfWeights(sp.NumDocs, sp.ZipfSkew)
	for j := 1; j < len(cdf); j++ {
		cdf[j] += cdf[j-1]
	}

	var (
		measuring atomic.Bool
		stop      atomic.Bool
		responses atomic.Int64
		hops      atomic.Int64
		servedBy  = make([]atomic.Int64, t.Len())
		wg        sync.WaitGroup
	)
	conns := make([]transport.Conn, 0, sp.Clients)
	closeAll := func() {
		stop.Store(true)
		for _, cn := range conns {
			cn.Close() // releases workers blocked in Recv
		}
		wg.Wait()
	}
	for w := 0; w < sp.Clients; w++ {
		origin := 0
		if t.Len() > 1 {
			origin = 1 + w%(t.Len()-1) // clients enter at non-root nodes
		}
		wrng := rand.New(rand.NewSource(sp.Seed + int64(w)*7919))
		conn, err := c.Network().Dial(c.Addr(origin))
		if err != nil {
			closeAll()
			return ClosedLoopResult{}, fmt.Errorf("dial origin %d: %w", origin, err)
		}
		conns = append(conns, conn)
		wg.Add(1)
		go func(conn transport.Conn, origin, w int, wrng *rand.Rand) {
			defer wg.Done()
			defer conn.Close()
			// Disjoint request-id spaces: workers sharing an origin node
			// must not issue the same (origin, request id) pair, by which a
			// node names a read it holds for hop attribution.
			reqID := uint64(w+1) << 32
			for !stop.Load() {
				reqID++
				u := wrng.Float64()
				doc := 0
				for doc < len(cdf)-1 && cdf[doc] < u {
					doc++
				}
				err := conn.Send(&netproto.Envelope{
					Kind: netproto.TypeRequest, From: -1, To: origin,
					Origin: origin, ReqID: reqID, Doc: docIDs[doc],
				})
				if err != nil {
					return
				}
				for {
					env, err := conn.Recv()
					if err != nil {
						return
					}
					isResp := env.Kind == netproto.TypeResponse && env.ReqID == reqID
					if isResp && measuring.Load() {
						responses.Add(1)
						hops.Add(int64(env.Hops))
						if env.ServedBy >= 0 && env.ServedBy < len(servedBy) {
							servedBy[env.ServedBy].Add(1)
						}
					}
					netproto.PutEnvelope(env)
					if isResp {
						break
					}
				}
			}
		}(conn, origin, w, wrng)
	}

	warmup := time.Duration(sp.Duration*float64(time.Second)) / 2
	if warmup > 2*time.Second {
		warmup = 2 * time.Second
	}
	time.Sleep(warmup)
	before := scrapeCounters(c, t.Len())
	measuring.Store(true)
	time.Sleep(time.Duration(sp.Duration * float64(time.Second)))
	measuring.Store(false)
	after := scrapeCounters(c, t.Len())
	// Closing the client conns unblocks any worker stuck in Recv on a
	// response that was lost or expired server-side.
	closeAll()

	res := ClosedLoopResult{Responses: responses.Load()}
	res.ThroughputRPS = round6(float64(res.Responses) / sp.Duration)
	if res.Responses > 0 {
		res.MeanHops = round6(float64(hops.Load()) / float64(res.Responses))
	}
	loads := make([]float64, t.Len())
	for v := range servedBy {
		loads[v] = float64(servedBy[v].Load())
		if loads[v] > 0 {
			res.ServingNodes++
		}
	}
	res.Jain = round6(stats.JainIndex(loads))
	if before.ok && after.ok {
		res.Forwarded = after.forwarded - before.forwarded
		res.Coalesced = after.coalesced - before.coalesced
		res.FastServed = after.fastServed - before.fastServed
		res.DiskHits = after.diskHits - before.diskHits
		var total, below int64
		for v := range after.served {
			d := after.served[v] - before.served[v]
			total += d
			if v != t.Root() {
				below += d
			}
		}
		if total > 0 {
			res.HitRate = round6(float64(below) / float64(total))
		}
	}
	return res, nil
}
