package main

import (
	"time"

	"webwave/internal/cluster"
	"webwave/internal/netproto"
)

// stageA holds the cluster.Stats scrapes around the measured window. An
// untraced run scrapes once, after the window, for the correctness checks;
// a traced run also scrapes at the window's start, to difference the
// counters, and samples the queue gauges once per traced slice.
type stageA struct {
	c      *cluster.Cluster
	traced bool

	first, last []*netproto.Stats
	scrapeDur   time.Duration
	err         error

	gauges     int
	queueSum   int
	queueMax   int
	pendingMax int
	journalMax int64
}

func (a *stageA) scrape() []*netproto.Stats {
	sts, err := a.c.Stats()
	if err != nil && a.err == nil {
		a.err = err
	}
	return sts
}

func (a *stageA) begin() {
	if a.traced {
		a.first = a.scrape()
	}
}

func (a *stageA) gauge() {
	for _, st := range a.scrape() {
		if st == nil {
			continue
		}
		a.gauges++
		a.queueSum += st.QueueLen
		a.queueMax = max(a.queueMax, st.QueueLen)
		a.pendingMax = max(a.pendingMax, st.PendingLen)
		a.journalMax = max(a.journalMax, st.JournalLag)
	}
}

func (a *stageA) end() {
	start := time.Now()
	a.last = a.scrape()
	a.scrapeDur = time.Since(start)
}

// counters is the cluster-wide sum of the per-node counters the per-layer
// metrics difference.
type counters struct {
	served, fastServed, forwarded, coalesced, diskHits float64
	tunnels, gossip, delegations, sheds                float64
	leaseRefreshes, sessionRefreshes, staleDrops       float64
	evictedDocs, evictedBytes, diskSpills              float64
	inspected, extracted                               float64
	promotions, demotions, diskBytes                   float64
	overBudget                                         float64 // worst non-root MaxCacheBytes / budget
	perNodeServed                                      []float64
	replicaRoots                                       map[int]bool
}

func sumCounters(sts []*netproto.Stats, root int) counters {
	c := counters{perNodeServed: make([]float64, len(sts)), replicaRoots: map[int]bool{}}
	for v, st := range sts {
		if st == nil {
			continue
		}
		c.perNodeServed[v] = float64(st.Served)
		c.served += float64(st.Served)
		c.fastServed += float64(st.FastServed)
		c.forwarded += float64(st.Forwarded)
		c.coalesced += float64(st.Coalesced)
		c.diskHits += float64(st.DiskHits)
		c.tunnels += float64(st.Tunnels)
		c.gossip += float64(st.GossipSent)
		c.delegations += float64(st.DelegationsOut)
		c.sheds += float64(st.ShedsOut)
		c.leaseRefreshes += float64(st.LeaseRefreshes)
		c.sessionRefreshes += float64(st.SessionRefreshes)
		c.staleDrops += float64(st.StaleDrops)
		c.evictedDocs += float64(st.EvictedDocs)
		c.evictedBytes += float64(st.EvictedBytes)
		c.diskSpills += float64(st.DiskSpills)
		c.inspected += float64(st.FilterStats.Inspected)
		c.extracted += float64(st.FilterStats.Extracted)
		c.promotions += float64(st.Promotions)
		c.demotions += float64(st.Demotions)
		c.diskBytes += float64(st.DiskBytes)
		if v != root && st.CacheBudgetBytes > 0 {
			c.overBudget = max(c.overBudget, float64(st.MaxCacheBytes)/float64(st.CacheBudgetBytes))
		}
		for _, roots := range st.PromotedDocs {
			for _, r := range roots {
				c.replicaRoots[r] = true
			}
		}
	}
	return c
}

// serverMetrics derives the stage-A server-side metrics of a traced run:
// counters differenced over the window, gauges sampled during it.
func (a *stageA) serverMetrics(m *metricSet, obs *observations, root int) {
	b, e := sumCounters(a.first, root), sumCounters(a.last, root)
	reqs := float64(obs.Verified)
	secs := obs.Window.Seconds()
	writes := float64(obs.Writes)
	served := e.served - b.served

	m.set("server.fast_served_frac", ratio(e.fastServed-b.fastServed, served), int64(served))
	m.set("server.forwarded_per_req", ratio(e.forwarded-b.forwarded, reqs), 0)
	m.set("server.coalesced_frac", ratio(e.coalesced-b.coalesced, reqs), 0)
	m.set("server.disk_hit_frac", ratio(e.diskHits-b.diskHits, served), int64(served))
	m.set("server.queue_len_mean", ratio(float64(a.queueSum), float64(a.gauges)), int64(a.gauges))
	m.set("server.queue_len_max", float64(a.queueMax), int64(a.gauges))
	m.set("server.pending_len_max", float64(a.pendingMax), int64(a.gauges))
	m.set("server.tunnels_per_kreq", ratio(e.tunnels-b.tunnels, reqs/1000), 0)
	m.set("server.gossip_per_req", ratio(e.gossip-b.gossip, reqs), 0)
	m.set("server.delegations_per_s", ratio(e.delegations-b.delegations, secs), 0)
	m.set("server.sheds_per_s", ratio(e.sheds-b.sheds, secs), 0)
	m.set("server.lease_refreshes_per_write", ratio(e.leaseRefreshes-b.leaseRefreshes, writes), obs.Writes)
	m.set("server.session_refreshes_per_write", ratio(e.sessionRefreshes-b.sessionRefreshes, writes), obs.Writes)
	m.set("server.stale_drops", e.staleDrops-b.staleDrops, 0)
	// Transitions since the cluster started, so a promotion made during
	// warm-up still shows on the workload that expects one.
	m.set("server.promotions", e.promotions, 0)
	m.set("server.demotions", e.demotions, 0)
	m.set("cachestore.evicted_docs_per_kreq", ratio(e.evictedDocs-b.evictedDocs, reqs/1000), 0)
	m.set("cachestore.evicted_bytes_per_req", ratio(e.evictedBytes-b.evictedBytes, reqs), 0)
	m.set("cachestore.max_bytes_over_budget", e.overBudget, 0)
	m.set("diskstore.spills_per_kreq", ratio(e.diskSpills-b.diskSpills, reqs/1000), 0)
	m.set("diskstore.bytes_on_disk_mb", e.diskBytes/(1<<20), 0)
	m.set("diskstore.journal_lag_max", float64(a.journalMax), int64(a.gauges))
	m.set("router.extracted_frac", ratio(e.extracted-b.extracted, e.inspected-b.inspected), int64(e.inspected-b.inspected))

	var replicaLoad []float64
	for r := range e.replicaRoots {
		replicaLoad = append(replicaLoad, e.perNodeServed[r]-b.perNodeServed[r])
	}
	m.set("forest.replica_load_max_over_mean", maxOverMean(replicaLoad), int64(len(replicaLoad)))
	m.set("cluster.stats_scrape_ms", ms(a.scrapeDur), 1)
}
