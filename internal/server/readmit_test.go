package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"webwave/internal/core"
	"webwave/internal/netproto"
)

// TestDiskHitsDoNotThrashMemory: with a disk tier, memory is a duty-gated
// cache of disk. One shard holds sixteen documents, four fit in memory, and
// demand is skewed onto four of them. Re-admitting every disk hit evicted a
// copy per hit; with the gate, once the rate windows have seen the demand,
// a disk hit of a cold document evicts nothing, and the four hot documents
// are the ones resident and published. Then demand leaves two of them for
// two cold ones, and those take memory over within a few diffusion periods
// while the two that stayed hot stay resident. Every copy carries the same
// target, so only the served half of a rank tells hot from cold: a rank of
// target alone would tie every offer and refuse them all.
//
// It runs under three demand patterns, each named for the retired
// replacement policy whose signal it turns against the hot set: lru reads
// the cold documents last in every round, so they are always the latest
// read; gdsf opens with a Window in which the cold documents are the hot
// ones, so they keep the most reads; heat shuffles every round. Memory
// follows duty alone, so all three end the same.
func TestDiskHitsDoNotThrashMemory(t *testing.T) {
	for _, pattern := range []string{"lru", "heat", "gdsf"} {
		t.Run(pattern, func(t *testing.T) { diskHitsDoNotThrash(t, pattern) })
	}
}

func diskHitsDoNotThrash(t *testing.T, pattern string) {
	const n, k, size = 16, 4, 100
	s := handServer(t, Config{
		NumShards: 1, CacheShards: 1,
		CacheBudgetBytes: k * size,
		DataDir:          t.TempDir(),
		GossipPeriod:     10 * time.Millisecond, DiffusionPeriod: 20 * time.Millisecond,
		Window: 80 * time.Millisecond,
	})
	t.Cleanup(s.Stop)
	sh := s.shards[0]
	bodies := make(map[core.DocID][]byte, n)
	docs := make([]core.DocID, n)
	for i := range docs {
		docs[i] = core.DocID(fmt.Sprintf("doc-%02d", i))
		bodies[docs[i]] = bytes.Repeat([]byte{byte('a' + i)}, size)
		// Every copy carries the same duty, so heat differs by demand alone.
		sh.handle(event{conn: nopConn{}, env: &netproto.Envelope{
			Kind: netproto.TypeDelegate, From: 0, To: 1, Doc: docs[i], Rate: 1e6, Body: bodies[docs[i]],
		}})
	}

	conn := &sinkConn{}
	rng := rand.New(rand.NewSource(1))
	var asked uint64
	// round is one gossip period of demand — eight requests for each hot
	// document and one for every other, in random order (under lru the
	// cold documents' requests come last) — then the tick.
	round := func(hot []core.DocID) {
		var reqs, last []core.DocID
		for _, doc := range docs {
			if pattern == "lru" && !slices.Contains(hot, doc) {
				last = append(last, doc)
			} else {
				reqs = append(reqs, doc)
			}
		}
		for _, doc := range hot {
			for i := 1; i < 8; i++ {
				reqs = append(reqs, doc)
			}
		}
		rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
		rng.Shuffle(len(last), func(i, j int) { last[i], last[j] = last[j], last[i] })
		for _, doc := range append(reqs, last...) {
			asked++
			env := &netproto.Envelope{Kind: netproto.TypeRequest, From: -1, Origin: 1, ReqID: asked, Doc: doc}
			if !s.tryFastServe(sh, shardHash(doc), env, conn) {
				sh.handle(event{env: env, conn: conn})
			}
		}
		sh.now = sh.now.Add(s.cfg.GossipPeriod)
		sh.tick(false)
	}
	resident := func(hot []core.DocID) bool {
		for _, doc := range hot {
			if e := sh.published(doc); !s.cache.Contains(doc) || e == nil || e.dead.Load() {
				return false
			}
		}
		return true
	}

	hot := docs[:k]
	rounds := int(2 * s.cfg.Window / s.cfg.GossipPeriod)
	if pattern == "gdsf" {
		for i := 0; i < rounds/2; i++ {
			round(docs[k:])
		}
	}
	for i := 0; i < rounds; i++ {
		round(hot)
	}
	evicted, diskHits := s.cache.Stats().Evictions, sh.n.diskHits
	for i := 0; i < rounds; i++ {
		round(hot)
	}
	evicted, diskHits = s.cache.Stats().Evictions-evicted, sh.n.diskHits-diskHits
	if diskHits == 0 {
		t.Fatal("no disk hits: the demand never reached the disk tier")
	}
	if r := float64(evicted) / float64(diskHits); r >= 0.05 {
		t.Fatalf("%d evictions for %d disk hits after warm-up (%.2f per hit), want < 0.05", evicted, diskHits, r)
	}
	if !resident(hot) {
		t.Fatalf("hot documents %v not all resident and published; memory holds %v", hot, s.cache.Docs())
	}

	// Half the demand moves: one stays-hot document at each end of the
	// admission order, and two that were cold until now.
	hot = []core.DocID{docs[0], docs[k-1], docs[2*k], docs[2*k+1]}
	const within = 5 // diffusion periods
	for i := 0; !resident(hot); i++ {
		if time.Duration(i)*s.cfg.GossipPeriod > within*s.cfg.DiffusionPeriod {
			t.Fatalf("hot documents %v not all resident %d diffusion periods after the shift; memory holds %v",
				hot, within, s.cache.Docs())
		}
		round(hot)
	}

	checkBodies(t, conn, bodies, asked)
}

// TestDiskHitGateSeesHeatMove: memory holds one document. While a is hot,
// b's offers are refused; once demand moves to b — at half a's old rate — b
// takes memory over within a Window and a diffusion period. The store only
// knows the ranks its owner pushes, and a and b carry the same target: a
// server that did not push the served rates each rebuild of its rate maps
// reads would weigh every offer against a resident ranked by its target
// alone, refusing ties for good or admitting b while a is still hot.
func TestDiskHitGateSeesHeatMove(t *testing.T) {
	const size = 100
	s := handServer(t, Config{
		NumShards: 1, CacheShards: 1, CacheBudgetBytes: size, DataDir: t.TempDir(),
		GossipPeriod: 10 * time.Millisecond, DiffusionPeriod: 20 * time.Millisecond,
		Window: 80 * time.Millisecond,
	})
	t.Cleanup(s.Stop)
	sh := s.shards[0]
	a, b := core.DocID("a"), core.DocID("b")
	bodies := map[core.DocID][]byte{a: bytes.Repeat([]byte("a"), size), b: bytes.Repeat([]byte("b"), size)}
	for _, doc := range []core.DocID{a, b} {
		sh.handle(event{conn: nopConn{}, env: &netproto.Envelope{
			Kind: netproto.TypeDelegate, From: 0, To: 1, Doc: doc, Rate: 1e6, Body: bodies[doc],
		}})
	}
	conn := &sinkConn{}
	var asked uint64
	// round is one gossip period with na requests for a and nb for b.
	round := func(na, nb int) {
		for i := 0; i < na+nb; i++ {
			asked++
			doc := a
			if i >= na {
				doc = b
			}
			env := &netproto.Envelope{Kind: netproto.TypeRequest, From: -1, Origin: 1, ReqID: asked, Doc: doc}
			if !s.tryFastServe(sh, shardHash(doc), env, conn) {
				sh.handle(event{env: env, conn: conn})
			}
		}
		sh.now = sh.now.Add(s.cfg.GossipPeriod)
		sh.tick(false)
	}
	window := int(s.cfg.Window / s.cfg.GossipPeriod)
	for i := 0; i < 2*window; i++ {
		round(8, 0)
	}
	for i := 0; i < window; i++ {
		round(8, 1)
	}
	if !s.cache.Contains(a) || sh.n.readmitsRefused == 0 {
		t.Fatalf("memory holds %v after %d refusals, want a, and b refused", s.cache.Docs(), sh.n.readmitsRefused)
	}
	limit := window + int(s.cfg.DiffusionPeriod/s.cfg.GossipPeriod)
	for i := 0; !s.cache.Contains(b); i++ {
		if i > limit {
			t.Fatalf("b not resident %d gossip periods after demand moved to it; memory holds %v", limit, s.cache.Docs())
		}
		round(0, 4)
	}
	checkBodies(t, conn, bodies, asked)
}

// checkBodies asserts that every request was answered, each with its own
// document's body.
func checkBodies(t *testing.T, conn *sinkConn, bodies map[core.DocID][]byte, asked uint64) {
	t.Helper()
	answered := 0
	for _, env := range conn.sent {
		if env.Kind != netproto.TypeResponse {
			continue
		}
		answered++
		if !bytes.Equal(env.Body, bodies[env.Doc]) {
			t.Fatalf("response for %s carries %q, want its own body", env.Doc, env.Body)
		}
	}
	if answered != int(asked) {
		t.Fatalf("%d of %d requests answered", answered, asked)
	}
}
