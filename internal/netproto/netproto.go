// Package netproto defines the wire protocol spoken by live WebWave cache
// servers: load gossip, delegation of document service duty down the tree,
// shedding up the tree, client request packets, version-carrying writes,
// and a stats scrape for the harness.
//
// Messages travel as length-prefixed frames whose payload is the compact
// binary form of binary.go (protocol v2); its high-frequency kinds encode
// and decode without allocating. The framing layer (frame.go) bounds message
// size and is covered by fuzz-style round-trip tests. The json tags on
// Envelope serve the stats_reply blob, the benchmark reports and
// json.Marshal as a debug rendering; JSON is not a wire format.
package netproto

import (
	"errors"
	"fmt"

	"webwave/internal/core"
)

// MaxFrame bounds a frame's payload size (16 MiB), preventing a corrupt
// length prefix from exhausting memory.
const MaxFrame = 16 << 20

// ErrFrameTooLarge is returned when a frame exceeds MaxFrame.
var ErrFrameTooLarge = errors.New("netproto: frame exceeds maximum size")

// Type discriminates protocol messages.
type Type string

// Message types.
const (
	// TypeGossip carries a server's current load to a tree neighbor.
	TypeGossip Type = "gossip"
	// TypeDelegate hands part of a document's service duty (and, when
	// needed, the document body) from a parent to a child.
	TypeDelegate Type = "delegate"
	// TypeShed moves service duty from a child up to its parent.
	TypeShed Type = "shed"
	// TypeRequest is a client document request traveling toward the home
	// server.
	TypeRequest Type = "request"
	// TypeResponse answers a request, recording which server served it.
	TypeResponse Type = "response"
	// TypeEvict hints to a tree neighbor that the sender displaced its
	// cache copy of a document under memory pressure: Rate carries the
	// serve duty the sender was still holding, which the receiver absorbs
	// into its own target when it caches the document (the wave recedes to
	// the surviving copies) and ignores otherwise.
	TypeEvict Type = "evict"
	// TypeStatsQuery and TypeStatsReply let the harness scrape metrics.
	TypeStatsQuery Type = "stats_query"
	TypeStatsReply Type = "stats_reply"
	// TypeShutdown asks a server to stop gracefully.
	TypeShutdown Type = "shutdown"
	// TypePing probes a link for liveness: sent on idle heartbeats by the
	// failure detector and as the first frame of a failover handshake. The
	// receiver answers with TypePong; either frame (or any other traffic)
	// counts as proof of life.
	TypePing Type = "ping"
	// TypePong answers a ping. From carries the responder's node id, which
	// is how a failing-over orphan learns the identity of the ancestor it
	// dialed by address.
	TypePong Type = "pong"
	// TypeReclaim re-announces serve duty across a repaired tree edge: after
	// failing over to a new parent, an orphan replays one reclaim per held
	// document, with Rate carrying the target duty it is still serving. The
	// new parent absorbs the figures into its per-child duty ledger — the
	// same bookkeeping the evict-hint path feeds — so a later loss of this
	// child re-absorbs exactly the duty that actually lives below the edge.
	TypeReclaim Type = "reclaim"
	// TypeClaim tells a parent the sender claimed passing flow for Doc at
	// Rate, holding the copy or not. The parent credits its per-child duty
	// ledger as for a reclaim, but counts no reclaimed duty.
	TypeClaim Type = "claim"
	// TypeRepublish pushes a new version of a mutable document down the
	// tree: DocVersion is the new monotonically increasing version number
	// and Body the replacement bytes. A copy-holder that sees a higher
	// version than its own swaps its copy in place (memory and disk tiers)
	// and forwards the frame to its children, so the new body diffuses
	// along the same filter/target edges delegation built. Stale frames
	// (DocVersion at or below the local version) are dropped, which makes
	// rebroadcast loops and duplicate delivery harmless.
	TypeRepublish Type = "republish"
	// TypeInvalidate marks a document version stale without shipping the
	// body: DocVersion is the superseding version, Body is empty on the
	// downward diffusion path (the optional body is only meaningful on the
	// injection edge at the origin, which uses it to install the new copy
	// before diffusing). A copy-holder drops its stale copy but keeps its
	// admission filter and serve duty; the next request misses locally and
	// rides the per-shard single-flight upward — the tree-wide lease — so a
	// whole invalidated subtree refreshes with one origin fetch.
	TypeInvalidate Type = "invalidate"
)

// Envelope is the single wire message. Fields are a flat union; which are
// meaningful depends on Kind.
type Envelope struct {
	Kind Type   `json:"kind"`
	From int    `json:"from"`
	To   int    `json:"to"`
	Seq  uint64 `json:"seq,omitempty"`

	// Gossip.
	Load float64 `json:"load,omitempty"`

	// Delegation / shedding / writes.
	Doc  core.DocID `json:"doc,omitempty"`
	Rate float64    `json:"rate,omitempty"`
	Body []byte     `json:"body,omitempty"`
	// BodyLent marks a Body that stays valid only until Send or
	// SendBuffered returns (a server's reusable disk-read buffer): a
	// transport that keeps the envelope past the call copies the body.
	// Unmarked bodies are immutable. Not encoded on the wire.
	BodyLent bool `json:"-"`
	// DocVersion is the document's version number: the superseding version
	// on republish/invalidate frames, the version of the copy handed over
	// on delegate frames, and the version of the copy that
	// answered on responses (so clients can measure staleness). 0 means the
	// document has never been republished.
	DocVersion uint64 `json:"doc_version,omitempty"`

	// Requests.
	Origin int    `json:"origin,omitempty"`
	ReqID  uint64 `json:"req_id,omitempty"`
	// MinVersion is the oldest document version the requesting session will
	// accept (read-my-writes session tokens): a node holding an older copy
	// must bypass it and refresh through the tree instead of serving it.
	// 0 — the default — accepts any version. Rides request frames only.
	MinVersion uint64 `json:"min_version,omitempty"`
	// ServedBy is set on responses: the node that served the request.
	ServedBy int `json:"served_by,omitempty"`
	// Hops counts tree edges the request traversed before being served.
	Hops int `json:"hops,omitempty"`
	// NotFound is set on responses from the home server for documents it
	// does not publish.
	NotFound bool `json:"not_found,omitempty"`

	// Stats scrape.
	Stats *Stats `json:"stats,omitempty"`
}

// Stats is the metrics payload a server reports to the harness.
type Stats struct {
	Node      int     `json:"node"`
	Load      float64 `json:"load"`      // served req/s over the window
	Served    int64   `json:"served"`    // total requests served
	Forwarded int64   `json:"forwarded"` // total requests passed upstream
	// Coalesced counts requests answered from another request's upstream
	// fetch (single-flight) instead of traveling up the tree themselves.
	Coalesced      int64                  `json:"coalesced,omitempty"`
	CachedDocs     []core.DocID           `json:"cached_docs"` // current cache contents
	Targets        map[core.DocID]float64 `json:"targets"`     // per-doc target serve rates
	GossipSent     int64                  `json:"gossip_sent"`
	DelegationsIn  int64                  `json:"delegations_in"`
	DelegationsOut int64                  `json:"delegations_out"`
	ShedsIn        int64                  `json:"sheds_in"`
	ShedsOut       int64                  `json:"sheds_out"`
	Tunnels        int64                  `json:"tunnels"` // claims that marked a document not held for adoption
	FilterStats    FilterStats            `json:"filter_stats"`
	// QueueLen is the server's inbound event backlog at snapshot time —
	// the sum over every shard loop's queue plus the control loop's — and
	// CacheBytes the bytes held in its document cache: the saturation
	// signals the benchmark harness scrapes per window.
	QueueLen   int   `json:"queue_len"`
	CacheBytes int64 `json:"cache_bytes"`
	// Shards is the number of doc-sharded event loops; ShardQueueLens the
	// per-shard backlog at snapshot time (len == Shards) and CtrlQueueLen
	// the control loop's, so a hot-shard imbalance is visible rather than
	// hidden inside the QueueLen sum.
	Shards         int   `json:"shards,omitempty"`
	ShardQueueLens []int `json:"shard_queue_lens,omitempty"`
	CtrlQueueLen   int   `json:"ctrl_queue_len,omitempty"`
	// ShardSnapEpochs is each shard's snapshot-mailbox epoch at scrape
	// time. Ticks are skippable under backpressure, so an epoch that stops
	// advancing between scrapes identifies a wedged or starved shard.
	ShardSnapEpochs []uint64 `json:"shard_snap_epochs,omitempty"`
	// FastServed counts requests answered on the lock-free read fast path
	// (connection goroutine, publication-index hit) — a subset of Served.
	FastServed int64 `json:"fast_served,omitempty"`
	// PendingLen counts the reads held at snapshot time: on a document's
	// flight, waiting for its upstream answer, or waiting for a write.
	PendingLen int `json:"pending_len,omitempty"`
	// Cache pressure counters: the configured byte budget (0 = unlimited),
	// documents displaced by eviction, the bytes they held, and the
	// high-water mark of CacheBytes over the server's lifetime.
	CacheBudgetBytes int64 `json:"cache_budget_bytes,omitempty"`
	EvictedDocs      int64 `json:"evicted_docs,omitempty"`
	EvictedBytes     int64 `json:"evicted_bytes,omitempty"`
	// EvictHintsIn counts evict hints received from neighbors (distinct
	// from ShedsIn, which counts only TypeShed messages).
	EvictHintsIn  int64 `json:"evict_hints_in,omitempty"`
	MaxCacheBytes int64 `json:"max_cache_bytes,omitempty"`
	// Fault-tolerance figures. ParentID is the node currently acting as this
	// server's parent (-1 at the root, or while orphaned); Orphaned is a
	// gauge: 1 while a non-root node has no live parent link. Reconnects
	// counts completed failovers (a new parent installed after a loss);
	// HeartbeatMisses counts heartbeat intervals that elapsed with no
	// traffic from a monitored neighbor — a steadily rising figure points at
	// a partitioned or wedged link before the detector gives up on it.
	ParentID        int   `json:"parent_id"`
	Orphaned        int   `json:"orphaned,omitempty"`
	Reconnects      int64 `json:"reconnects,omitempty"`
	HeartbeatMisses int64 `json:"heartbeat_misses,omitempty"`
	// ReclaimedDuty totals the duty rate re-announced to this node by
	// orphans that failed over to it (TypeReclaim); AbsorbedDuty totals the
	// delegated duty this node re-absorbed into its own targets when a
	// child died. Together they account for where a dead subtree's serve
	// duty went.
	ReclaimedDuty float64 `json:"reclaimed_duty,omitempty"`
	AbsorbedDuty  float64 `json:"absorbed_duty,omitempty"`
	// Always nil; read only by benchmark/; delete after the benchmark-only follow-up.
	PromotedDocs map[core.DocID][]int `json:"promoted_docs,omitempty"`
	// Always zero; read only by benchmark/; delete after the benchmark-only follow-up.
	Promotions int64 `json:"promotions,omitempty"`
	// Always zero; read only by benchmark/; delete after the benchmark-only follow-up.
	Demotions int64 `json:"demotions,omitempty"`
	// Disk persistence tier figures (zero with Config.DataDir unset).
	// DiskHits counts requests served from the disk tier (a subset of
	// Served). Each offers its body back to memory, which takes it only if
	// it is hotter than the copy it would evict; ReadmitsRefused counts the
	// offers memory declined. DiskDocs/DiskBytes/
	// DiskBudgetBytes mirror the cache figures for the on-disk tier;
	// DiskSpills counts memory evictions that became disk-resident spills
	// (duty kept) rather than losses (duty hinted upstream); WarmDocs is
	// the number of documents recovered from the journal at startup; and
	// JournalLag is the journal records appended but not yet fsynced — what
	// a power cut (not a process kill) could lose.
	DiskHits        int64 `json:"disk_hits,omitempty"`
	ReadmitsRefused int64 `json:"readmits_refused,omitempty"`
	DiskDocs        int64 `json:"disk_docs,omitempty"`
	DiskBytes       int64 `json:"disk_bytes,omitempty"`
	DiskBudgetBytes int64 `json:"disk_budget_bytes,omitempty"`
	DiskSpills      int64 `json:"disk_spills,omitempty"`
	WarmDocs        int64 `json:"warm_docs,omitempty"`
	JournalLag      int64 `json:"journal_lag,omitempty"`
	// Mutable-document figures (zero until a document is republished).
	// RepublishesIn counts version-advancing republish frames applied;
	// InvalidationsIn counts version-advancing invalidate frames applied
	// (both exclude stale duplicates, which are dropped). StaleDrops counts
	// frames or handed-over copies refused because they carried a version
	// at or below the local one. LeaseRefreshes counts stale copies
	// re-admitted from an upstream response body — each is one subtree-wide
	// lease fetch that answered every coalesced waiter below it.
	RepublishesIn   int64 `json:"republishes_in,omitempty"`
	InvalidationsIn int64 `json:"invalidations_in,omitempty"`
	StaleDrops      int64 `json:"stale_drops,omitempty"`
	LeaseRefreshes  int64 `json:"lease_refreshes,omitempty"`
	// SessionRefreshes counts requests whose session token demanded a newer
	// version than the local copy held: each was held back instead of being
	// served stale, waiting for the write that set its floor or sent upward
	// through the subtree lease.
	SessionRefreshes int64 `json:"session_refreshes,omitempty"`
}

// FilterStats mirrors router.Stats for the wire.
type FilterStats struct {
	Inspected int64 `json:"inspected"`
	Extracted int64 `json:"extracted"`
	Passed    int64 `json:"passed"`
}

// Validate performs basic sanity checks on a received envelope.
func (e *Envelope) Validate() error {
	if e.Kind == "" {
		return errors.New("netproto: missing kind")
	}
	if e.Rate < 0 {
		return fmt.Errorf("netproto: negative rate %v", e.Rate)
	}
	return nil
}
