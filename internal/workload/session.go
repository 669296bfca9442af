package workload

// Read-my-writes session scenario: does the session token actually buy the
// guarantee, and what does its absence cost?
//
// The scenario replays the identical seeded write-then-read-elsewhere
// schedule twice against a warm two-level star. Each round, one session
// republishes a document and immediately reads it back through leaves of a
// DIFFERENT subtree — the adversarial placement: the reader's side of the
// tree still holds the pre-write copy until the invalidation diffuses, so a
// bare read is served stale. The first pass rides the session token on the
// wire (the envelope's MinVersion), the second strips it; the client-side
// violation detector runs in both. The gated figures are the violation
// counts: zero with tokens (the guarantee holds end to end, through version
// gating, lease single-flight, and root parking), strictly positive without
// them (the schedule genuinely provokes the races the tokens close — a
// zero here means the harness went soft, not that the system got better).
//
// This is a wall-clock live-cluster measurement (NOT deterministic); the CI
// gate (benchgate -session-report) applies the zero/nonzero checks, not
// byte equality.

import (
	"fmt"
	"math/rand"
	"time"

	"webwave/internal/cluster"
	"webwave/internal/core"
)

// SessionSchema identifies session-scenario reports.
const SessionSchema = "webwave-session/v1"

// SessionSpec parameterizes the session scenario.
type SessionSpec struct {
	Seed int64 `json:"seed"`
	// The tree is the storm scenario's two-level star, so "a different
	// subtree" is a literal disjoint branch, not a property of a random
	// shape.
	Subtrees  int `json:"subtrees"`   // default 3
	LeavesPer int `json:"leaves_per"` // default 4

	Docs   int `json:"docs"`   // catalog size; default 4
	Rounds int `json:"rounds"` // write-then-read rounds per pass; default 40
	// ReadsPerWrite session reads injected per round, spread over the
	// reader subtree's leaves. Default 6.
	ReadsPerWrite int `json:"reads_per_write"`
	// WarmSeconds bounds the warm-up flash that spreads copies below the
	// root before the first write. Default 8.
	WarmSeconds float64 `json:"warm_seconds"`
}

// WithDefaults fills unset fields.
func (s SessionSpec) WithDefaults() SessionSpec {
	if s.Subtrees <= 1 {
		s.Subtrees = 3
	}
	if s.LeavesPer <= 0 {
		s.LeavesPer = 4
	}
	if s.Docs <= 0 {
		s.Docs = 4
	}
	if s.Rounds <= 0 {
		s.Rounds = 40
	}
	if s.ReadsPerWrite <= 0 {
		s.ReadsPerWrite = 6
	}
	if s.WarmSeconds <= 0 {
		s.WarmSeconds = 8
	}
	return s
}

// SessionPass is one schedule replay's outcome.
type SessionPass struct {
	Reads      int64 `json:"reads"`
	Writes     int64 `json:"writes"`
	Responses  int64 `json:"responses"`
	Unanswered int64 `json:"unanswered"`

	// Violations counts session reads answered with a version older than
	// the session had already written — the read-my-writes failures. The
	// detector runs whether or not the token rode the wire.
	Violations int64 `json:"violations"`
	// ViolationWindows counts the rounds in which at least one violation
	// landed — how widely the failures are smeared over the schedule.
	ViolationWindows int64 `json:"violation_windows"`

	// Cluster-wide write-path counters.
	SessionRefreshes int64 `json:"session_refreshes"`
	LeaseRefreshes   int64 `json:"lease_refreshes"`
	StaleDrops       int64 `json:"stale_drops"`

	Staleness StalenessStats `json:"staleness"`
}

// SessionReport is the session scenario JSON document.
type SessionReport struct {
	Schema   string      `json:"schema"`
	Scenario string      `json:"scenario"`
	Spec     SessionSpec `json:"spec"`

	Nodes int `json:"nodes"`

	WithTokens    SessionPass `json:"with_tokens"`
	WithoutTokens SessionPass `json:"without_tokens"`

	// DiffusionPeriodS is the cluster's diffusion period — the width of the
	// stale window each round's reads race against.
	DiffusionPeriodS float64 `json:"diffusion_period_s"`
}

// RunSession executes both passes of the session scenario and assembles the
// report. The log callback (may be nil) receives one line per pass.
func RunSession(sp SessionSpec, logf func(format string, args ...any)) (*SessionReport, error) {
	sp = sp.WithDefaults()
	if logf == nil {
		logf = func(string, ...any) {}
	}
	withTok, err := sessionPass(sp, true)
	if err != nil {
		return nil, fmt.Errorf("session: token pass: %w", err)
	}
	logf("  with tokens:    %d writes, %d/%d reads answered, %d violations, %d session refreshes",
		withTok.Writes, withTok.Responses, withTok.Reads, withTok.Violations, withTok.SessionRefreshes)
	without, err := sessionPass(sp, false)
	if err != nil {
		return nil, fmt.Errorf("session: bare pass: %w", err)
	}
	logf("  without tokens: %d writes, %d/%d reads answered, %d violations over %d rounds",
		without.Writes, without.Responses, without.Reads, without.Violations, without.ViolationWindows)

	_, leaves := starTree(sp.Subtrees, sp.LeavesPer)
	return &SessionReport{
		Schema: SessionSchema, Scenario: "session", Spec: sp,
		Nodes:            1 + sp.Subtrees + len(leaves),
		WithTokens:       *withTok,
		WithoutTokens:    *without,
		DiffusionPeriodS: updateDiffusionPeriod.Seconds(),
	}, nil
}

// sessionPass replays the seeded schedule against a fresh warm cluster. The
// rng is reseeded identically for both passes, so the two arms differ in
// exactly one bit: whether the session's floor rides the wire.
func sessionPass(sp SessionSpec, tokens bool) (*SessionPass, error) {
	t, leaves := starTree(sp.Subtrees, sp.LeavesPer)
	docs := make(map[core.DocID][]byte, sp.Docs)
	catalog := make([]core.DocID, sp.Docs)
	for i := 0; i < sp.Docs; i++ {
		catalog[i] = core.DocID(fmt.Sprintf("doc-%d", i))
		docs[catalog[i]] = []byte("session document body: " + string(catalog[i]))
	}
	c, err := updateCluster(t, docs)
	if err != nil {
		return nil, err
	}
	defer c.Stop()

	// Warm-up flash: every document must be cached somewhere below the root
	// before the first write, or the bare pass has no stale copy to trip
	// over and the scenario measures nothing.
	warmDeadline := time.Now().Add(dur(sp.WarmSeconds))
	warmed := false
	for !warmed && time.Now().Before(warmDeadline) {
		for _, d := range catalog {
			for _, v := range leaves {
				for i := 0; i < 2; i++ {
					if err := c.Inject(v, d); err != nil {
						return nil, fmt.Errorf("warm inject: %w", err)
					}
				}
			}
		}
		if left := c.Drain(5 * time.Second); left != 0 {
			return nil, fmt.Errorf("%d warm-up reads unanswered", left)
		}
		sts, err := c.Stats()
		if err != nil {
			return nil, fmt.Errorf("warm stats: %w", err)
		}
		spread := make(map[core.DocID]bool, sp.Docs)
		for v, st := range sts {
			if v == t.Root() || st == nil {
				continue
			}
			for _, d := range st.CachedDocs {
				spread[d] = true
			}
		}
		warmed = len(spread) == sp.Docs
	}
	if !warmed {
		return nil, fmt.Errorf("warm-up never spread all %d documents", sp.Docs)
	}
	warmResponses := c.Responses()

	pass := &SessionPass{}
	rng := rand.New(rand.NewSource(sp.Seed + 424242))
	tok := cluster.NewSessionToken()
	for r := 0; r < sp.Rounds; r++ {
		doc := catalog[rng.Intn(sp.Docs)]
		// The reader subtree is chosen per round; the write lands at the
		// origin, so any subtree's leaves read "elsewhere" relative to it —
		// what matters is that their branch still holds the pre-write copy.
		readerSub := rng.Intn(sp.Subtrees)
		body := []byte(fmt.Sprintf("session body %s round %d", doc, r+1))
		if _, err := c.RepublishSession(doc, body, tok); err != nil {
			return nil, fmt.Errorf("round %d write: %w", r, err)
		}
		pass.Writes++
		before := c.RMWViolations()
		for i := 0; i < sp.ReadsPerWrite; i++ {
			leaf := leaves[readerSub*sp.LeavesPer+i%sp.LeavesPer]
			if err := c.InjectSession(leaf, doc, tok, tokens); err != nil {
				return nil, fmt.Errorf("round %d read: %w", r, err)
			}
			pass.Reads++
		}
		pass.Unanswered += c.Drain(5 * time.Second)
		if c.RMWViolations() > before {
			pass.ViolationWindows++
		}
	}

	pass.Responses = c.Responses() - warmResponses
	pass.Violations = c.RMWViolations()
	pass.Staleness = stalenessOf(c)
	sts, err := c.Stats()
	if err != nil {
		return nil, err
	}
	for _, st := range sts {
		if st == nil {
			continue
		}
		pass.SessionRefreshes += st.SessionRefreshes
		pass.LeaseRefreshes += st.LeaseRefreshes
		pass.StaleDrops += st.StaleDrops
	}
	return pass, nil
}
