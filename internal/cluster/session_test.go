package cluster

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"webwave/internal/core"
	"webwave/internal/netproto"
	"webwave/internal/tree"
)

// TestIsRMWViolation pins the violation predicate deterministically: a
// stale serve after a session write must count, an equal-or-newer serve
// must not, and reads outside any session (expect 0) never count.
func TestIsRMWViolation(t *testing.T) {
	cases := []struct {
		name     string
		expect   uint64
		served   uint64
		notFound bool
		want     bool
	}{
		{name: "stale serve after session write", expect: 3, served: 2, want: true},
		{name: "serve of the never-written version after a write", expect: 1, served: 0, want: true},
		{name: "equal-version serve", expect: 3, served: 3, want: false},
		{name: "newer-version serve", expect: 3, served: 5, want: false},
		{name: "no session expectation", expect: 0, served: 0, want: false},
		{name: "no session expectation, versioned serve", expect: 0, served: 7, want: false},
		{name: "not-found carries no copy", expect: 3, served: 0, notFound: true, want: false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := isRMWViolation(tc.expect, tc.served, tc.notFound); got != tc.want {
				t.Errorf("isRMWViolation(%d, %d, %v) = %v, want %v",
					tc.expect, tc.served, tc.notFound, got, tc.want)
			}
		})
	}
}

// TestSessionTokenRatchet checks the token only moves forward and degrades
// safely when nil (a token-less session).
func TestSessionTokenRatchet(t *testing.T) {
	tok := NewSessionToken()
	if got := tok.MinVersion("d"); got != 0 {
		t.Fatalf("fresh token floor = %d, want 0", got)
	}
	tok.Observe("d", 4)
	tok.Observe("d", 2) // older write observation must not lower the floor
	if got := tok.MinVersion("d"); got != 4 {
		t.Fatalf("floor after observe(4), observe(2) = %d, want 4", got)
	}
	tok.Observe("e", 1)
	if got, gotE := tok.MinVersion("d"), tok.MinVersion("e"); got != 4 || gotE != 1 {
		t.Fatalf("per-doc floors = %d/%d, want 4/1", got, gotE)
	}
	var nilTok *SessionToken
	nilTok.Observe("d", 9) // must not panic
	if got := nilTok.MinVersion("d"); got != 0 {
		t.Fatalf("nil token floor = %d, want 0", got)
	}
}

// TestSessionReadMyWrites runs the guarantee end to end on a live two-node
// tree: a leaf-cached copy goes stale the instant the session writes, and a
// tokened read injected at the leaf immediately after must come back at the
// written version (zero violations), with the server recording the session
// refresh that bypassed the stale copy.
func TestSessionReadMyWrites(t *testing.T) {
	tr := tree.MustFromParents([]int{tree.NoParent, 0})
	c, err := New(tr, map[core.DocID][]byte{"d": []byte("v0")}, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	warmCopy(t, c, 1, "d")

	tok := NewSessionToken()
	for i := 1; i <= 5; i++ {
		ver, err := c.RepublishSession("d", []byte(fmt.Sprintf("v%d", i)), tok)
		if err != nil {
			t.Fatal(err)
		}
		if ver != uint64(i) || tok.MinVersion("d") != uint64(i) {
			t.Fatalf("write %d assigned version %d, token floor %d", i, ver, tok.MinVersion("d"))
		}
		// Read through the other edge immediately — the write is still
		// diffusing, so without the token this is exactly the stale window.
		if err := c.InjectSession(1, "d", tok, true); err != nil {
			t.Fatal(err)
		}
		if left := c.Drain(5 * time.Second); left != 0 {
			t.Fatalf("write %d: %d session reads unanswered", i, left)
		}
	}
	if v := c.RMWViolations(); v != 0 {
		t.Fatalf("%d read-my-writes violations with tokens, want 0", v)
	}
	sts, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var refreshes int64
	for _, st := range sts {
		if st != nil {
			refreshes += st.SessionRefreshes
		}
	}
	if refreshes == 0 {
		t.Fatal("no session refreshes recorded: the token never gated a stale copy")
	}
}

// sessionArm is one replay of TestSessionTwoArms's schedule.
type sessionArm struct {
	reads, writes, responses, unanswered int64
	violations                           int64
	violationRounds                      int64 // rounds with at least one violation
	sessionRefreshes                     int64
}

// sessionSchedule is a seeded write-then-read schedule on a star.
type sessionSchedule struct {
	seed                        int64
	subtrees, leavesPer         int
	docs, rounds, readsPerWrite int
}

// play warms a fresh star cluster and plays the schedule on it: each round
// one session republishes a document at the origin and reads it back at
// once through the leaves of one subtree, whose copies still hold the
// version before. With tokens the session's floor rides each read; without,
// the reads are bare and only the detector sees them.
func (sp sessionSchedule) play(t *testing.T, tokens bool) sessionArm {
	t.Helper()
	tr, leaves := star(sp.subtrees, sp.leavesPer)
	catalog := make([]core.DocID, sp.docs)
	bodies := make(map[core.DocID][]byte, sp.docs)
	for i := range catalog {
		catalog[i] = core.DocID(fmt.Sprintf("doc-%d", i))
		bodies[catalog[i]] = []byte("session document body: " + string(catalog[i]))
	}
	c, err := New(tr, bodies, writeConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	spreadBelowRoot(t, c, leaves, catalog, 2)
	warmResponses := c.Responses()

	var a sessionArm
	rng := rand.New(rand.NewSource(sp.seed))
	tok := NewSessionToken()
	for r := 1; r <= sp.rounds; r++ {
		doc := catalog[rng.Intn(sp.docs)]
		sub := rng.Intn(sp.subtrees)
		if _, err := c.RepublishSession(doc, fmt.Appendf(nil, "session body %s round %d", doc, r), tok); err != nil {
			t.Fatal(err)
		}
		a.writes++
		before := c.RMWViolations()
		for i := 0; i < sp.readsPerWrite; i++ {
			if err := c.InjectSession(leaves[sub*sp.leavesPer+i%sp.leavesPer], doc, tok, tokens); err != nil {
				t.Fatal(err)
			}
			a.reads++
		}
		a.unanswered += c.Drain(5 * time.Second)
		if c.RMWViolations() > before {
			a.violationRounds++
		}
	}
	a.responses = c.Responses() - warmResponses
	a.violations = c.RMWViolations()
	a.sessionRefreshes = statSum(statsOf(t, c), func(st *netproto.Stats) int64 { return st.SessionRefreshes })
	return a
}

// TestSessionTwoArms plays one seeded write-then-read schedule twice on a
// warm star of 3 subtrees of 4 leaves holding 4 documents: 40 rounds of one
// write and 6 reads of it elsewhere. Both arms answer every read. With the
// session token on the wire no read comes back older than the session's
// write, and the servers are seen to bypass stale copies for it. Stripped
// of the token, the same schedule shows violations, in between 1 and 40
// rounds, and no server bypasses anything; without them the token arm's
// zero would prove nothing.
func TestSessionTwoArms(t *testing.T) {
	sp := sessionSchedule{seed: 1, subtrees: 3, leavesPer: 4, docs: 4, rounds: 40, readsPerWrite: 6}
	rounds, reads := int64(sp.rounds), int64(sp.rounds*sp.readsPerWrite)
	withTokens, bare := sp.play(t, true), sp.play(t, false)
	t.Logf("with tokens: %d violations, %d session refreshes; without: %d violations over %d of %d rounds",
		withTokens.violations, withTokens.sessionRefreshes, bare.violations, bare.violationRounds, rounds)

	for name, a := range map[string]sessionArm{"with tokens": withTokens, "without tokens": bare} {
		if a.writes < 1 || a.reads != reads || a.responses != a.reads {
			t.Errorf("%s: %d writes, %d reads, %d responses; want %d reads, each answered",
				name, a.writes, a.reads, a.responses, reads)
		}
		if a.unanswered != 0 {
			t.Errorf("%s: %d session reads unanswered", name, a.unanswered)
		}
	}
	if withTokens.violations != 0 {
		t.Errorf("with tokens: %d read-my-writes violations, want 0", withTokens.violations)
	}
	if withTokens.sessionRefreshes < 1 {
		t.Error("with tokens: no session refresh, so no server ever gated a stale copy")
	}
	if bare.violations == 0 {
		t.Error("without tokens: no violations, so the schedule provoked no race")
	}
	if bare.violationRounds < 1 || bare.violationRounds > rounds {
		t.Errorf("without tokens: violations in %d rounds, want 1..%d", bare.violationRounds, rounds)
	}
	if bare.sessionRefreshes != 0 {
		t.Errorf("without tokens: %d session refreshes on a wire that carries no floor", bare.sessionRefreshes)
	}
}

// SessionToken is one client session's version ratchet: the highest version
// it has written (or observed) per document. Safe for concurrent use.
type SessionToken struct {
	mu   sync.Mutex
	vers map[core.DocID]uint64
}

// NewSessionToken returns an empty session: every read accepts any version
// until the session's first write.
func NewSessionToken() *SessionToken {
	return &SessionToken{vers: make(map[core.DocID]uint64, 4)}
}

// Observe ratchets the session's floor for doc up to ver. Older
// observations are no-ops — a session never lowers its guarantee.
func (t *SessionToken) Observe(doc core.DocID, ver uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if ver > t.vers[doc] {
		t.vers[doc] = ver
	}
	t.mu.Unlock()
}

// MinVersion returns the session's version floor for doc (0 = any version
// is acceptable; the session has not written it).
func (t *SessionToken) MinVersion(doc core.DocID) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.vers[doc]
}

// RepublishSession injects a versioned body write and records the assigned
// version in the session's token, so the session's subsequent reads demand
// at least this write.
func (c *Cluster) RepublishSession(doc core.DocID, body []byte, tok *SessionToken) (uint64, error) {
	ver, err := c.Republish(doc, body)
	if err == nil {
		tok.Observe(doc, ver)
	}
	return ver, err
}

// InjectSession sends one read belonging to a session: the response is
// checked against the session's version floor for doc (a violation is
// counted if it comes back older), and when tokens is true the floor also
// rides the wire as the request's MinVersion so the tree enforces it. With
// tokens false the read is indistinguishable on the wire from Inject — the
// detector still runs, which is how TestSessionTwoArms measures the
// violation rate without the guarantee.
func (c *Cluster) InjectSession(origin int, doc core.DocID, tok *SessionToken, tokens bool) error {
	expect := tok.MinVersion(doc)
	minVer := uint64(0)
	if tokens {
		minVer = expect
	}
	return c.inject(origin, doc, expect, minVer)
}

// RMWViolations returns the number of read-my-writes violations observed so
// far: session reads answered with a version older than their session had
// already written.
func (c *Cluster) RMWViolations() int64 { return c.rmwViolations.Load() }
