package diskstore

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"webwave/internal/core"
)

func journalPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "journal.wal")
}

func TestJournalRoundTrip(t *testing.T) {
	path := journalPath(t)
	j, state, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(state) != 0 {
		t.Fatalf("fresh journal replayed state %v", state)
	}
	j.Append(OpAdmit, "a", 0)
	j.Append(OpAdmit, "b", 0)
	j.Append(OpTarget, "a", 12.5)
	j.Append(OpTarget, "b", 3)
	j.Append(OpDrop, "b", 0)
	j.Append(OpAdmit, "c/with/slashes", 7)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, state, err = OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[core.DocID]DocState{"a": {Rate: 12.5}, "c/with/slashes": {Rate: 7}}
	if len(state) != len(want) {
		t.Fatalf("replayed %v, want %v", state, want)
	}
	for doc, st := range want {
		if state[doc] != st {
			t.Fatalf("replayed %v, want %v", state, want)
		}
	}
}

func TestJournalTargetNeverResurrects(t *testing.T) {
	path := journalPath(t)
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(OpAdmit, "a", 0)
	j.Append(OpDrop, "a", 0)
	j.Append(OpTarget, "a", 99) // stale: arrives after the drop
	j.Close()
	_, state, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(state) != 0 {
		t.Fatalf("stale target resurrected dropped doc: %v", state)
	}
}

// TestJournalTornTail truncates the journal mid-frame at every possible
// byte offset of the final record and asserts recovery always succeeds,
// keeping exactly the records before the tear.
func TestJournalTornTail(t *testing.T) {
	path := journalPath(t)
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(OpAdmit, "a", 1)
	j.Append(OpAdmit, "b", 2)
	j.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frame := len(full) / 2 // both records are the same size

	for cut := frame + 1; cut < len(full); cut++ {
		torn := filepath.Join(t.TempDir(), "torn.wal")
		if err := os.WriteFile(torn, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		tj, state, err := OpenJournal(torn)
		if err != nil {
			t.Fatalf("cut at %d: recovery refused: %v", cut, err)
		}
		if len(state) != 1 || state["a"].Rate != 1 {
			t.Fatalf("cut at %d: replayed %v, want only a=1", cut, state)
		}
		// The tail must be gone: a fresh append then a replay sees the
		// valid prefix plus the new record, nothing garbled in between.
		tj.Append(OpAdmit, "c", 3)
		tj.Close()
		_, state, err = OpenJournal(torn)
		if err != nil {
			t.Fatalf("cut at %d: reopen after append: %v", cut, err)
		}
		if len(state) != 2 || state["a"].Rate != 1 || state["c"].Rate != 3 {
			t.Fatalf("cut at %d: post-append replay %v", cut, state)
		}
	}
}

// TestJournalCorruptMiddle flips a payload byte of the first record: the
// CRC rejects it and recovery keeps nothing after the corruption, but
// still starts.
func TestJournalCorruptMiddle(t *testing.T) {
	path := journalPath(t)
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(OpAdmit, "a", 1)
	j.Append(OpAdmit, "b", 2)
	j.Close()
	raw, _ := os.ReadFile(path)
	raw[10] ^= 0xff // inside record 0's payload
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, state, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("corrupt journal refused recovery: %v", err)
	}
	if len(state) != 0 {
		t.Fatalf("replayed past corruption: %v", state)
	}
}

func TestJournalCompact(t *testing.T) {
	path := journalPath(t)
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		j.Append(OpAdmit, "churn", float64(i))
		j.Append(OpDrop, "churn", 0)
	}
	j.Append(OpAdmit, "keep", 5)
	before, _ := os.Stat(path)
	if err := j.Compact(map[core.DocID]DocState{"keep": {Rate: 5}}); err != nil {
		t.Fatal(err)
	}
	after, _ := os.Stat(path)
	if after.Size() >= before.Size() {
		t.Fatalf("compaction did not shrink: %d -> %d", before.Size(), after.Size())
	}
	// The compacted journal stays appendable and replayable.
	if err := j.Append(OpTarget, "keep", 6); err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, state, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(state) != 1 || (state["keep"] != DocState{Rate: 6}) {
		t.Fatalf("post-compact replay %v, want keep rate 6", state)
	}
}

func TestJournalLagAndSync(t *testing.T) {
	j, _, err := OpenJournal(journalPath(t))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.Append(OpAdmit, "a", 0)
	j.Append(OpAdmit, "b", 0)
	if j.Lag() != 2 {
		t.Fatalf("Lag=%d, want 2", j.Lag())
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if j.Lag() != 0 {
		t.Fatalf("Lag=%d after Sync, want 0", j.Lag())
	}
}

// TestMaybeSyncPacesOnTheCallersClock: MaybeSync measures its interval on
// the clock it is given, here ten years ahead of the wall clock. The
// interval runs from the first call after an open or a Sync, and from each
// sync MaybeSync makes: a record pending 99 ms into it stays unsynced, and
// one pending at 100 ms is synced.
func TestMaybeSyncPacesOnTheCallersClock(t *testing.T) {
	j, _, err := OpenJournal(journalPath(t))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	t0 := time.Now().AddDate(10, 0, 0)
	steps := []struct {
		appendFirst, syncFirst bool
		atMS                   int
		lag                    int64
	}{
		{appendFirst: true, atMS: 0, lag: 1},
		{atMS: 99, lag: 1},
		{atMS: 100, lag: 0},
		{appendFirst: true, atMS: 150, lag: 1},
		{atMS: 199, lag: 1},
		{atMS: 200, lag: 0},
		{appendFirst: true, syncFirst: true, atMS: 250, lag: 0},
		{appendFirst: true, atMS: 300, lag: 1},
		{atMS: 349, lag: 1},
		{atMS: 350, lag: 0},
	}
	for _, st := range steps {
		if st.appendFirst {
			if err := j.Append(OpAdmit, "a", 0); err != nil {
				t.Fatal(err)
			}
		}
		if st.syncFirst {
			if err := j.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		j.MaybeSync(t0.Add(time.Duration(st.atMS) * time.Millisecond))
		if got := j.Lag(); got != st.lag {
			t.Fatalf("after MaybeSync at +%d ms the lag is %d, want %d", st.atMS, got, st.lag)
		}
	}
}

// TestJournalReplaysOldVersionRecords replays frames as the build before
// versioned body files wrote them, op-4 version records among them: those
// are skipped, admits, targets and drops come back intact, and Compact
// writes no op-4 record.
func TestJournalReplaysOldVersionRecords(t *testing.T) {
	path := journalPath(t)
	// The old layout of a version record: op 4, the version's bits where a
	// rate goes.
	version := func(v uint64) float64 { return math.Float64frombits(v) }
	var raw []byte
	for _, rec := range []struct {
		op   Op
		doc  core.DocID
		rate float64
	}{
		{OpAdmit, "a", 4},
		{4, "a", version(3)},
		{OpTarget, "a", 6},
		{OpAdmit, "b", 1},
		{4, "b", version(9)},
		{OpDrop, "b", 0},
		{4, "c", version(2)}, // for a document never admitted
		{OpAdmit, "d", 2},
		{4, "d", version(1 << 40)},
	} {
		raw = appendFrame(raw, rec.op, rec.doc, rec.rate)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	j, state, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[core.DocID]DocState{"a": {Rate: 6}, "d": {Rate: 2}}
	if !reflect.DeepEqual(state, want) {
		t.Fatalf("replayed %v, want %v", state, want)
	}
	if err := j.Compact(state); err != nil {
		t.Fatal(err)
	}
	j.Close()
	compacted, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(compacted); {
		n := int(binary.LittleEndian.Uint32(compacted[off:]))
		if op := Op(compacted[off+8]); op != OpAdmit {
			t.Fatalf("compacted journal holds an op-%d record at byte %d", op, off)
		}
		off += 8 + n
	}
	if _, state, err = OpenJournal(path); err != nil || !reflect.DeepEqual(state, want) {
		t.Fatalf("compacted replay %v (%v), want %v", state, err, want)
	}
}

// FuzzJournalReplay opens a journal made of arbitrary bytes: OpenJournal
// never fails or panics, and the state it replays survives Compact and a
// reopen unchanged (rates compared bit for bit, NaNs included).
func FuzzJournalReplay(f *testing.F) {
	var seed []byte
	seed = appendFrame(seed, OpAdmit, "a", 1)
	seed = appendFrame(seed, OpTarget, "a", 2.5)
	seed = appendFrame(seed, 4, "a", math.Float64frombits(7)) // an old version record
	seed = appendFrame(seed, OpAdmit, "b", 0)
	seed = appendFrame(seed, OpDrop, "b", 0)
	f.Add(seed)
	f.Add(seed[:len(seed)-3]) // torn tail
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		path := filepath.Join(t.TempDir(), "journal.wal")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		j, state, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("OpenJournal refused %d bytes: %v", len(raw), err)
		}
		if err := j.Compact(state); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j, again, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("reopen after Compact: %v", err)
		}
		defer j.Close()
		if len(again) != len(state) {
			t.Fatalf("reopen replayed %d documents, Compact was given %d", len(again), len(state))
		}
		for doc, st := range state {
			if got, ok := again[doc]; !ok || math.Float64bits(got.Rate) != math.Float64bits(st.Rate) {
				t.Fatalf("document %q: reopen replayed %v (%v), Compact was given %v", doc, got, ok, st)
			}
		}
	})
}

// TestCompactSkipsOnlyTheEmptyJournal: a brand-new journal compacted to an
// empty state is left alone (no temp file, no rename — the file keeps its
// identity), while one whose records cancelled out is rewritten to nothing.
func TestCompactSkipsOnlyTheEmptyJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, state, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Compact(state); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) {
		t.Fatal("compacting an empty journal replaced the file")
	}
	// Records that cancel out leave an empty state over a non-empty file.
	if err := j.Append(OpAdmit, "a", 1); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(OpDrop, "a", 0); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j, state, err = OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if len(state) != 0 {
		t.Fatalf("replayed state %v, want empty", state)
	}
	if err := j.Compact(state); err != nil {
		t.Fatal(err)
	}
	rewritten, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if os.SameFile(after, rewritten) || rewritten.Size() != 0 {
		t.Fatalf("cancelled-out journal not rewritten: same file %v, size %d", os.SameFile(after, rewritten), rewritten.Size())
	}
	// The now-empty journal still takes appends.
	if err := j.Append(OpAdmit, "b", 2); err != nil {
		t.Fatal(err)
	}
}
