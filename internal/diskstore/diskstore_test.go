package diskstore

import (
	"encoding/base64"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"webwave/internal/core"
)

// heldFile returns the descriptor doc's entry retains, nil when it holds
// none (or the document is not resident).
func heldFile(s *Store, doc core.DocID) *os.File {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.entries[doc]; e != nil {
		return e.f
	}
	return nil
}

func openCount(s *Store) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.open
}

// wantClosed fails the test unless f has been closed.
func wantClosed(t *testing.T, what string, f *os.File) {
	t.Helper()
	if _, err := f.ReadAt(make([]byte, 1), 0); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("%s: descriptor still open (read error %v)", what, err)
	}
}

// peek is Peek without the version, shaped like Get.
func peek(s *Store) func(core.DocID) ([]byte, bool) {
	return func(doc core.DocID) ([]byte, bool) {
		b, _, ok := s.Peek(doc)
		return b, ok
	}
}

func body(n int, fill byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = fill
	}
	return b
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	evs, ok := s.Put("doc/a", body(100, 'a'))
	if !ok || len(evs) != 0 {
		t.Fatalf("Put = %v, %v; want admitted with no evictions", evs, ok)
	}
	got, ok := s.Get("doc/a")
	if !ok || string(got) != string(body(100, 'a')) {
		t.Fatalf("Get returned %q, %v", got, ok)
	}
	if s.Len() != 1 || s.Bytes() != 100 {
		t.Fatalf("Len=%d Bytes=%d, want 1/100", s.Len(), s.Bytes())
	}
	if _, ok := s.Get("doc/missing"); ok {
		t.Fatal("Get of absent doc reported a hit")
	}
	st := s.StatsSnapshot()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats hits=%d misses=%d, want 1/1", st.Hits, st.Misses)
	}
}

func TestBudgetEvictsLRU(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), BudgetBytes: 250})
	if err != nil {
		t.Fatal(err)
	}
	s.Put("a", body(100, 'a'))
	s.Put("b", body(100, 'b'))
	s.Get("a") // a is now more recent than b
	evs, ok := s.Put("c", body(100, 'c'))
	if !ok {
		t.Fatal("Put c rejected")
	}
	if len(evs) != 1 || evs[0].Doc != "b" || evs[0].Bytes != 100 {
		t.Fatalf("evictions = %+v, want LRU doc b", evs)
	}
	if s.Contains("b") {
		t.Fatal("evicted doc still resident")
	}
	if !s.Contains("a") || !s.Contains("c") {
		t.Fatal("survivors missing")
	}
}

func TestOversizedBodyRejectedWithoutEvicting(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), BudgetBytes: 300})
	if err != nil {
		t.Fatal(err)
	}
	s.Put("a", body(100, 'a'))
	s.Put("b", body(100, 'b'))
	evs, ok := s.Put("huge", body(301, 'x'))
	if ok {
		t.Fatal("over-budget body admitted")
	}
	if len(evs) != 0 {
		t.Fatalf("rejection evicted %+v; residents must survive", evs)
	}
	if s.Len() != 2 {
		t.Fatalf("Len=%d after rejection, want 2", s.Len())
	}
	if s.StatsSnapshot().Rejected != 1 {
		t.Fatal("rejection not counted")
	}
}

func TestReopenRecoversBodiesByScan(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s.Put("odd/../id with spaces", body(64, 'q'))
	s.PutVersion("plain", body(32, 'p'), 1<<40)

	// No Close/flush step: every Put is already durable (rename). Reopen
	// as a crashed-and-restarted node would.
	r, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 || r.Bytes() != 96 {
		t.Fatalf("recovered Len=%d Bytes=%d, want 2/96", r.Len(), r.Bytes())
	}
	// The scan indexes without opening; each body opens on its first read,
	// by Get or by Peek, and keeps the descriptor for the next.
	if n := openCount(r); n != 0 {
		t.Fatalf("reopen scan holds %d descriptors, want 0", n)
	}
	got, ok := r.Get("odd/../id with spaces")
	if !ok || string(got) != string(body(64, 'q')) {
		t.Fatalf("recovered body mismatch: %q, %v", got, ok)
	}
	got, ver, ok := r.Peek("plain")
	if !ok || string(got) != string(body(32, 'p')) || ver != 1<<40 {
		t.Fatalf("recovered body mismatch: %q at version %d, %v", got, ver, ok)
	}
	if n := openCount(r); n != 2 {
		t.Fatalf("%d descriptors after reading two scanned bodies, want 2", n)
	}
	f := heldFile(r, "plain")
	if got, ver, ok = r.GetVersion("plain"); !ok || string(got) != string(body(32, 'p')) || ver != 1<<40 || heldFile(r, "plain") != f {
		t.Fatalf("second read: %q at version %d, %v, same descriptor %v", got, ver, ok, heldFile(r, "plain") == f)
	}
	if _, ver, _ = r.GetVersion("odd/../id with spaces"); ver != 0 {
		t.Fatalf("a plain Put recovered at version %d, want 0", ver)
	}
}

// TestPutVersionOrdering: a Put above the resident version replaces the
// body (file included), one at it only touches recency, one below it is
// refused and leaves the resident body as it was.
func TestPutVersionOrdering(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, BudgetBytes: 250})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.PutVersion("a", body(100, '2'), 2)
	s.Put("b", body(100, 'b'))
	if _, ok := s.PutVersion("a", body(100, 'x'), 2); !ok {
		t.Fatal("a Put at the resident version was refused")
	}
	if got := s.StatsSnapshot().Puts; got != 2 {
		t.Fatalf("a Put at the resident version wrote: puts=%d, want 2", got)
	}
	// That Put made a the most recent: c displaces b.
	if evs, _ := s.Put("c", body(60, 'c')); len(evs) != 1 || evs[0].Doc != "b" {
		t.Fatalf("evictions = %+v, want b", evs)
	}
	if _, ok := s.PutVersion("a", body(100, '1'), 1); ok {
		t.Fatal("a Put below the resident version was accepted")
	}
	if got, ver, ok := s.GetVersion("a"); !ok || ver != 2 || string(got) != string(body(100, '2')) {
		t.Fatalf("after an equal and a lower Put: %q at version %d, %v; want the version-2 body", got, ver, ok)
	}
	if evs, ok := s.PutVersion("a", body(120, '3'), 3); !ok || len(evs) != 0 {
		t.Fatalf("higher Put = %v, %v; want it in place of version 2, evicting nothing", evs, ok)
	}
	if got, ver, ok := s.GetVersion("a"); !ok || ver != 3 || string(got) != string(body(120, '3')) {
		t.Fatalf("after a higher Put: %q at version %d, %v", got, ver, ok)
	}
	if s.Bytes() != 180 {
		t.Fatalf("Bytes=%d, want 180 (a at 120, c at 60)", s.Bytes())
	}
	if _, err := os.Stat(s.fileOf("a", 2)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the superseded file survived: %v", err)
	}
	// A higher version that cannot fit still retires the old one.
	if _, ok := s.PutVersion("a", body(300, '4'), 4); ok {
		t.Fatal("an over-budget body was admitted")
	}
	if s.Contains("a") {
		t.Fatal("a refused higher Put left the superseded body resident")
	}
	if des, _ := os.ReadDir(dir); len(des) != 1 {
		t.Fatalf("directory holds %d files, want c's alone", len(des))
	}
}

// TestOpenKeepsTheHigherVersion: a crash between a replacing Put's rename
// and its removal of the old file leaves two bodies for one document; Open
// serves the higher version and removes the other file.
func TestOpenKeepsTheHigherVersion(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s.PutVersion("a", body(10, '5'), 5)
	s.Close()
	// The older body, as the interrupted Put left it.
	if err := os.WriteFile(s.fileOf("a", 4), body(20, '4'), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got, ver, ok := r.GetVersion("a"); !ok || ver != 5 || string(got) != string(body(10, '5')) {
		t.Fatalf("recovered %q at version %d, %v; want the version-5 body", got, ver, ok)
	}
	if r.Len() != 1 || r.Bytes() != 10 {
		t.Fatalf("Len=%d Bytes=%d, want 1/10", r.Len(), r.Bytes())
	}
	if _, err := os.Stat(r.fileOf("a", 4)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the lower version's file survived: %v", err)
	}
}

// TestOpenRemovesUnversionedBodies: a body file named as before versions
// were (<base64 id>.body) cannot say which version it holds, so Open
// removes it rather than serve it under one.
func TestOpenRemovesUnversionedBodies(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, base64.RawURLEncoding.EncodeToString([]byte("a"))+bodyExt)
	if err := os.WriteFile(old, body(10, 'a'), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Contains("a") || s.Len() != 0 || s.Bytes() != 0 {
		t.Fatalf("an unversioned body was indexed: Len=%d Bytes=%d", s.Len(), s.Bytes())
	}
	if _, ok := s.Get("a"); ok {
		t.Fatal("an unversioned body was served")
	}
	if _, err := os.Stat(old); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the unversioned file survived: %v", err)
	}
}

func TestReopenShrunkBudgetEvicts(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []core.DocID{"a", "b", "c", "d"} {
		s.Put(d, body(100, byte(d[0])))
	}
	r, err := Open(Config{Dir: dir, BudgetBytes: 250})
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 || r.Bytes() > 250 {
		t.Fatalf("shrunk reopen kept Len=%d Bytes=%d, want 2 docs under 250B", r.Len(), r.Bytes())
	}
}

func TestDeleteAndRepeatPut(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), BudgetBytes: 1000})
	if err != nil {
		t.Fatal(err)
	}
	s.Put("a", body(100, 'a'))
	s.Put("a", body(100, 'a')) // repeat: recency refresh only
	if got := s.StatsSnapshot().Puts; got != 1 {
		t.Fatalf("repeat Put wrote again: puts=%d, want 1", got)
	}
	s.Delete("a")
	if s.Contains("a") || s.Len() != 0 || s.Bytes() != 0 {
		t.Fatal("Delete left residue")
	}
}

// TestEvictedAndDeletedBodiesMissAndClose: a body the budget displaced or
// Delete removed reads as a miss from then on, its file is gone, and the
// descriptor its entry retained is closed rather than left to a finalizer.
func TestEvictedAndDeletedBodiesMissAndClose(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), BudgetBytes: 250})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Put("a", body(100, 'a'))
	s.Put("b", body(100, 'b'))
	fa, fb := heldFile(s, "a"), heldFile(s, "b")
	if fa == nil || fb == nil {
		t.Fatal("Put did not retain its descriptor")
	}
	if evs, _ := s.Put("c", body(100, 'c')); len(evs) != 1 || evs[0].Doc != "a" {
		t.Fatalf("evictions = %+v, want a", evs)
	}
	s.Delete("b")
	wantClosed(t, "evicted a", fa)
	wantClosed(t, "deleted b", fb)
	for _, doc := range []core.DocID{"a", "b"} {
		if _, ok := s.Get(doc); ok {
			t.Fatalf("Get(%s) hit after removal", doc)
		}
		if _, _, ok := s.Peek(doc); ok {
			t.Fatalf("Peek(%s) hit after removal", doc)
		}
		if _, err := os.Stat(s.fileOf(doc, 0)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("body file of %s survived: %v", doc, err)
		}
	}
	if n := openCount(s); n != 1 {
		t.Fatalf("%d descriptors held, want 1 (c)", n)
	}
}

// TestOpenBodiesBounded holds twice maxOpenBodies bodies resident: the
// descriptor count never passes the bound, the holder that gives way is the
// least recently read, and every body reads back intact however often its
// descriptor was given up in between.
func TestOpenBodiesBounded(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 2 * maxOpenBodies
	id := func(i int) core.DocID { return core.DocID(fmt.Sprintf("doc-%d", i)) }
	for i := 0; i < n; i++ {
		if _, ok := s.Put(id(i), body(64, byte(i))); !ok {
			t.Fatalf("Put %d rejected", i)
		}
		if c := openCount(s); c > maxOpenBodies {
			t.Fatalf("%d descriptors after %d Puts, bound %d", c, i+1, maxOpenBodies)
		}
	}
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			got, ok := s.Get(id(i))
			if !ok || string(got) != string(body(64, byte(i))) {
				t.Fatalf("pass %d: doc %d read back %d bytes, ok=%v", pass, i, len(got), ok)
			}
			if c := openCount(s); c > maxOpenBodies {
				t.Fatalf("%d descriptors held, bound %d", c, maxOpenBodies)
			}
		}
	}
	// The last maxOpenBodies documents read hold the descriptors.
	for i := 0; i < n; i++ {
		if held := heldFile(s, id(i)) != nil; held != (i >= n-maxOpenBodies) {
			t.Fatalf("doc %d holds a descriptor: %v", i, held)
		}
	}
	// Reading the oldest holder makes it the newest: the next to give way
	// is the one read after it.
	s.Peek(id(n - maxOpenBodies))
	s.Peek(id(0))
	if heldFile(s, id(n-maxOpenBodies)) == nil || heldFile(s, id(n-maxOpenBodies+1)) != nil {
		t.Fatal("descriptor taken from a holder other than the least recently read")
	}
}

// TestDeleteThenPutNeverReadsOldBytes: a new body put under an id whose old
// body was deleted must not be served from the old body's descriptor.
func TestDeleteThenPutNeverReadsOldBytes(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for v := 0; v < 4; v++ {
		want := body(50+v, byte('0'+v))
		s.Delete("a")
		if _, ok := s.Put("a", want); !ok {
			t.Fatalf("Put v%d rejected", v)
		}
		for _, read := range []func(core.DocID) ([]byte, bool){s.Get, peek(s)} {
			if got, ok := read("a"); !ok || string(got) != string(want) {
				t.Fatalf("v%d read back %q, %v", v, got, ok)
			}
		}
	}
}

// TestFailedPutLeavesNothingBehind: a Put whose rename fails (a non-empty
// directory sits where the body file belongs) reports failure, indexes
// nothing, charges no bytes, holds no descriptor and removes its temp file.
func TestFailedPutLeavesNothingBehind(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := os.MkdirAll(filepath.Join(s.fileOf("a", 0), "blocker"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Put("a", body(10, 'a')); ok {
		t.Fatal("Put reported success though the rename failed")
	}
	if s.Contains("a") || s.Len() != 0 || s.Bytes() != 0 {
		t.Fatalf("failed Put left an entry: Len=%d Bytes=%d", s.Len(), s.Bytes())
	}
	if n := openCount(s); n != 0 {
		t.Fatalf("failed Put holds %d descriptors", n)
	}
	if _, ok := s.Get("a"); ok {
		t.Fatal("Get hit after a failed Put")
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(des) != 1 || !des[0].IsDir() {
		t.Fatalf("failed Put left files behind: %v", des)
	}
}

// TestCloseReleasesEveryDescriptor: Close closes what Put and reads
// retained; afterwards reads miss and Puts fail instead of reopening, and
// the bodies are still there for the next Open.
func TestCloseReleasesEveryDescriptor(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s.Put("a", body(10, 'a'))
	s.Put("b", body(10, 'b'))
	fa, fb := heldFile(s, "a"), heldFile(s, "b")
	s.Close()
	s.Close() // idempotent
	wantClosed(t, "a", fa)
	wantClosed(t, "b", fb)
	if _, ok := s.Get("a"); ok {
		t.Fatal("Get hit on a closed store")
	}
	if _, ok := s.Put("c", body(10, 'c')); ok {
		t.Fatal("Put accepted on a closed store")
	}
	if n := openCount(s); n != 0 {
		t.Fatalf("%d descriptors held after Close", n)
	}
	r, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got, ok := r.Get("b"); !ok || string(got) != string(body(10, 'b')) {
		t.Fatalf("body lost across Close: %q, %v", got, ok)
	}
}

// sameBuffer reports whether a and b share their first byte of backing
// array.
func sameBuffer(a, b []byte) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0]
}

// TestReadIntoReusesTheBuffer: a read into a buffer with room allocates
// nothing and returns that buffer holding the body; a read into one too
// short (or nil) returns a new exact-size buffer and leaves dst alone.
func TestReadIntoReusesTheBuffer(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.PutVersion("a", body(100, 'a'), 3)
	s.PutVersion("b", body(40, 'b'), 1)

	dst := make([]byte, 7, 128)
	for _, read := range []struct {
		name string
		fn   func(core.DocID, []byte) ([]byte, uint64, bool)
	}{{"GetVersionInto", s.GetVersionInto}, {"PeekInto", s.PeekInto}} {
		got, ver, ok := read.fn("a", dst)
		if !ok || ver != 3 || string(got) != string(body(100, 'a')) || !sameBuffer(got, dst) {
			t.Fatalf("%s(a) into 128 bytes = %d bytes at version %d, ok=%v, in dst=%v; want dst holding version 3",
				read.name, len(got), ver, ok, sameBuffer(got, dst))
		}
		if allocs := testing.AllocsPerRun(50, func() { read.fn("b", dst) }); allocs != 0 {
			t.Fatalf("%s into a buffer with room: %v allocs per read, want 0", read.name, allocs)
		}
		short := make([]byte, 0, 99)
		got, _, ok = read.fn("a", short)
		if !ok || len(got) != 100 || cap(got) != 100 || string(got) != string(body(100, 'a')) || len(short) != 0 {
			t.Fatalf("%s(a) into 99 bytes = len %d cap %d, ok=%v; want a new exact-size buffer", read.name, len(got), cap(got), ok)
		}
		if got, _, ok = read.fn("a", nil); !ok || len(got) != 100 {
			t.Fatalf("%s(a) into nil = %d bytes, ok=%v", read.name, len(got), ok)
		}
	}
}

// TestReadIntoMatchesGetVersion drives two stores through the same Puts
// and reads, one reading with GetVersion and Peek, the other with
// GetVersionInto and PeekInto through one reused buffer: every read
// returns the same body, version and verdict, the hit and miss counters
// agree, and so does the eviction order recency left behind.
func TestReadIntoMatchesGetVersion(t *testing.T) {
	open := func() *Store {
		s, err := Open(Config{Dir: t.TempDir(), BudgetBytes: 4 * 64})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}
	fresh, into := open(), open()
	var buf []byte
	id := func(i int) core.DocID { return core.DocID(fmt.Sprintf("d%d", i)) }
	for i := 0; i < 300; i++ {
		d := (i * 5) % 7
		size := 32 + 8*d
		switch i % 3 {
		case 0:
			evA, okA := fresh.PutVersion(id(d), body(size, byte(d)), uint64(i))
			evB, okB := into.PutVersion(id(d), body(size, byte(d)), uint64(i))
			if okA != okB || fmt.Sprint(evA) != fmt.Sprint(evB) {
				t.Fatalf("step %d: Put(%s) = %v %v on one store, %v %v on the other", i, id(d), evA, okA, evB, okB)
			}
		case 1:
			a, va, okA := fresh.GetVersion(id(d))
			b, vb, okB := into.GetVersionInto(id(d), buf)
			if okA != okB || va != vb || string(a) != string(b) {
				t.Fatalf("step %d: GetVersion(%s) = %d bytes v%d %v, GetVersionInto = %d bytes v%d %v",
					i, id(d), len(a), va, okA, len(b), vb, okB)
			}
			if okB {
				buf = b
			}
		case 2:
			a, va, okA := fresh.Peek(id(d))
			b, vb, okB := into.PeekInto(id(d), buf)
			if okA != okB || va != vb || string(a) != string(b) {
				t.Fatalf("step %d: Peek(%s) = %d bytes v%d %v, PeekInto = %d bytes v%d %v",
					i, id(d), len(a), va, okA, len(b), vb, okB)
			}
		}
	}
	a, b := fresh.StatsSnapshot(), into.StatsSnapshot()
	if a != b {
		t.Fatalf("stats diverged:\n read fresh %+v\n read into %+v", a, b)
	}
	if a.Hits == 0 || a.Misses == 0 || a.Evictions == 0 {
		t.Fatalf("the run never hit, missed and evicted: %+v", a)
	}
}

// TestConcurrentAccess runs Get, Peek, Put, Delete and the read-into forms
// over a small id space and a tight budget from several goroutines, each
// reading into a buffer of its own as a server shard does: run under -race
// it pins the locking around the retained descriptors, and a hit must
// always carry the one body its id can have.
func TestConcurrentAccess(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), BudgetBytes: 6 * 128})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const ids = 12
	id := func(i int) core.DocID { return core.DocID(fmt.Sprintf("d%d", i)) }
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var buf []byte
			for i := 0; i < 600; i++ {
				d := (i*7 + g*3) % ids
				switch (i + g) % 6 {
				case 0:
					s.Put(id(d), body(128, byte(d)))
				case 1:
					s.Delete(id(d))
				case 2:
					if got, ok := s.Get(id(d)); ok && string(got) != string(body(128, byte(d))) {
						t.Errorf("Get(%d) returned a foreign or torn body", d)
					}
				case 3:
					if got, _, ok := s.Peek(id(d)); ok && string(got) != string(body(128, byte(d))) {
						t.Errorf("Peek(%d) returned a foreign or torn body", d)
					}
				case 4:
					if got, _, ok := s.GetVersionInto(id(d), buf); ok {
						if buf = got; string(got) != string(body(128, byte(d))) {
							t.Errorf("GetVersionInto(%d) returned a foreign or torn body", d)
						}
					}
				case 5:
					if got, _, ok := s.PeekInto(id(d), buf); ok {
						if buf = got; string(got) != string(body(128, byte(d))) {
							t.Errorf("PeekInto(%d) returned a foreign or torn body", d)
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Bytes() > 6*128 {
		t.Fatalf("budget exceeded: %d bytes", s.Bytes())
	}
}
