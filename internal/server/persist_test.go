package server

import (
	"os"
	"path/filepath"
	"testing"

	"webwave/internal/core"
	"webwave/internal/diskstore"
	"webwave/internal/transport"
)

// tearJournalTail appends half a frame to the journal — the torn write a
// SIGKILL leaves behind.
func tearJournalTail(t *testing.T, path string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// A plausible length header with no payload behind it.
	if _, err := f.Write([]byte{0x20, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
}

// forgePreviousLife writes the on-disk remains of a killed node under dir:
// body files for each doc and a journal admitting them at the given rates.
// A rate under docs but absent from rates journals as admit-at-zero.
func forgePreviousLife(t *testing.T, dir string, docs map[core.DocID][]byte, rates map[core.DocID]float64) {
	t.Helper()
	ds, err := diskstore.Open(diskstore.Config{Dir: filepath.Join(dir, "bodies")})
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := diskstore.OpenJournal(filepath.Join(dir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	for doc, body := range docs {
		if _, ok := ds.Put(doc, body); !ok {
			t.Fatalf("forge: body %q rejected", doc)
		}
		if err := j.Append(diskstore.OpAdmit, doc, rates[doc]); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func warmConfig(dir string) Config {
	return Config{
		ID: 7, Addr: "warm-node", ParentID: 0, ParentAddr: "warm-parent",
		Network: transport.NewMemoryNetwork(transport.MemoryOptions{}),
		DataDir: dir, NumShards: 1, CacheShards: 1,
	}
}

// TestNewRecoversWarmStateFromDataDir: New on a data dir left by a killed
// node must come up holding the journaled documents — bodies back in
// memory, filters installed, targets restored — before Start runs at all,
// and must skip journal entries whose body file did not survive.
func TestNewRecoversWarmStateFromDataDir(t *testing.T) {
	dir := t.TempDir()
	forgePreviousLife(t, dir,
		map[core.DocID][]byte{"a": []byte("aaaa"), "b": []byte("bbbb")},
		map[core.DocID]float64{"a": 12, "b": 3})
	// A doc journaled as held whose body the disk tier later dropped:
	// recovery must skip it, not refuse to start.
	j, _, err := diskstore.OpenJournal(filepath.Join(dir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(diskstore.OpAdmit, "ghost", 5); err != nil {
		t.Fatal(err)
	}
	j.Close()

	s, err := New(warmConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	if s.warmDocs != 2 {
		t.Fatalf("warmDocs = %d, want 2", s.warmDocs)
	}
	if !s.cache.Contains("a") || !s.cache.Contains("b") {
		t.Fatalf("recovered bodies not in memory: a=%v b=%v",
			s.cache.Contains("a"), s.cache.Contains("b"))
	}
	if s.cache.Contains("ghost") {
		t.Fatal("bodyless journal entry resurrected")
	}
	if got := s.shardFor("a").state("a").target; got != 12 {
		t.Fatalf("target a = %v, want 12", got)
	}
	if got := s.shardFor("b").state("b").target; got != 3 {
		t.Fatalf("target b = %v, want 3", got)
	}
	// Recovery compacts the journal to one admit per live doc, so journals
	// stay proportional to the held set across restart cycles.
	if n := s.journal.Appended(); n != 2 {
		t.Fatalf("compacted journal holds %d records, want 2", n)
	}
}

// TestRecoveryKeepsOverflowOnDisk: when the recovered set exceeds the
// memory budget the surplus stays disk-resident — still held (filter in,
// holdsCopy true, duty keepable), served via the disk read path.
func TestRecoveryKeepsOverflowOnDisk(t *testing.T) {
	dir := t.TempDir()
	big := make([]byte, 100)
	forgePreviousLife(t, dir,
		map[core.DocID][]byte{"a": big, "b": big, "c": big},
		map[core.DocID]float64{"a": 1, "b": 1, "c": 1})

	cfg := warmConfig(dir)
	cfg.CacheBudgetBytes = 150 // one body fits, three were held
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	if s.warmDocs != 3 {
		t.Fatalf("warmDocs = %d, want 3", s.warmDocs)
	}
	inMem := 0
	for _, doc := range []core.DocID{"a", "b", "c"} {
		if s.cache.Contains(doc) {
			inMem++
		}
		if !s.holdsCopy(doc) {
			t.Fatalf("recovered doc %q not held in any tier", doc)
		}
		if body, _, _, ok := s.shardFor(doc).bodyOf(doc); !ok || len(body) != len(big) {
			t.Fatalf("recovered doc %q unservable: %d bytes, ok=%v", doc, len(body), ok)
		}
	}
	if inMem != 1 {
		t.Fatalf("%d recovered bodies in memory, want 1 under the budget", inMem)
	}
}

// TestTornJournalNeverPreventsStart: a data dir whose journal ends
// mid-frame (the write a SIGKILL interrupted) must still produce a running
// node holding the valid prefix.
func TestTornJournalNeverPreventsStart(t *testing.T) {
	dir := t.TempDir()
	forgePreviousLife(t, dir,
		map[core.DocID][]byte{"a": []byte("aaaa")},
		map[core.DocID]float64{"a": 2})
	tearJournalTail(t, filepath.Join(dir, "journal.wal"))

	s, err := New(warmConfig(dir))
	if err != nil {
		t.Fatalf("torn journal refused start: %v", err)
	}
	defer s.Stop()
	if s.warmDocs != 1 || !s.cache.Contains("a") {
		t.Fatalf("warmDocs=%d contains(a)=%v after torn-tail recovery",
			s.warmDocs, s.cache.Contains("a"))
	}
}
