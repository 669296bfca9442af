// Package diskstore is the server's second cache tier: a byte-budgeted,
// disk-backed store of evicted-but-warm document bodies, plus an
// append-only CRC-framed journal (journal.go) of admissions, drops and
// serve-duty targets. Together they make a node's cache state survive a
// SIGKILL: bodies live one-file-per-document under the store directory,
// named <base64 id>.<version>.body, so a directory scan alone recovers
// which documents are held and at which version; the journal records duty
// only, and replays to the rate each copy carried, which a restarted node
// re-announces through the existing reclaim frames — zero new repair
// protocol.
//
// The store deliberately mirrors cachestore's contract — Put returns the
// evictions it caused, each copy carries its document version and a Put
// never rolls it back, pinning is absent (origin copies are republished
// from config, never from disk) — so the server wires it in as "where
// evicted bodies spill" rather than a new subsystem with its own lifecycle
// rules. Writes are atomic (temp file + rename): one rename makes a body
// and its version durable together, and a crash mid-spill leaves either
// the previous body or none, never a torn one.
//
// Reads are the server's majority serve path once the working set
// outgrows memory, so an entry keeps its file descriptor: Put retains the
// one it wrote through, a body found by the Open scan opens on its first
// read, and every later read is a single pread. GetVersion and Peek read
// into a fresh exact-size buffer the caller keeps; GetVersionInto and
// PeekInto read into a buffer the caller lends and reuses, so a reader
// that only sends the body on allocates nothing. At most maxOpenBodies
// descriptors are held per store.
package diskstore

import (
	"encoding/base64"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"webwave/internal/core"
)

// bodyExt suffixes every body file; anything else in the directory is
// ignored (temp files, stray editor droppings), and a body file whose name
// does not parse is removed by Open.
const bodyExt = ".body"

// Config parameterizes a Store.
type Config struct {
	// Dir is the directory body files live in; created if missing.
	Dir string
	// BudgetBytes bounds the total body bytes held (0 = unlimited). The
	// least-recently-used bodies are deleted to admit new ones.
	BudgetBytes int64
}

// Eviction reports one document displaced by a Put, mirroring
// cachestore.Eviction so callers reuse their teardown plumbing.
type Eviction struct {
	Doc   core.DocID
	Bytes int64
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Docs         int
	Bytes        int64
	Hits, Misses int64
	Puts         int64
	Rejected     int64 // bodies larger than the whole budget
	Evictions    int64
	EvictedBytes int64
}

// maxOpenBodies bounds the descriptors one store retains. Past it the
// least recently read holder closes its descriptor and reopens on its next
// read.
const maxOpenBodies = 256

// The store threads every entry onto two intrusive lists (head = most
// recent).
const (
	byUse  = iota // every resident body, by last Put or Get: eviction order
	byRead        // bodies holding a descriptor, by last read: who closes next
	numLists
)

// entry is one resident body: its size, its document version, its
// retained descriptor (nil until first read or after giving it up) and its
// list positions.
type entry struct {
	doc   core.DocID
	size  int64
	ver   uint64
	f     *os.File
	links [numLists]struct{ prev, next *entry }
}

// Store is the disk tier. All methods are safe for concurrent use. A read
// holds the store mutex across one pread of a page-cached file.
type Store struct {
	dir    string
	budget int64

	mu         sync.Mutex
	entries    map[core.DocID]*entry
	head, tail [numLists]*entry
	bytes      int64
	open       int  // descriptors held, <= maxOpenBodies
	closed     bool // Close ran: no read or Put may open a descriptor

	hits, misses, puts     int64
	rejected               int64
	evictions, evictedByte int64
}

// Open creates (or reopens) a store over cfg.Dir. Bodies already present
// are indexed by scanning the directory — recovery needs no journal for
// presence or version, only for duty — oldest-modified first, so a budget
// shrink evicts the stalest survivors. Where a crash left two versions of
// one document (between a replacing Put's rename and its removal of the
// old file) the higher is kept. A body file without a version in its name
// was written before versions were and cannot vouch for one: it is removed.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("diskstore: empty dir")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	s := &Store{
		dir:     cfg.Dir,
		budget:  cfg.BudgetBytes,
		entries: make(map[core.DocID]*entry, 64),
	}
	des, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	type found struct {
		entry
		mod int64
	}
	var scan []found
	for _, de := range des {
		doc, ver, ok := parseName(de.Name())
		info, err := de.Info()
		switch {
		case de.IsDir() || !strings.HasSuffix(de.Name(), bodyExt):
		case !ok || err != nil:
			os.Remove(filepath.Join(cfg.Dir, de.Name())) // unversioned, or vanished mid-scan
		default:
			scan = append(scan, found{entry{doc: doc, size: info.Size(), ver: ver}, info.ModTime().UnixNano()})
		}
	}
	sort.Slice(scan, func(i, j int) bool {
		if scan[i].mod != scan[j].mod {
			return scan[i].mod < scan[j].mod
		}
		return scan[i].doc < scan[j].doc
	})
	for _, f := range scan {
		if old := s.entries[f.doc]; old != nil {
			drop := min(old.ver, f.ver)
			os.Remove(s.fileOf(f.doc, drop))
			if drop == f.ver {
				continue
			}
			s.removeEntry(old)
		}
		e := &entry{doc: f.doc, size: f.size, ver: f.ver}
		s.entries[f.doc] = e
		s.pushFront(byUse, e)
		s.bytes += f.size
	}
	s.evictOver(nil) // budget may have shrunk since the last run
	return s, nil
}

// fileOf maps a document version to its body path: URL-safe base64 of the
// id (so arbitrary ids — slashes, dots, bytes — round-trip through one flat
// directory, and the name's only dots are the separators), then the
// version in decimal.
func (s *Store) fileOf(doc core.DocID, ver uint64) string {
	return filepath.Join(s.dir, base64.RawURLEncoding.EncodeToString([]byte(doc))+"."+strconv.FormatUint(ver, 10)+bodyExt)
}

// parseName inverts fileOf for directory scans. Only the canonical form
// parses, so each document version has exactly one file name.
func parseName(name string) (core.DocID, uint64, bool) {
	id, ver, ok := strings.Cut(strings.TrimSuffix(name, bodyExt), ".")
	v, err := strconv.ParseUint(ver, 10, 64)
	if !ok || err != nil || strconv.FormatUint(v, 10) != ver {
		return "", 0, false
	}
	raw, err := base64.RawURLEncoding.DecodeString(id)
	if err != nil {
		return "", 0, false
	}
	return core.DocID(raw), v, true
}

// Put stores a body at version 0; see PutVersion.
func (s *Store) Put(doc core.DocID, body []byte) ([]Eviction, bool) {
	return s.PutVersion(doc, body, 0)
}

// PutVersion stores a body at a document version, evicting least-recently-
// used bodies to fit the budget, and reports the evictions. A body larger
// than the whole budget is rejected outright — without first evicting
// every resident body. A Put at the resident version only refreshes
// recency (a version's body never changes), costing no write; one below it
// is refused, so nothing rolls a document back. One above it replaces the
// resident body: the old version is gone whether or not the new one fits.
func (s *Store) PutVersion(doc core.DocID, body []byte, ver uint64) ([]Eviction, bool) {
	size := int64(len(body))
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false
	}
	if old := s.entries[doc]; old != nil {
		if ver <= old.ver {
			if ver == old.ver {
				s.touch(byUse, old)
			}
			return nil, ver == old.ver
		}
		// Its file goes last: a crash before then leaves both versions, and
		// Open keeps the newer.
		s.removeEntry(old)
		defer os.Remove(s.fileOf(doc, old.ver))
	}
	if s.budget > 0 && size > s.budget {
		s.rejected++
		return nil, false
	}
	var evs []Eviction
	if s.budget > 0 {
		evs = s.evictOver(&size)
	}
	// Atomic publish: write to a temp file in the same directory, then
	// rename over the final name. A crash between the two leaves no file —
	// the document is simply not resident at that version on recovery. The
	// descriptor survives the rename and serves the entry's reads.
	tmp, err := os.CreateTemp(s.dir, "put-*")
	if err != nil {
		return evs, false
	}
	if _, err = tmp.Write(body); err == nil {
		err = os.Rename(tmp.Name(), s.fileOf(doc, ver))
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return evs, false
	}
	e := &entry{doc: doc, size: size, ver: ver}
	s.entries[doc] = e
	s.pushFront(byUse, e)
	s.retain(e, tmp)
	s.bytes += size
	s.puts++
	return evs, true
}

// evictOver deletes LRU bodies until the store fits the budget (plus
// `incoming` bytes about to be admitted, when non-nil), returning what it
// displaced. Caller holds the mutex.
func (s *Store) evictOver(incoming *int64) []Eviction {
	if s.budget <= 0 {
		return nil
	}
	need := s.bytes
	if incoming != nil {
		need += *incoming
	}
	var evs []Eviction
	for need > s.budget && s.tail[byUse] != nil {
		victim := s.tail[byUse]
		s.removeEntry(victim)
		os.Remove(s.fileOf(victim.doc, victim.ver))
		need -= victim.size
		s.evictions++
		s.evictedByte += victim.size
		evs = append(evs, Eviction{Doc: victim.doc, Bytes: victim.size})
	}
	return evs
}

// Get is GetVersion without the version.
func (s *Store) Get(doc core.DocID) ([]byte, bool) {
	body, _, ok := s.GetVersion(doc)
	return body, ok
}

// GetVersion reads a body and its version into a new buffer; see
// GetVersionInto.
func (s *Store) GetVersion(doc core.DocID) ([]byte, uint64, bool) {
	return s.GetVersionInto(doc, nil)
}

// GetVersionInto reads a body and its version into dst, refreshing its
// recency, and returns dst resliced to the body — or a new buffer when dst
// is nil or too short for it. A missing or unreadable file drops the stale
// index entry and reports a miss.
func (s *Store) GetVersionInto(doc core.DocID, dst []byte) ([]byte, uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	body, e := s.read(doc, dst)
	if e == nil {
		s.misses++
		return nil, 0, false
	}
	s.touch(byUse, e)
	s.hits++
	return body, e.ver, true
}

// Peek reads a body and its version into a new buffer; see PeekInto.
func (s *Store) Peek(doc core.DocID) ([]byte, uint64, bool) {
	return s.PeekInto(doc, nil)
}

// PeekInto is GetVersionInto without touching recency or hit counters —
// copy transfers (delegation bodies, recovery) are not demand.
func (s *Store) PeekInto(doc core.DocID, dst []byte) ([]byte, uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	body, e := s.read(doc, dst)
	if e == nil {
		return nil, 0, false
	}
	return body, e.ver, true
}

// read returns doc's body, read into dst when it has the capacity (else
// into a new exact-size buffer), and its entry, or a nil entry on a miss:
// one pread on the retained descriptor, opened first if the entry holds
// none. An entry whose file cannot be opened or read in full is dropped.
// Caller holds the mutex.
func (s *Store) read(doc core.DocID, dst []byte) ([]byte, *entry) {
	e := s.entries[doc]
	if e == nil || s.closed {
		return nil, nil
	}
	if e.f != nil {
		s.touch(byRead, e)
	} else if f, err := os.Open(s.fileOf(doc, e.ver)); err == nil {
		s.retain(e, f)
	} else {
		s.removeEntry(e)
		return nil, nil
	}
	var body []byte
	if dst != nil && int64(cap(dst)) >= e.size {
		body = dst[:e.size]
	} else {
		body = make([]byte, e.size) // never nil: an empty body is still a body
	}
	if _, err := e.f.ReadAt(body, 0); err != nil {
		s.removeEntry(e)
		return nil, nil
	}
	return body, e
}

// retain hands e the open descriptor f as the most recently read holder;
// past the bound the least recently read holder gives its own up. Caller
// holds the mutex.
func (s *Store) retain(e *entry, f *os.File) {
	e.f = f
	s.pushFront(byRead, e)
	s.open++
	if s.open > maxOpenBodies {
		s.release(s.tail[byRead])
	}
}

// release closes e's descriptor. Caller holds the mutex.
func (s *Store) release(e *entry) {
	e.f.Close()
	e.f = nil
	s.unlink(byRead, e)
	s.open--
}

// Close releases every retained descriptor. The bodies stay on disk for
// the next Open; reads and Puts on a closed store miss and fail.
func (s *Store) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	for s.tail[byRead] != nil {
		s.release(s.tail[byRead])
	}
}

// Contains reports residency without touching recency.
func (s *Store) Contains(doc core.DocID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.entries[doc] != nil
}

// Version reports the resident body's version without reading it or
// touching recency.
func (s *Store) Version(doc core.DocID) (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.entries[doc]; e != nil {
		return e.ver, true
	}
	return 0, false
}

// Delete removes a body (no-op when absent).
func (s *Store) Delete(doc core.DocID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.entries[doc]; e != nil {
		s.removeEntry(e)
		os.Remove(s.fileOf(doc, e.ver))
	}
}

// Len returns the resident document count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Bytes returns the resident body bytes.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Budget returns the configured byte budget (0 = unlimited).
func (s *Store) Budget() int64 { return s.budget }

// StatsSnapshot returns current counters.
func (s *Store) StatsSnapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Docs: len(s.entries), Bytes: s.bytes,
		Hits: s.hits, Misses: s.misses, Puts: s.puts,
		Rejected:  s.rejected,
		Evictions: s.evictions, EvictedBytes: s.evictedByte,
	}
}

// Intrusive list plumbing (caller holds the mutex).

func (s *Store) pushFront(l int, e *entry) {
	e.links[l].prev, e.links[l].next = nil, s.head[l]
	if s.head[l] != nil {
		s.head[l].links[l].prev = e
	}
	s.head[l] = e
	if s.tail[l] == nil {
		s.tail[l] = e
	}
}

func (s *Store) unlink(l int, e *entry) {
	prev, next := e.links[l].prev, e.links[l].next
	if prev != nil {
		prev.links[l].next = next
	} else {
		s.head[l] = next
	}
	if next != nil {
		next.links[l].prev = prev
	} else {
		s.tail[l] = prev
	}
	e.links[l].prev, e.links[l].next = nil, nil
}

func (s *Store) touch(l int, e *entry) {
	if s.head[l] == e {
		return
	}
	s.unlink(l, e)
	s.pushFront(l, e)
}

// removeEntry drops e from the index, closing its descriptor first so the
// caller's os.Remove unlinks a file nothing holds open.
func (s *Store) removeEntry(e *entry) {
	if e.f != nil {
		s.release(e)
	}
	s.unlink(byUse, e)
	delete(s.entries, e.doc)
	s.bytes -= e.size
}
