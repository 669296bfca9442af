package diskstore

// The journal is an append-only log of the node's duty: a document was
// admitted (either tier), dropped entirely, or had its serve-duty target
// move. Replayed on restart, it reconstructs which documents the node held
// and how much duty each carried — the state a warm node re-announces
// upstream as reclaim frames. Versions are not journaled: each body file
// names its own (diskstore.go).
//
// Frame layout (little-endian):
//
//	[4B payload length][4B CRC32-IEEE of payload][payload]
//	payload = [1B op][8B rate as float64 bits][doc id bytes]
//
// Recovery reads frames until the file ends or a frame fails validation
// (short header, short payload, CRC mismatch, absurd length). Everything
// from the first bad byte on is a torn tail — the single write a SIGKILL
// interrupted — and is truncated away; replay keeps the valid prefix and
// the node starts. A torn journal never refuses recovery.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"webwave/internal/core"
)

// Op discriminates journal records.
type Op uint8

const (
	// OpAdmit records that the node accepted a copy of Doc (memory or
	// disk tier) and the duty rate known at that instant.
	OpAdmit Op = 1
	// OpDrop records that the node no longer holds Doc in any tier; its
	// residual duty was hinted upstream.
	OpDrop Op = 2
	// OpTarget records a change to Doc's serve-duty target.
	OpTarget Op = 3
	// Op 4 carried a copy's version in journals written before body files
	// named their version; replay skips it like any unknown op.
)

// DocState is the replayed per-document state: the last known duty rate.
type DocState struct {
	Rate float64
}

// maxFrame bounds a frame's payload; document ids are short, so anything
// larger marks a corrupt length field, not a real record.
const maxFrame = 1 << 20

// defaultSyncEvery rate-limits fsync: appends land in the page cache
// immediately (surviving a process kill), and MaybeSync pushes them to
// the platter at most this often (surviving a power cut). JournalLag
// reports the records in between.
const defaultSyncEvery = 100 * time.Millisecond

// Journal is the append side. Safe for concurrent use.
type Journal struct {
	mu        sync.Mutex
	f         *os.File
	path      string
	replayed  int64 // valid bytes found at open
	unsynced  int64
	appended  int64
	lastSync  time.Time // on MaybeSync's clock; zero after an open, a Sync or a Compact
	syncEvery time.Duration
	buf       []byte // reused frame-encoding scratch
}

// OpenJournal replays the journal at path (creating it if missing),
// truncates any torn tail, and returns the journal opened for append
// alongside the replayed state: each held document mapped to its last
// known duty rate. Records for documents later dropped are absent.
func OpenJournal(path string) (*Journal, map[core.DocID]DocState, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("diskstore: journal: %w", err)
	}
	state, valid, err := replay(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("diskstore: journal replay: %w", err)
	}
	// Everything past the last valid frame is a torn tail: truncate and
	// continue. (Truncating to the current size is a no-op.)
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("diskstore: journal truncate: %w", err)
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("diskstore: journal seek: %w", err)
	}
	j := &Journal{f: f, path: path, replayed: valid, syncEvery: defaultSyncEvery}
	return j, state, nil
}

// replay scans frames from the start of f, folding them into the
// presence/duty state, and returns the byte offset just past the last
// valid frame. I/O errors other than a clean or torn end are returned.
func replay(f *os.File) (map[core.DocID]DocState, int64, error) {
	state := make(map[core.DocID]DocState, 64)
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, err
	}
	var off int64
	hdr := make([]byte, 8)
	payload := make([]byte, 0, 256)
	for {
		if _, err := io.ReadFull(f, hdr); err != nil {
			return state, off, nil // clean EOF or torn header: stop here
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if n < 9 || n > maxFrame {
			return state, off, nil // corrupt length: torn tail
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(f, payload); err != nil {
			return state, off, nil // torn payload
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return state, off, nil // corrupt frame
		}
		rate := math.Float64frombits(binary.LittleEndian.Uint64(payload[1:9]))
		applyRecord(state, Op(payload[0]), core.DocID(payload[9:]), rate)
		off += int64(8 + n)
	}
}

// applyRecord folds one record into the presence/duty state. Unknown ops
// are skipped, so journals written by newer code replay under older code.
func applyRecord(state map[core.DocID]DocState, op Op, doc core.DocID, rate float64) {
	switch op {
	case OpAdmit:
		state[doc] = DocState{Rate: rate}
	case OpDrop:
		delete(state, doc)
	case OpTarget:
		// A target for a document never admitted (or already dropped) is
		// stale noise from a reordered teardown; it must not resurrect the
		// document.
		if _, held := state[doc]; held {
			state[doc] = DocState{Rate: rate}
		}
	}
}

// Append writes one record. The write lands in the OS page cache
// immediately; MaybeSync/Sync control when it reaches stable storage.
func (j *Journal) Append(op Op, doc core.DocID, rate float64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("diskstore: journal closed")
	}
	j.buf = appendFrame(j.buf[:0], op, doc, rate)
	if _, err := j.f.Write(j.buf); err != nil {
		return err
	}
	j.unsynced++
	j.appended++
	return nil
}

// appendFrame encodes one record onto buf.
func appendFrame(buf []byte, op Op, doc core.DocID, rate float64) []byte {
	n := 9 + len(doc)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	crcAt := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, 0) // CRC patched below
	payloadAt := len(buf)
	buf = append(buf, byte(op))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(rate))
	buf = append(buf, doc...)
	binary.LittleEndian.PutUint32(buf[crcAt:], crc32.ChecksumIEEE(buf[payloadAt:]))
	return buf
}

// Sync pushes appended records to stable storage and zeroes the lag.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.syncLocked()
}

func (j *Journal) syncLocked() error {
	if j.f == nil {
		return nil
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.unsynced = 0
	j.lastSync = time.Time{}
	return nil
}

// MaybeSync syncs when records are pending and the sync interval has
// elapsed — the periodic-tick entry point, cheap to call often. The
// interval is measured on the caller's clock alone: it runs from the last
// sync MaybeSync made, or from its first call after an open, a Sync or a
// Compact.
func (j *Journal) MaybeSync(now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.lastSync.IsZero() {
		j.lastSync = now
	}
	if j.unsynced > 0 && now.Sub(j.lastSync) >= j.syncEvery && j.syncLocked() == nil {
		j.lastSync = now
	}
}

// Lag returns the records appended since the last sync — what a power
// cut (not a process kill) could lose. Exported as the journal_lag stat.
func (j *Journal) Lag() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.unsynced
}

// Appended returns the lifetime record count (compaction resets it).
func (j *Journal) Appended() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appended
}

// Compact rewrites the journal as one OpAdmit per live document —
// typically run right after recovery, so journals stay proportional to the
// held set instead of growing across restarts. The rewrite is atomic (temp
// file + rename); a crash mid-compaction leaves the old journal. An empty
// journal compacted to an empty state is already compact and is left
// alone, so a node's first start pays no rewrite; a journal whose records
// cancelled out is not empty and is rewritten.
func (j *Journal) Compact(state map[core.DocID]DocState) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("diskstore: journal closed")
	}
	if j.replayed == 0 && j.appended == 0 && len(state) == 0 {
		return nil
	}
	tmp, err := os.CreateTemp(filepath.Dir(j.path), filepath.Base(j.path)+".compact-*")
	if err != nil {
		return err
	}
	var buf []byte
	for doc, st := range state {
		buf = appendFrame(buf[:0], OpAdmit, doc, st.Rate)
		if _, err := tmp.Write(buf); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return err
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	old := j.f
	f, err := os.OpenFile(j.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	old.Close()
	j.f = f
	j.unsynced = 0
	j.appended = int64(len(state))
	j.lastSync = time.Time{}
	return nil
}

// Close syncs and closes the journal. Further appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.syncLocked()
	cerr := j.f.Close()
	j.f = nil
	if err != nil {
		return err
	}
	return cerr
}
