package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"time"

	"webwave/internal/core"
)

// ringLen is the length of each closed-loop connection's pre-generated
// request sequence; the connection cycles through it.
const ringLen = 1 << 16

type opKind uint8

const (
	opGet opKind = iota
	opPut
	// opRMW is the floored GET a session issues right after its PUT; it is
	// never scheduled, only recorded.
	opRMW
)

// op is one scheduled open-loop operation.
type op struct {
	At      time.Duration // offset from the start of the load
	Doc     uint16        // index into inputs.DocIDs
	Entry   uint16        // tree node the request enters at
	Kind    opKind
	Session uint8
	Sampled bool // record a span for it when its slice is traced
}

// inputs is everything a run feeds the system, generated from the seed
// before the stack is built. The same spec and seed give the same inputs.
type inputs struct {
	DocIDs  []core.DocID // by popularity rank, hottest first
	Bodies  [][]byte     // version-0 body of DocIDs[i]
	Entries []int        // non-root nodes, where clients enter the tree
	Rings   [][]uint16   // closed loop: one request sequence per entry
	Streams [][]op       // open loop: one Poisson stream per scheduler
	Hash    uint32       // FNV-1a over the ids, rings and streams
}

// docBody is the content of a document version: a deterministic function
// of (doc, version, size), so any response can be checked against the
// version it claims to carry.
func docBody(doc core.DocID, version uint64, size int) []byte {
	h := fnv.New64a()
	h.Write([]byte(doc))
	x := (h.Sum64() ^ (version+1)*0x9E3779B97F4A7C15) | 1
	b := make([]byte, size+8)
	for i := 0; i < size; i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(b[i:], x)
	}
	return b[:size]
}

// checkBody reports whether got is exactly version `version` of the
// document with rank idx.
func (in *inputs) checkBody(idx int, version uint64, got []byte) bool {
	if version == 0 {
		return bytes.Equal(got, in.Bodies[idx])
	}
	return bytes.Equal(got, docBody(in.DocIDs[idx], version, len(in.Bodies[idx])))
}

// bodyVersion finds which version of the document with rank idx got is:
// the one its label claims, or failing that an older one, or one just
// ahead. A response whose body is a real version under the wrong label is
// a defect in the system's bookkeeping, but its content is not corrupt;
// the caller decides what the true version means for the session.
func (in *inputs) bodyVersion(idx int, label uint64, got []byte) (uint64, bool) {
	if in.checkBody(idx, label, got) {
		return label, true
	}
	for v := label; v > 0; v-- {
		if in.checkBody(idx, v-1, got) {
			return v - 1, true
		}
	}
	for v := label + 1; v <= label+4; v++ {
		if in.checkBody(idx, v, got) {
			return v, true
		}
	}
	return 0, false
}

// zipfCDF returns the cumulative distribution over ranks 0..n-1 with
// weight 1/(rank+1)^skew.
func zipfCDF(n int, skew float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for r := range cdf {
		sum += 1 / math.Pow(float64(r+1), skew)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return cdf
}

func sampleRank(cdf []float64, rng *rand.Rand) uint16 {
	return uint16(min(sort.SearchFloat64s(cdf, rng.Float64()), len(cdf)-1))
}

// generate builds a run's inputs. streams is the number of open-loop
// scheduler goroutines; span is how much open-loop time to schedule.
func generate(sp spec, seed int64, streams int, span time.Duration) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{
		DocIDs: make([]core.DocID, sp.Docs),
		Bodies: make([][]byte, sp.Docs),
	}
	// The seed decides which document names are hot, which moves the hot
	// set across the servers' doc-hash shards from run to run.
	for rank, j := range rng.Perm(sp.Docs) {
		in.DocIDs[rank] = core.DocID(fmt.Sprintf("doc-%03d", j))
		in.Bodies[rank] = docBody(in.DocIDs[rank], 0, sp.DocBytes)
	}
	for v := 1; v < sp.Nodes; v++ {
		in.Entries = append(in.Entries, v)
	}
	cdf := zipfCDF(sp.Docs, sp.Zipf)

	h := fnv.New32a()
	for _, id := range in.DocIDs {
		h.Write([]byte(id))
	}
	var word [8]byte
	if sp.closed() {
		for range in.Entries {
			crng := rand.New(rand.NewSource(rng.Int63()))
			ring := make([]uint16, ringLen)
			for i := range ring {
				ring[i] = sampleRank(cdf, crng)
				binary.LittleEndian.PutUint16(word[:], ring[i])
				h.Write(word[:2])
			}
			in.Rings = append(in.Rings, ring)
		}
	} else {
		perStream := sp.Rate / float64(streams)
		for s := 0; s < streams; s++ {
			srng := rand.New(rand.NewSource(rng.Int63()))
			var ops []op
			at := 0.0
			for i := 0; ; i++ {
				at += srng.ExpFloat64() / perStream
				o := op{
					At:      time.Duration(at * float64(time.Second)),
					Doc:     sampleRank(cdf, srng),
					Entry:   uint16(in.Entries[srng.Intn(len(in.Entries))]),
					Sampled: i%spanSample == 0,
				}
				if o.At >= span {
					break
				}
				if sp.Sessions > 0 {
					o.Session = uint8(srng.Intn(sp.Sessions))
				}
				if srng.Float64() < sp.PutFrac {
					o.Kind = opPut
				}
				ops = append(ops, o)
				binary.LittleEndian.PutUint64(word[:], uint64(o.At))
				h.Write(word[:])
				h.Write([]byte{byte(o.Doc), byte(o.Doc >> 8), byte(o.Entry), byte(o.Kind), o.Session})
			}
			in.Streams = append(in.Streams, ops)
		}
	}
	in.Hash = h.Sum32()
	return in
}
