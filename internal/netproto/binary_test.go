package netproto

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"webwave/internal/core"
)

// allKindEnvelopes returns one representative envelope per message kind,
// with every kind-meaningful field set to a non-default value.
func allKindEnvelopes() []*Envelope {
	return []*Envelope{
		{Kind: TypeGossip, From: 1, To: 2, Seq: 9, Load: 123.5},
		{Kind: TypeDelegate, From: 0, To: 3, Seq: 10, Doc: "doc-1", Rate: 42.25, Body: []byte("payload")},
		{Kind: TypeShed, From: 5, To: 1, Doc: "d", Rate: 7},
		{Kind: TypeEvict, From: 5, To: 1, Seq: 11, Doc: "d", Rate: 3.5},
		{Kind: TypeRequest, From: -1, To: 4, Origin: 4, ReqID: 99, Hops: 2, Doc: "d"},
		{Kind: TypeRequest, From: -1, To: 4, Origin: 4, ReqID: 102, Hops: 1, Doc: "d", MinVersion: 5},
		{Kind: TypeResponse, From: 2, To: 4, Origin: 4, ReqID: 99, ServedBy: 2, Hops: 3, Doc: "d", Body: []byte("b")},
		{Kind: TypeResponse, From: 2, To: 4, Origin: 4, ReqID: 100, ServedBy: 0, NotFound: true, Doc: "missing"},
		{Kind: TypeStatsQuery, From: -1, To: 1},
		{Kind: TypeStatsReply, From: 1, Stats: &Stats{
			Node: 1, Load: 55.5, Served: 100, Forwarded: 20,
			CachedDocs:  []core.DocID{"a", "b"},
			Targets:     map[core.DocID]float64{"a": 10},
			FilterStats: FilterStats{Inspected: 120, Extracted: 100, Passed: 20},
			QueueLen:    3, CacheBytes: 77,
		}},
		{Kind: TypeShutdown, From: -1, To: 0},
		{Kind: TypePing, From: 4, To: 1, Seq: 12},
		{Kind: TypePong, From: 1, To: 4, Seq: 13},
		{Kind: TypeReclaim, From: 4, To: 0, Seq: 14, Doc: "d", Rate: 12.5},
		{Kind: TypeClaim, From: 4, To: 0, Seq: 15, Doc: "d", Rate: 3.25},
		{Kind: TypeRepublish, From: 0, To: 5, Seq: 17, Doc: "hot", Body: []byte("v2 body"), DocVersion: 2},
		{Kind: TypeInvalidate, From: 0, To: 5, Seq: 18, Doc: "hot", DocVersion: 7},
		{Kind: TypeResponse, From: 2, To: 4, Origin: 4, ReqID: 101, ServedBy: 2, Hops: 1, Doc: "hot", Body: []byte("v2 body"), DocVersion: 2},
	}
}

// TestAllKindsHaveBinaryEncoding keeps the codec table and the kind list in
// sync: a new Type constant without a v2 code would silently fall back to
// header-only encoding and corrupt the stream.
func TestAllKindsHaveBinaryEncoding(t *testing.T) {
	kinds := []Type{
		TypeGossip, TypeDelegate, TypeShed, TypeRequest,
		TypeResponse, TypeEvict,
		TypeStatsQuery, TypeStatsReply, TypeShutdown, TypePing, TypePong,
		TypeReclaim, TypeClaim, TypeRepublish, TypeInvalidate,
	}
	for _, k := range kinds {
		code, ok := kindToCode[k]
		if !ok {
			t.Errorf("kind %q has no binary code", k)
			continue
		}
		if codeToKind[code] != k {
			t.Errorf("code %d maps to %q, want %q", code, codeToKind[code], k)
		}
	}
}

// sameEnvelope compares two envelopes field by field.
func sameEnvelope(t *testing.T, got, want *Envelope) {
	t.Helper()
	a, b := *got, *want
	// Normalize empty vs nil bodies.
	if len(a.Body) == 0 {
		a.Body = nil
	}
	if len(b.Body) == 0 {
		b.Body = nil
	}
	as, bs := a.Stats, b.Stats
	a.Stats, b.Stats = nil, nil
	if !reflect.DeepEqual(a, b) {
		t.Errorf("envelope mismatch:\n got %+v\nwant %+v", a, b)
	}
	if (as == nil) != (bs == nil) {
		t.Fatalf("stats presence mismatch: %v vs %v", as, bs)
	}
	if as != nil && !reflect.DeepEqual(as, bs) {
		t.Errorf("stats mismatch:\n got %+v\nwant %+v", as, bs)
	}
}

func TestBinaryRoundTripAllKinds(t *testing.T) {
	var in DocInterner
	for _, env := range allKindEnvelopes() {
		t.Run(string(env.Kind), func(t *testing.T) {
			frame, err := AppendFrameV2(nil, env)
			if err != nil {
				t.Fatalf("AppendFrameV2: %v", err)
			}
			got := &Envelope{}
			if err := DecodePayload(got, frame[4:], &in); err != nil {
				t.Fatalf("DecodePayload: %v", err)
			}
			sameEnvelope(t, got, env)
		})
	}
}

// jsonRoundTrip is the codec's independent oracle: env as encoding/json
// carries it through the struct tags.
func jsonRoundTrip(env *Envelope) (*Envelope, error) {
	raw, err := json.Marshal(env)
	if err != nil {
		return nil, err
	}
	out := &Envelope{}
	return out, json.Unmarshal(raw, out)
}

// TestCodecEquivalence requires the binary codec to carry every kind's
// fields exactly as the reference JSON rendering does.
func TestCodecEquivalence(t *testing.T) {
	for _, env := range allKindEnvelopes() {
		t.Run(string(env.Kind), func(t *testing.T) {
			fromJSON, err := jsonRoundTrip(env)
			if err != nil {
				t.Fatalf("json oracle: %v", err)
			}
			binFrame, err := AppendFrameV2(nil, env)
			if err != nil {
				t.Fatalf("AppendFrameV2: %v", err)
			}
			fromBin := &Envelope{}
			if err := DecodePayload(fromBin, binFrame[4:], nil); err != nil {
				t.Fatalf("DecodePayload: %v", err)
			}
			sameEnvelope(t, fromBin, fromJSON)
		})
	}
}

// TestMaxFrameBoundaryBody exercises bodies that land a v2 frame exactly on
// the MaxFrame payload bound, and one byte past it, for both a classic
// delegate frame and a versioned republish frame (whose trailing uvarint
// version shifts the boundary).
func TestMaxFrameBoundaryBody(t *testing.T) {
	for _, kind := range []Type{TypeDelegate, TypeRepublish} {
		t.Run(string(kind), func(t *testing.T) {
			mk := func(bodyLen int) *Envelope {
				return &Envelope{Kind: kind, From: 1, To: 2, Doc: "d", Rate: 1, Body: make([]byte, bodyLen), DocVersion: 300}
			}
			base, err := AppendEnvelopeV2(nil, mk(0))
			if err != nil {
				t.Fatal(err)
			}
			// payload(B) = len(base) - 1 (nil body's 1-byte length) + uvarintLen(B) + B.
			exact := -1
			for b := MaxFrame - len(base) - 8; b <= MaxFrame; b++ {
				n := len(base) - 1 + uvarintLen(uint64(b)) + b
				if n == MaxFrame {
					exact = b
					break
				}
			}
			if exact < 0 {
				t.Fatal("no body length lands exactly on MaxFrame")
			}
			frame, err := AppendFrameV2(nil, mk(exact))
			if err != nil {
				t.Fatalf("exact MaxFrame payload rejected: %v", err)
			}
			if got := len(frame) - 4; got != MaxFrame {
				t.Fatalf("payload = %d bytes, want MaxFrame", got)
			}
			got := GetEnvelope()
			defer PutEnvelope(got)
			if err := DecodePayload(got, frame[4:], nil); err != nil {
				t.Fatalf("decode MaxFrame payload: %v", err)
			}
			if len(got.Body) != exact {
				t.Fatalf("body length %d, want %d", len(got.Body), exact)
			}
			if got.DocVersion != 300 {
				t.Fatalf("doc version %d, want 300", got.DocVersion)
			}
			if _, err := AppendFrameV2(nil, mk(exact+1)); !errors.Is(err, ErrFrameTooLarge) {
				t.Errorf("over-MaxFrame error = %v, want ErrFrameTooLarge", err)
			}
		})
	}
}

func uvarintLen(v uint64) int {
	var tmp [binary.MaxVarintLen64]byte
	return binary.PutUvarint(tmp[:], v)
}

func TestBinaryDecodeRejectsGarbage(t *testing.T) {
	valid, err := AppendEnvelopeV2(nil, &Envelope{Kind: TypeRequest, From: 1, Origin: 1, ReqID: 5, Doc: "doc"})
	if err != nil {
		t.Fatal(err)
	}
	env := &Envelope{}
	// Every truncation of a valid payload must error, never panic.
	for i := 0; i < len(valid); i++ {
		if err := DecodePayload(env, valid[:i], nil); err == nil {
			t.Errorf("truncation at %d accepted", i)
		}
	}
	// Trailing junk is rejected.
	if err := DecodePayload(env, append(append([]byte(nil), valid...), 0xAA), nil); err == nil {
		t.Error("trailing bytes accepted")
	}
	// Unknown kind codes, including the retired 3 (delegate_ack), 7 and 8
	// (tunnel_fetch/tunnel_reply) and 16 and 17 (promote/demote), on an
	// otherwise valid delegate-family payload.
	reclaim, err := AppendEnvelopeV2(nil, &Envelope{Kind: TypeReclaim, From: 4, Doc: "d", Rate: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, code := range []byte{0xEE, 3, 7, 8, 16, 17} {
		bad := append([]byte(nil), reclaim...)
		bad[1] = code
		if err := DecodePayload(env, bad, nil); err == nil {
			t.Errorf("unknown kind code %d accepted", code)
		}
	}
	// A claimed string length far past the payload end.
	bad := []byte{Version2, 5 /* request */, 2, 2, 0 /* from,to,seq */, 2, 10, 0xFF, 0xFF, 0xFF, 0x7F}
	if err := DecodePayload(env, bad, nil); err == nil {
		t.Error("overlong string length accepted")
	}
}

func TestUnknownKindHasNoBinaryEncoding(t *testing.T) {
	if _, err := AppendEnvelopeV2(nil, &Envelope{Kind: "bogus"}); err == nil {
		t.Error("unknown kind encoded")
	}
}

func TestDocInterner(t *testing.T) {
	var in DocInterner
	a := in.Intern([]byte("doc-7"))
	b := in.Intern([]byte("doc-7"))
	if a != b || a != "doc-7" {
		t.Errorf("intern mismatch: %q vs %q", a, b)
	}
	if got := in.Intern(nil); got != "" {
		t.Errorf("empty intern = %q", got)
	}
	var nilIn *DocInterner
	if got := nilIn.Intern([]byte("x")); got != "x" {
		t.Errorf("nil interner = %q", got)
	}
}

// TestHotPathZeroAllocs pins the acceptance criterion: encoding gossip and
// decoding requests on the v2 codec allocate nothing in steady state.
func TestHotPathZeroAllocs(t *testing.T) {
	gossip := &Envelope{Kind: TypeGossip, From: 3, To: 7, Seq: 42, Load: 812.5}
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(200, func() {
		b, err := AppendFrameV2(buf[:0], gossip)
		if err != nil || len(b) == 0 {
			t.Fatal("encode failed")
		}
	}); n != 0 {
		t.Errorf("EncodeGossip allocs/op = %v, want 0", n)
	}

	reqFrame, err := AppendFrameV2(nil, &Envelope{
		Kind: TypeRequest, From: -1, To: 4, Origin: 4, ReqID: 77, Hops: 1, Doc: "hot-doc",
	})
	if err != nil {
		t.Fatal(err)
	}
	var in DocInterner
	env := &Envelope{}
	in.Intern([]byte("hot-doc")) // steady state: the doc id has been seen
	if n := testing.AllocsPerRun(200, func() {
		if err := DecodePayload(env, reqFrame[4:], &in); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("DecodeRequest allocs/op = %v, want 0", n)
	}
}
