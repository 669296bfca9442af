package netproto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"unicode/utf8"

	"webwave/internal/core"
)

// v1 JSON frames exactly as the retired JSON codec wrote them. Nothing sends
// them any more; they stay in the corpus as inputs the decoder must reject.
var jsonSeeds = [][]byte{
	rawFrame([]byte(`{"v":1,"kind":"gossip","from":1,"to":0,"load":2.5}`)),
	rawFrame([]byte(`{"v":1,"kind":"request","from":-1,"to":3,"doc":"d","origin":3,"req_id":8,"min_version":42}`)),
	rawFrame([]byte(`{"v":1,"kind":"tunnel_fetch","from":6,"to":0,"doc":"d","min_version":7}`)),
}

// FuzzReadFrame feeds arbitrary bytes to the frame decoder: it must never
// panic or over-allocate, only return an envelope or an error, and it must
// reject every payload that does not start with the v2 magic byte.
func FuzzReadFrame(f *testing.F) {
	// Seed corpus: a JSON frame, the same frame truncated, an oversized
	// header, garbage, and raw noise.
	f.Add(jsonSeeds[0])
	f.Add(jsonSeeds[0][:len(jsonSeeds[0])-2])
	f.Add(binary.BigEndian.AppendUint32(nil, MaxFrame+1))
	f.Add([]byte("\x00\x00\x00\x05notjs"))
	f.Add([]byte{0xff, 0xfe, 0x00})
	// Binary v2 seeds: a valid frame, its truncation, and a corrupt kind.
	binFrame, err := AppendFrameV2(nil, &Envelope{
		Kind: TypeRequest, From: -1, To: 3, Origin: 3, ReqID: 7, Doc: "d",
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), binFrame...))
	f.Add(append([]byte(nil), binFrame[:len(binFrame)-2]...))
	corrupt := append([]byte(nil), binFrame...)
	corrupt[5] = 0xEE // kind code byte
	f.Add(corrupt)
	// Session-token seed: a MinVersion-bearing request (the trailing-uvarint
	// layout) beside its JSON form.
	f.Add(jsonSeeds[1])
	v2Frame, err := AppendFrameV2(nil, &Envelope{
		Kind: TypeRequest, From: -1, To: 3, Origin: 3, ReqID: 8, Doc: "d", MinVersion: 42,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v2Frame)
	f.Add(v2Frame[:len(v2Frame)-1]) // trailing MinVersion truncated away
	// Retired tunnel frames as an older node wrote them, beside the JSON
	// form: tunnel_fetch (code 7, the delegate-family layout plus a
	// trailing MinVersion) and tunnel_reply (code 8, the plain layout).
	// The decoder must reject both.
	f.Add(jsonSeeds[2])
	family, err := AppendFrameV2(nil, &Envelope{Kind: TypeDelegate, From: 6, To: 0, Doc: "d"})
	if err != nil {
		f.Fatal(err)
	}
	fetch := binary.AppendUvarint(append([]byte(nil), family...), 7)
	binary.BigEndian.PutUint32(fetch, uint32(len(fetch)-4))
	fetch[5] = 7
	f.Add(fetch)
	reply := append([]byte(nil), family...)
	reply[5] = 8
	f.Add(reply)
	// A claim (code 20, the delegate-family layout) and its truncation.
	claim, err := AppendFrameV2(nil, &Envelope{Kind: TypeClaim, From: 6, To: 0, Doc: "d", Rate: 2.5})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(claim)
	f.Add(claim[:len(claim)-3])

	f.Fuzz(func(t *testing.T, data []byte) {
		env := GetEnvelope()
		defer PutEnvelope(env)
		if err := NewFrameReader(bytes.NewReader(data)).ReadInto(env); err != nil {
			return
		}
		if data[4] != Version2 {
			t.Fatalf("accepted a payload starting with %#x", data[4])
		}
		if code := data[5]; code == 7 || code == 8 {
			t.Fatalf("accepted the retired kind code %d", code)
		}
		// Anything decoded must re-encode.
		if _, err := AppendFrameV2(nil, env); err != nil {
			t.Fatalf("decoded envelope failed to re-encode: %v", err)
		}
	})
}

// FuzzRoundTrip builds an envelope of every kind from fuzzed field values
// and checks decode(encode(env)) == env: the bytes must re-encode
// byte-identically after a decode, and the JSON oracle must reproduce the
// envelope the codec canonicalized (it drops fields its kind layout does
// not carry, so the decode is the canonical form).
func FuzzRoundTrip(f *testing.F) {
	f.Add(int64(-1), int64(3), uint64(7), "doc-1", 2.5, []byte("body"), uint64(3), uint64(9), int64(4), uint64(11), int64(2), false)
	f.Add(int64(6), int64(0), uint64(0), "d", 0.0, []byte(nil), uint64(0), uint64(42), int64(0), uint64(0), int64(0), true)
	f.Fuzz(func(t *testing.T, from, to int64, seq uint64, doc string, rate float64, body []byte, docVer, minVer uint64, origin int64, reqID uint64, hops int64, flag bool) {
		if math.IsNaN(rate) || math.IsInf(rate, 0) {
			rate = 0 // JSON cannot carry non-finite floats
		}
		for code := 1; code < len(codeToKind); code++ {
			kind := codeToKind[code]
			if kind == "" {
				continue // retired code
			}
			env := &Envelope{
				Kind: kind, From: int(from), To: int(to), Seq: seq,
				Load: rate, Doc: core.DocID(doc), Rate: math.Abs(rate),
				Body: body, DocVersion: docVer, MinVersion: minVer,
				Origin: int(origin), ReqID: reqID, Hops: int(hops), NotFound: flag,
			}
			if kind == TypeStatsReply && flag {
				env.Stats = &Stats{Node: int(from), Served: int64(seq)}
			}
			frame, err := AppendFrameV2(nil, env)
			if err != nil {
				if errors.Is(err, ErrFrameTooLarge) {
					continue
				}
				t.Fatalf("%s: AppendFrameV2: %v", kind, err)
			}
			canon := &Envelope{}
			if err := DecodePayload(canon, frame[4:], nil); err != nil {
				t.Fatalf("%s: decode of own encoding failed: %v", kind, err)
			}
			re, err := AppendFrameV2(nil, canon)
			if err != nil {
				t.Fatalf("%s: re-encode: %v", kind, err)
			}
			if !bytes.Equal(frame, re) {
				t.Fatalf("%s: encoding not stable across a decode:\n first %x\nsecond %x", kind, frame, re)
			}
			// JSON leg: marshaling replaces invalid UTF-8 in strings, so
			// only byte-exact-representable docs make a fair comparison.
			if !utf8.ValidString(doc) {
				continue
			}
			fromJSON, err := jsonRoundTrip(canon)
			if err != nil {
				t.Fatalf("%s: json oracle: %v", kind, err)
			}
			sameEnvelope(t, canon, fromJSON)
		}
	})
}
