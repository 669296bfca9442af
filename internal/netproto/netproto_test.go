package netproto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"testing/quick"

	"webwave/internal/core"
)

// writeFrame and readFrame push one envelope through the streaming codec.
func writeFrame(w io.Writer, env *Envelope) error {
	return NewFrameWriter(w).WriteEnvelope(env)
}

func readFrame(r io.Reader) (*Envelope, error) {
	env := &Envelope{}
	if err := NewFrameReader(r).ReadInto(env); err != nil {
		return nil, err
	}
	return env, nil
}

// rawFrame length-prefixes an arbitrary payload.
func rawFrame(payload []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// TestRoundTripAllKinds carries every kind through the streaming
// FrameWriter/FrameReader pair.
func TestRoundTripAllKinds(t *testing.T) {
	for _, env := range allKindEnvelopes() {
		t.Run(string(env.Kind), func(t *testing.T) {
			var buf bytes.Buffer
			if err := writeFrame(&buf, env); err != nil {
				t.Fatalf("write: %v", err)
			}
			got, err := readFrame(&buf)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			sameEnvelope(t, got, env)
		})
	}
}

func TestMultipleFramesSequential(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 10; i++ {
		env := &Envelope{Kind: TypeGossip, From: i, Load: float64(i) * 1.5}
		if err := writeFrame(&buf, env); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		got, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.From != i || got.Load != float64(i)*1.5 {
			t.Errorf("frame %d corrupted: %+v", i, got)
		}
	}
	if _, err := readFrame(&buf); !errors.Is(err, io.EOF) {
		t.Errorf("after drain: %v, want EOF", err)
	}
}

func TestVersionStampedAndChecked(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, &Envelope{Kind: TypeGossip}); err != nil {
		t.Fatal(err)
	}
	frame := append([]byte(nil), buf.Bytes()...)
	if frame[4] != Version2 {
		t.Errorf("first payload byte = %#x, want %#x", frame[4], Version2)
	}
	if _, err := readFrame(&buf); err != nil {
		t.Fatal(err)
	}
	// A frame with the wrong version byte is rejected.
	frame[4] = 3
	if _, err := readFrame(bytes.NewReader(frame)); err == nil {
		t.Error("wrong version accepted")
	}
}

// TestJSONPayloadRejected feeds the reader what protocol v1 put on the wire:
// a '{'-leading payload is a decode error, and the stream stays usable for
// the valid frame behind it.
func TestJSONPayloadRejected(t *testing.T) {
	stream, err := AppendFrameV2(bytes.Clone(jsonSeeds[0]), &Envelope{Kind: TypeGossip, From: 7})
	if err != nil {
		t.Fatal(err)
	}
	r := NewFrameReader(bytes.NewReader(stream))
	env := &Envelope{}
	if err := r.ReadInto(env); err == nil {
		t.Fatalf("JSON payload accepted: %+v", env)
	}
	if err := r.ReadInto(env); err != nil || env.From != 7 {
		t.Errorf("frame after the rejected one: %+v, %v", env, err)
	}
	for _, payload := range []string{"{", "{}", `{"kind":"gossip"}`, "[", "\x01\x01"} {
		if err := DecodePayload(env, []byte(payload), nil); err == nil {
			t.Errorf("payload %q accepted", payload)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	if err := (&Envelope{}).Validate(); err == nil {
		t.Error("missing kind accepted")
	}
	if err := (&Envelope{Kind: TypeShed, Rate: -1}).Validate(); err == nil {
		t.Error("negative rate accepted")
	}
	if err := (&Envelope{Kind: TypeGossip}).Validate(); err != nil {
		t.Errorf("valid envelope rejected: %v", err)
	}
}

func TestOversizedFrameRejectedOnWrite(t *testing.T) {
	env := &Envelope{Kind: TypeDelegate, Body: make([]byte, MaxFrame)}
	var buf bytes.Buffer
	if err := writeFrame(&buf, env); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized write error = %v", err)
	}
}

func TestOversizedFrameRejectedOnRead(t *testing.T) {
	hdr := binary.BigEndian.AppendUint32(nil, MaxFrame+1)
	if _, err := readFrame(bytes.NewReader(hdr)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized read error = %v", err)
	}
}

func TestTruncatedFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, &Envelope{Kind: TypeGossip}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()[:buf.Len()-3] // cut payload short
	if _, err := readFrame(bytes.NewReader(raw)); err == nil {
		t.Error("truncated frame accepted")
	}
}

func TestGarbagePayload(t *testing.T) {
	if _, err := readFrame(bytes.NewReader(rawFrame([]byte("this is not a frame")))); err == nil {
		t.Error("garbage payload accepted")
	}
}

// Property: arbitrary gossip/delegate envelopes survive a round trip.
func TestQuickRoundTrip(t *testing.T) {
	f := func(from, to int16, rate float64, doc string, body []byte) bool {
		if rate < 0 {
			rate = -rate
		}
		if rate != rate { // NaN
			rate = 0
		}
		env := &Envelope{
			Kind: TypeDelegate, From: int(from), To: int(to),
			Doc: core.DocID(doc), Rate: rate, Body: body,
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, env); err != nil {
			return false
		}
		got, err := readFrame(&buf)
		if err != nil {
			return false
		}
		return got.From == env.From && got.To == env.To &&
			got.Doc == env.Doc && got.Rate == env.Rate &&
			bytes.Equal(got.Body, env.Body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
