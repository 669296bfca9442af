// Binary wire codec (protocol v2), the only payload format.
//
// A frame is a 4-byte big-endian length prefix (bounded by MaxFrame)
// followed by the payload:
//
//	payload := magic(0x02) kind(1B) from(varint) to(varint) seq(uvarint) <kind fields>
//
// Integers use encoding/binary varints (zigzag for signed), floats are
// 8-byte little-endian IEEE 754, and strings/bytes are uvarint
// length-prefixed. A payload that does not start with the magic byte is a
// decode error. High-frequency kinds (gossip, request, response) encode and
// decode without allocating; the rare stats_reply embeds its Stats as a
// JSON blob rather than growing the binary schema.
package netproto

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"webwave/internal/core"
)

// Version2 is the binary protocol version; it doubles as the magic first
// byte of every payload.
const Version2 = 2

// ErrShortPayload reports a v2 payload that ended mid-field.
var ErrShortPayload = errors.New("netproto: truncated binary payload")

// kind codes: the byte each Type travels as in a v2 frame. 0 is reserved so
// a zeroed buffer never decodes as a valid kind. Retired codes stay
// unassigned, so a frame from an older node is rejected rather than
// misread: 3 carried delegate_ack, 7 and 8 tunnel_fetch and tunnel_reply,
// 16 and 17 the promote/demote frames.
var kindToCode = map[Type]byte{
	TypeGossip:     1,
	TypeDelegate:   2,
	TypeShed:       4,
	TypeRequest:    5,
	TypeResponse:   6,
	TypeStatsQuery: 9,
	TypeStatsReply: 10,
	TypeShutdown:   11,
	TypeEvict:      12,
	TypePing:       13,
	TypePong:       14,
	TypeReclaim:    15,
	TypeRepublish:  18,
	TypeInvalidate: 19,
	TypeClaim:      20,
}

var codeToKind = [21]Type{
	1: TypeGossip, 2: TypeDelegate, 4: TypeShed,
	5: TypeRequest, 6: TypeResponse,
	9: TypeStatsQuery, 10: TypeStatsReply, 11: TypeShutdown, 12: TypeEvict,
	13: TypePing, 14: TypePong, 15: TypeReclaim,
	18: TypeRepublish, 19: TypeInvalidate, 20: TypeClaim,
}

// DocInterner de-duplicates document-id strings seen by a decoder so the
// steady-state hot path (the same few hot documents over and over) converts
// payload bytes to core.DocID without allocating. A lookup with a []byte
// key compiles to a no-alloc map access; only the first sighting of each id
// copies the bytes. The table is bounded: past maxInterned distinct ids it
// is dropped and rebuilt, trading a few re-allocations for a memory cap.
type DocInterner struct {
	m map[string]core.DocID
}

const maxInterned = 4096

// Intern returns b as a DocID, reusing a previously interned copy when one
// exists. A nil receiver degrades to a plain allocating conversion.
func (di *DocInterner) Intern(b []byte) core.DocID {
	if len(b) == 0 {
		return ""
	}
	if di == nil {
		return core.DocID(b)
	}
	if id, ok := di.m[string(b)]; ok {
		return id
	}
	if di.m == nil || len(di.m) >= maxInterned {
		di.m = make(map[string]core.DocID, 64)
	}
	id := core.DocID(b)
	di.m[string(id)] = id
	return id
}

// AppendEnvelopeV2 appends env's v2 payload (magic byte onward, no length
// prefix) to dst and returns the extended slice. It allocates only when dst
// lacks capacity.
func AppendEnvelopeV2(dst []byte, env *Envelope) ([]byte, error) {
	code, ok := kindToCode[env.Kind]
	if !ok {
		return dst, fmt.Errorf("netproto: kind %q has no binary encoding", env.Kind)
	}
	dst = append(dst, Version2, code)
	dst = binary.AppendVarint(dst, int64(env.From))
	dst = binary.AppendVarint(dst, int64(env.To))
	dst = binary.AppendUvarint(dst, env.Seq)
	switch env.Kind {
	case TypeGossip:
		dst = appendFloat(dst, env.Load)
	case TypeRequest:
		dst = binary.AppendVarint(dst, int64(env.Origin))
		dst = binary.AppendUvarint(dst, env.ReqID)
		dst = binary.AppendUvarint(dst, uint64(env.Hops))
		dst = appendString(dst, string(env.Doc))
		dst = binary.AppendUvarint(dst, env.MinVersion)
	case TypeResponse:
		dst = binary.AppendVarint(dst, int64(env.Origin))
		dst = binary.AppendUvarint(dst, env.ReqID)
		dst = binary.AppendVarint(dst, int64(env.ServedBy))
		dst = binary.AppendUvarint(dst, uint64(env.Hops))
		var flags byte
		if env.NotFound {
			flags |= 1
		}
		dst = append(dst, flags)
		dst = appendString(dst, string(env.Doc))
		dst = appendBytes(dst, env.Body)
		dst = binary.AppendUvarint(dst, env.DocVersion)
	case TypeDelegate, TypeShed, TypeEvict, TypeReclaim, TypeClaim, TypeRepublish, TypeInvalidate:
		dst = appendString(dst, string(env.Doc))
		dst = appendFloat(dst, env.Rate)
		dst = appendBytes(dst, env.Body)
		dst = binary.AppendUvarint(dst, env.DocVersion)
	case TypeStatsQuery, TypeShutdown, TypePing, TypePong:
		// Header only.
	case TypeStatsReply:
		if env.Stats == nil {
			dst = append(dst, 0)
		} else {
			dst = append(dst, 1)
			blob, err := json.Marshal(env.Stats) // rare path; JSON blob, not binary schema
			if err != nil {
				return dst, fmt.Errorf("netproto: marshal stats: %w", err)
			}
			dst = appendBytes(dst, blob)
		}
	}
	return dst, nil
}

// AppendFrameV2 appends a complete v2 frame (length prefix + payload) to
// dst. The caller can reuse dst across calls for allocation-free encoding.
func AppendFrameV2(dst []byte, env *Envelope) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length backpatched below
	dst, err := AppendEnvelopeV2(dst, env)
	if err != nil {
		return dst[:start], err
	}
	size := len(dst) - start - 4
	if size > MaxFrame {
		return dst[:start], ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(size))
	return dst, nil
}

// DecodePayload decodes one frame payload (the bytes after the length
// prefix, magic byte onward) into env, overwriting every field. Doc ids are
// interned through in when non-nil. Body bytes are copied into env.Body,
// reusing its capacity when possible — so a caller-owned envelope reused
// across calls decodes without allocating once its Body has grown to the
// working-set size.
func DecodePayload(env *Envelope, payload []byte, in *DocInterner) error {
	if len(payload) > 0 && payload[0] != Version2 {
		return fmt.Errorf("netproto: payload starts with 0x%02x, want 0x%02x", payload[0], Version2)
	}
	if len(payload) < 2 {
		return ErrShortPayload
	}
	code := payload[1]
	if int(code) >= len(codeToKind) || codeToKind[code] == "" {
		return fmt.Errorf("netproto: unknown binary kind code %d", code)
	}
	body := env.Body[:0]
	*env = Envelope{Kind: codeToKind[code]}
	r := byteReader{b: payload, off: 2}
	env.From = int(r.varint())
	env.To = int(r.varint())
	env.Seq = r.uvarint()
	switch env.Kind {
	case TypeGossip:
		env.Load = r.float()
	case TypeRequest:
		env.Origin = int(r.varint())
		env.ReqID = r.uvarint()
		env.Hops = int(r.uvarint())
		env.Doc = in.Intern(r.bytes())
		env.MinVersion = r.uvarint()
	case TypeResponse:
		env.Origin = int(r.varint())
		env.ReqID = r.uvarint()
		env.ServedBy = int(r.varint())
		env.Hops = int(r.uvarint())
		env.NotFound = r.byte()&1 != 0
		env.Doc = in.Intern(r.bytes())
		if b := r.bytes(); len(b) > 0 {
			env.Body = append(body, b...)
		}
		env.DocVersion = r.uvarint()
	case TypeDelegate, TypeShed, TypeEvict, TypeReclaim, TypeClaim, TypeRepublish, TypeInvalidate:
		env.Doc = in.Intern(r.bytes())
		env.Rate = r.float()
		if b := r.bytes(); len(b) > 0 {
			env.Body = append(body, b...)
		}
		env.DocVersion = r.uvarint()
	case TypeStatsQuery, TypeShutdown, TypePing, TypePong:
		// Header only.
	case TypeStatsReply:
		if r.byte() != 0 {
			blob := r.bytes()
			if !r.bad {
				st := &Stats{}
				if err := json.Unmarshal(blob, st); err != nil {
					return fmt.Errorf("netproto: unmarshal stats: %w", err)
				}
				env.Stats = st
			}
		}
	}
	if r.bad {
		return ErrShortPayload
	}
	if r.off != len(payload) {
		return fmt.Errorf("netproto: %d trailing bytes after %s payload", len(payload)-r.off, env.Kind)
	}
	return env.Validate()
}

func appendFloat(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBytes(dst []byte, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// byteReader walks a payload with a sticky error flag so decoders can read
// a whole message and check validity once — no per-field error branches,
// no panics on truncated input.
type byteReader struct {
	b   []byte
	off int
	bad bool
}

func (r *byteReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.off += n
	return v
}

func (r *byteReader) varint() int64 {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.off += n
	return v
}

func (r *byteReader) float() float64 {
	if r.off+8 > len(r.b) {
		r.bad = true
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v
}

func (r *byteReader) byte() byte {
	if r.off >= len(r.b) {
		r.bad = true
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *byteReader) bytes() []byte {
	n := r.uvarint()
	if r.bad {
		return nil
	}
	if n > uint64(len(r.b)-r.off) {
		r.bad = true
		return nil
	}
	v := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return v
}
