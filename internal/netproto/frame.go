// Streaming frame codec with reusable buffers. FrameWriter and FrameReader
// carry their own scratch space so the per-frame cost on a long-lived
// connection is the encode/decode work itself — no payload allocation, no
// envelope boxing beyond what the caller asks for. The envelope pool lets
// transports and servers recycle the remaining per-message allocation
// across connections.
package netproto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// ---------------------------------------------------------------------------
// Pools.

var envPool = sync.Pool{New: func() any { return new(Envelope) }}

// GetEnvelope returns a zeroed Envelope from the shared pool.
func GetEnvelope() *Envelope {
	return envPool.Get().(*Envelope)
}

// PutEnvelope recycles an envelope. The caller must not touch e afterward.
// Every reference field (Body, Stats) is dropped, never reused, so bytes a
// consumer retained from e (for example a cached document body) stay valid.
func PutEnvelope(e *Envelope) {
	if e == nil {
		return
	}
	*e = Envelope{}
	envPool.Put(e)
}

// maxPooledBuf bounds the scratch buffer a FrameWriter or FrameReader keeps
// between frames; one that grew past it (a large document body) is left for
// the GC instead of staying pinned on the connection.
const maxPooledBuf = 64 << 10

// ---------------------------------------------------------------------------
// FrameWriter.

// FrameWriter encodes envelopes onto a stream, reusing one scratch buffer
// across frames. Not safe for concurrent use; transports serialize callers.
type FrameWriter struct {
	w   io.Writer
	buf []byte
}

// NewFrameWriter returns a writer over w.
func NewFrameWriter(w io.Writer) *FrameWriter {
	return &FrameWriter{w: w}
}

// WriteEnvelope encodes env and writes one frame. The frame goes out in a
// single Write call, so an unbuffered destination sees one syscall per
// frame and a buffered one can coalesce many.
func (fw *FrameWriter) WriteEnvelope(env *Envelope) error {
	buf, err := AppendFrameV2(fw.buf[:0], env)
	if err != nil {
		return err
	}
	fw.buf = buf
	if _, err := fw.w.Write(buf); err != nil {
		return fmt.Errorf("netproto: write frame: %w", err)
	}
	if cap(fw.buf) > maxPooledBuf {
		fw.buf = nil // don't pin a giant body buffer on the connection
	}
	return nil
}

// ---------------------------------------------------------------------------
// FrameReader.

// FrameReader decodes length-prefixed frames from a stream into
// caller-supplied envelopes. One payload buffer and one doc-id intern table
// are reused across frames, so steady-state reads of body-less messages do
// not allocate. Not safe for concurrent use.
type FrameReader struct {
	r      io.Reader
	buf    []byte
	intern DocInterner
}

// NewFrameReader returns a reader over r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r}
}

// ReadInto reads one frame and decodes it into env, overwriting every
// field. It returns io.EOF at a clean end of stream.
func (fr *FrameReader) ReadInto(env *Envelope) error {
	if cap(fr.buf) < 4 {
		fr.buf = make([]byte, 0, 4096)
	}
	hdr := fr.buf[:4]
	if _, err := io.ReadFull(fr.r, hdr); err != nil {
		if errors.Is(err, io.EOF) {
			return io.EOF
		}
		return fmt.Errorf("netproto: read header: %w", err)
	}
	size := binary.BigEndian.Uint32(hdr)
	if size > MaxFrame {
		return ErrFrameTooLarge
	}
	if uint32(cap(fr.buf)) < size {
		fr.buf = make([]byte, 0, size)
	}
	payload := fr.buf[:size]
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		return fmt.Errorf("netproto: read payload: %w", err)
	}
	err := DecodePayload(env, payload, &fr.intern)
	if cap(fr.buf) > maxPooledBuf {
		fr.buf = nil // shed oversized scratch after a big body frame
	}
	return err
}
