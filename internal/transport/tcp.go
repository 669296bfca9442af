package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"webwave/internal/netproto"
)

// TCPNetwork implements Network over real TCP sockets (stdlib net). Use
// addresses like "127.0.0.1:0"; Listener.Addr reports the bound address.
//
// Every connection speaks the binary v2 protocol (pooled frame buffers,
// writes coalesced across concurrent senders before each flush).
type TCPNetwork struct {
	// Version names the wire protocol and selects nothing: it accepts only
	// 0 or netproto.Version2, and Listen and Dial fail on any other value.
	Version int

	// DialTimeout bounds each connect attempt. Without it a dial into a
	// freshly SIGKILLed peer can hang for the kernel's full SYN-retry
	// schedule (minutes), wedging failover hunts behind one dead address.
	// 0 means no timeout (the historical behavior).
	DialTimeout time.Duration

	// BindRetryWait bounds how long Listen retries an "address already in
	// use" failure before giving up. A re-exec'd node reclaiming the
	// address its previous incarnation died holding races the kernel's
	// teardown of the old socket; listeners are opened with SO_REUSEADDR
	// and the bind is retried with backoff inside this budget. 0 means the
	// default 2s; negative disables retrying (one bind attempt).
	BindRetryWait time.Duration
}

func (n TCPNetwork) checkVersion() error {
	if n.Version != 0 && n.Version != netproto.Version2 {
		return fmt.Errorf("transport: tcp wire version %d, want 0 or %d", n.Version, netproto.Version2)
	}
	return nil
}

// Listen implements Network. Listeners are opened with SO_REUSEADDR so a
// restarted process can rebind the address its predecessor's sockets still
// hold in TIME_WAIT, and a bind that races the predecessor's actual
// teardown ("address already in use") is retried with backoff for up to
// BindRetryWait instead of failing the restart.
func (n TCPNetwork) Listen(addr string) (Listener, error) {
	if err := n.checkVersion(); err != nil {
		return nil, err
	}
	lc := net.ListenConfig{Control: reuseAddrControl}
	wait := n.BindRetryWait
	if wait == 0 {
		wait = 2 * time.Second
	}
	b := &Backoff{Base: 25 * time.Millisecond, Cap: 250 * time.Millisecond}
	deadline := time.Now().Add(wait)
	for {
		l, err := lc.Listen(context.Background(), "tcp", addr)
		if err == nil {
			return &tcpListener{l: l}, nil
		}
		if wait <= 0 || !AddrInUse(err) || !time.Now().Before(deadline) {
			return nil, fmt.Errorf("transport: tcp listen %s: %w", addr, err)
		}
		time.Sleep(b.Next())
	}
}

// Dial implements Network.
func (n TCPNetwork) Dial(addr string) (Conn, error) {
	if err := n.checkVersion(); err != nil {
		return nil, err
	}
	var c net.Conn
	var err error
	if n.DialTimeout > 0 {
		c, err = net.DialTimeout("tcp", addr, n.DialTimeout)
	} else {
		c, err = net.Dial("tcp", addr)
	}
	if err != nil {
		return nil, fmt.Errorf("transport: tcp dial %s: %w", addr, err)
	}
	return newTCPConn(c), nil
}

type tcpListener struct {
	l net.Listener
}

func (t *tcpListener) Accept() (Conn, error) {
	c, err := t.l.Accept()
	if err != nil {
		if errors.Is(err, net.ErrClosed) {
			return nil, ErrClosed
		}
		return nil, fmt.Errorf("transport: tcp accept: %w", err)
	}
	return newTCPConn(c), nil
}

func (t *tcpListener) Close() error { return t.l.Close() }

func (t *tcpListener) Addr() string { return t.l.Addr().String() }

type tcpConn struct {
	c  net.Conn
	br *bufio.Reader
	r  *netproto.FrameReader

	wm sync.Mutex
	w  *bufio.Writer
	fw *netproto.FrameWriter
	// senders counts goroutines inside or waiting on Send. The holder of wm
	// flushes only when no one else is about to write — concurrent senders
	// coalesce their frames into one flush (and, under TCP, fewer syscalls
	// and fuller segments) instead of flushing per frame.
	senders atomic.Int32
	// deferred is set (under wm) by SendBuffered and cleared by every flush
	// of w: frames sit in w that Recv must flush before it blocks. Recv
	// reads it without the lock, so nothing deferred costs one atomic load.
	deferred atomic.Bool

	laneMu sync.RWMutex
	lanes  map[int]*tcpLane
}

func newTCPConn(c net.Conn) *tcpConn {
	t := &tcpConn{c: c, br: bufio.NewReader(c)}
	t.r = netproto.NewFrameReader(t.br)
	t.w = bufio.NewWriter(c)
	t.fw = netproto.NewFrameWriter(t.w)
	return t
}

// Send implements Conn. Frames from concurrent senders are batched into a
// shared flush; a lone sender still flushes immediately, so the protocol's
// latency sensitivity is preserved. A flush also carries any frames
// SendBuffered left behind.
func (t *tcpConn) Send(env *netproto.Envelope) error {
	t.senders.Add(1)
	t.wm.Lock()
	err := t.fw.WriteEnvelope(env)
	// Decrement inside the lock: a waiter that has already incremented will
	// take over the flush when it gets the lock. Flush whenever no waiter
	// remains — even after this sender's own encode error — so a failed
	// send never strands an earlier sender's deferred frames in the buffer.
	if pending := t.senders.Add(-1); pending == 0 {
		if ferr := t.flushLocked(); err == nil {
			err = ferr
		}
	}
	t.wm.Unlock()
	if err != nil {
		if errors.Is(err, net.ErrClosed) {
			return ErrClosed
		}
		return fmt.Errorf("transport: tcp send: %w", err)
	}
	return nil
}

// Recv implements Conn. Only one goroutine may call Recv at a time. The
// returned envelope comes from netproto's pool; a caller that fully
// consumes it may release it with netproto.PutEnvelope.
//
// Before reading, Recv flushes the frames SendBuffered left in the write
// buffer, unless a complete inbound frame is already buffered: that read
// cannot block, and the caller is back before any wait. So the replies to
// a pipelined batch of requests leave in one write as long as they fit in
// the 4 KiB write buffer together (see SendBuffered).
func (t *tcpConn) Recv() (*netproto.Envelope, error) {
	if t.deferred.Load() && !t.frameBuffered() {
		_ = t.Flush() // a write error resurfaces on the next Send or Flush
	}
	env := netproto.GetEnvelope()
	if err := t.r.ReadInto(env); err != nil {
		netproto.PutEnvelope(env)
		if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
			return nil, ErrClosed
		}
		return nil, err
	}
	return env, nil
}

// frameBuffered reports whether the read buffer holds a whole frame, so the
// next read will not touch the socket. A frame larger than the buffer never
// counts as whole.
func (t *tcpConn) frameBuffered() bool {
	n := t.br.Buffered()
	if n < 4 {
		return false
	}
	hdr, _ := t.br.Peek(4) // buffered: no read
	return uint64(n-4) >= uint64(binary.BigEndian.Uint32(hdr))
}

func (t *tcpConn) Close() error { return t.c.Close() }

// SendBuffered implements BatchConn: a frame that fits in the 4 KiB write
// buffer's free space is copied there and goes out with the next Send,
// Flush or lane Flush on the connection, at the latest when Recv would
// block. A larger frame is not deferred: into an empty buffer it is written
// straight to the socket; into a non-empty one it is split, its head
// filling the buffer and leaving with it at once, its tail deferred.
// SendBuffered stays out of the senders count — it never flushes on
// purpose, so it must not suppress a concurrent Send's flush.
func (t *tcpConn) SendBuffered(env *netproto.Envelope) error {
	t.wm.Lock()
	err := t.fw.WriteEnvelope(env)
	t.deferred.Store(true)
	t.wm.Unlock()
	if err != nil {
		if errors.Is(err, net.ErrClosed) {
			return ErrClosed
		}
		return fmt.Errorf("transport: tcp send: %w", err)
	}
	return nil
}

// Flush implements BatchConn.
func (t *tcpConn) Flush() error {
	t.wm.Lock()
	err := t.flushLocked()
	t.wm.Unlock()
	if err != nil {
		if errors.Is(err, net.ErrClosed) {
			return ErrClosed
		}
		return fmt.Errorf("transport: tcp flush: %w", err)
	}
	return nil
}

// flushLocked writes w out, deferred frames included. The caller holds wm.
func (t *tcpConn) flushLocked() error {
	t.deferred.Store(false)
	return t.w.Flush()
}

// Lane implements LaneConn: each index gets a private encode buffer whose
// frames reach the socket only on the lane's Flush. Shard loops batching
// onto a shared connection encode concurrently — the connection-wide writer
// lock is held only for the buffer copy at flush time, not per frame.
func (t *tcpConn) Lane(i int) BatchLane {
	t.laneMu.RLock()
	ln := t.lanes[i]
	t.laneMu.RUnlock()
	if ln != nil {
		return ln
	}
	t.laneMu.Lock()
	defer t.laneMu.Unlock()
	if ln = t.lanes[i]; ln != nil {
		return ln
	}
	if t.lanes == nil {
		t.lanes = make(map[int]*tcpLane, 8)
	}
	ln = &tcpLane{t: t}
	t.lanes[i] = ln
	return ln
}

// maxLaneBuf bounds the encode buffer a lane keeps across flushes; a lane
// that ballooned on a burst of large bodies is shrunk instead of pinning
// the memory for the connection's lifetime.
const maxLaneBuf = 256 << 10

// tcpLane is one per-shard flush lane. The mutex is effectively
// uncontended — a lane has a single owning shard — and exists so a lane
// handed to a different goroutine (shard handoff, tests) stays safe.
type tcpLane struct {
	t  *tcpConn
	mu sync.Mutex
	// buf accumulates encoded frames between flushes.
	buf []byte
}

// SendBuffered implements BatchLane: encode straight into the lane's
// private buffer, no connection lock taken. The body is copied once, so a
// lent body may be overwritten as soon as this returns.
func (l *tcpLane) SendBuffered(env *netproto.Envelope) error {
	l.mu.Lock()
	var err error
	l.buf, err = netproto.AppendFrameV2(l.buf, env) // on error, buf is as it was
	l.mu.Unlock()
	if err != nil {
		return fmt.Errorf("transport: tcp lane send: %w", err)
	}
	return nil
}

// Flush implements BatchLane: the buffered frames are copied to the shared
// socket writer and flushed under the connection's writer lock.
func (l *tcpLane) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.buf) == 0 {
		return nil
	}
	t := l.t
	t.wm.Lock()
	_, err := t.w.Write(l.buf)
	if err == nil {
		err = t.flushLocked()
	}
	t.wm.Unlock()
	if cap(l.buf) > maxLaneBuf {
		l.buf = nil
	} else {
		l.buf = l.buf[:0]
	}
	if err != nil {
		if errors.Is(err, net.ErrClosed) {
			return ErrClosed
		}
		return fmt.Errorf("transport: tcp lane flush: %w", err)
	}
	return nil
}

var _ Network = TCPNetwork{}
var _ BatchConn = (*tcpConn)(nil)
var _ LaneConn = (*tcpConn)(nil)
