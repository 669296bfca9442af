// Package transport abstracts the links between live WebWave servers. Two
// implementations are provided: an in-memory network with configurable
// latency, jitter and loss (the default for simulations and tests) and a
// real TCP network on the loopback interface (package net), demonstrating
// that the protocol runs over genuine sockets.
package transport

import (
	"bytes"
	"errors"
	"sync"
	"time"

	"webwave/internal/netproto"
)

// ErrClosed is returned by operations on a closed connection or listener.
var ErrClosed = errors.New("transport: closed")

// ErrUnknownAddr is returned when dialing an address nothing listens on.
var ErrUnknownAddr = errors.New("transport: unknown address")

// Conn is a bidirectional, ordered message link.
type Conn interface {
	// Send transmits one envelope. It is safe for concurrent use; the
	// envelope is copied or serialized before Send returns, so the caller
	// may reuse it. A body marked BodyLent is copied or serialized too, so
	// the caller may overwrite it once Send returns; an unmarked body is
	// immutable and may be handed to the peer as it is.
	Send(env *netproto.Envelope) error
	// Recv blocks for the next envelope. It returns ErrClosed once the
	// connection is closed and drained. The caller owns the returned
	// envelope; callers that fully consume one (retaining at most its Body
	// bytes) may recycle it with netproto.PutEnvelope.
	Recv() (*netproto.Envelope, error)
	// Close shuts the connection down; pending Recv calls are released.
	Close() error
}

// BatchConn is implemented by connections that can buffer writes for an
// explicit flush (under Send's contract: a lent body may be overwritten
// once SendBuffered returns), letting a serial sender (a server's main loop emitting
// many frames per event batch) pay one flush — and on TCP one syscall —
// per batch instead of per frame. A SendBuffered frame goes out with the
// connection's next flush (Flush, a Send, a lane's Flush) and, at the
// latest, before Recv blocks — so a goroutine that answers the frames its
// own Recv loop reads may leave every reply to Recv. Buffering is bounded
// by the connection's write buffer: a frame too big for what is left of it
// goes out at once, whole or in part, so the replies to a pipelined batch
// share one write only while they fit in that buffer together.
type BatchConn interface {
	Conn
	SendBuffered(env *netproto.Envelope) error
	Flush() error
}

// BatchLane is one independent buffered-send lane of a LaneConn. A lane
// encodes frames into its own buffer, so concurrent lanes never contend on
// the encoder; only Flush briefly serializes on the connection's writer.
// Like BatchConn, a lane's frames stay buffered until Flush.
type BatchLane interface {
	SendBuffered(env *netproto.Envelope) error
	Flush() error
}

// LaneConn is implemented by connections offering multiple independent
// flush lanes. A doc-sharded server gives each shard loop its own lane so
// shards batching frames onto a shared connection (responses to one client,
// protocol traffic to one neighbor) encode without taking a common lock.
// Lane is safe for concurrent use and returns the same lane for the same
// index; lane indices should be small and dense.
type LaneConn interface {
	BatchConn
	Lane(i int) BatchLane
}

// Listener accepts inbound connections.
type Listener interface {
	Accept() (Conn, error)
	Close() error
	Addr() string
}

// Network is a connection factory.
type Network interface {
	Listen(addr string) (Listener, error)
	Dial(addr string) (Conn, error)
}

// ---------------------------------------------------------------------------
// In-memory network.

// MemoryOptions shape the simulated link behavior.
type MemoryOptions struct {
	Latency time.Duration // base one-way delay
	Jitter  time.Duration // uniform extra delay in [0, Jitter)
	// Loss is the probability of silently dropping a message in transit.
	// The live protocol keeps only soft state in messages, so loss slows
	// balancing but never loses requests or documents.
	Loss float64
	Seed int64
	// Backlog is each listener's accept queue depth; Dial blocks once it
	// fills. Default 64 — raise it for high-fan-out scenarios where many
	// clients dial one node faster than its accept loop drains.
	Backlog int
}

// MemoryNetwork is an in-process Network. The zero value is usable with
// zero latency and no loss.
type MemoryNetwork struct {
	mu        sync.Mutex
	listeners map[string]*memListener
	opts      MemoryOptions
	rng       *lockedRand
	faults    faultRegistry
}

// NewMemoryNetwork returns a memory network with the given link options.
func NewMemoryNetwork(opts MemoryOptions) *MemoryNetwork {
	return &MemoryNetwork{
		listeners: make(map[string]*memListener),
		opts:      opts,
		rng:       newLockedRand(opts.Seed),
	}
}

// Listen implements Network.
func (n *MemoryNetwork) Listen(addr string) (Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.listeners == nil {
		n.listeners = make(map[string]*memListener)
	}
	if _, ok := n.listeners[addr]; ok {
		return nil, errors.New("transport: address already in use: " + addr)
	}
	backlog := n.opts.Backlog
	if backlog <= 0 {
		backlog = 64
	}
	l := &memListener{net: n, addr: addr, backlog: make(chan Conn, backlog), closed: make(chan struct{})}
	n.listeners[addr] = l
	return l, nil
}

// Dial implements Network.
func (n *MemoryNetwork) Dial(addr string) (Conn, error) {
	n.mu.Lock()
	l, ok := n.listeners[addr]
	opts := n.opts
	rng := n.rng
	n.mu.Unlock()
	if !ok {
		return nil, ErrUnknownAddr
	}
	a, b := newMemPair(opts, rng)
	select {
	case l.backlog <- b:
		// The listener may have closed concurrently, after its final
		// backlog drain: nothing would ever accept or close b, and a's
		// reads would block forever. Treat the race as a refused dial
		// (closing a closes b too); a conn the accept loop already took is
		// at worst closed under it, which readers observe as a normal
		// disconnect.
		select {
		case <-l.closed:
			a.Close()
			return nil, ErrClosed
		default:
		}
		return a, nil
	case <-l.closed:
		return nil, ErrClosed
	}
}

type memListener struct {
	net     *MemoryNetwork
	addr    string
	backlog chan Conn
	closed  chan struct{}
	once    sync.Once
}

func (l *memListener) Accept() (Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.closed:
		return nil, ErrClosed
	}
}

// Close releases the address — a later Listen on the same label succeeds,
// mirroring TCP's behavior after a listener closes (restarted nodes rebind
// their old address) — and resets the connections still queued in the
// backlog, like a closed TCP listener resets its accept queue: a dialer
// whose conn was never accepted sees a disconnect instead of hanging.
func (l *memListener) Close() error {
	l.once.Do(func() {
		close(l.closed)
		l.net.mu.Lock()
		if l.net.listeners[l.addr] == l {
			delete(l.net.listeners, l.addr)
		}
		l.net.mu.Unlock()
		for {
			select {
			case c := <-l.backlog:
				c.Close()
			default:
				return
			}
		}
	})
	return nil
}

func (l *memListener) Addr() string { return l.addr }

// memConn is one endpoint of an in-memory link. Envelopes sent on one
// endpoint arrive, in order, at the peer after the configured delay.
type memConn struct {
	peer *memConn
	opts MemoryOptions
	rng  *lockedRand
	// link is the shared fault state for this connection's address pair;
	// nil for plain Dial connections (never partitioned).
	link *linkState

	mu     sync.Mutex
	queue  []*netproto.Envelope
	ready  *sync.Cond
	closed bool

	// Delayed sends are drained by a single dispatcher goroutine per
	// endpoint, which preserves strict FIFO order under jitter (concurrent
	// timers would not).
	sendMu    sync.Mutex
	sendCond  *sync.Cond
	sendQueue []timedEnv
	sending   bool
	lastAt    time.Time // monotonic clamp on delivery times
}

type timedEnv struct {
	env *netproto.Envelope
	at  time.Time
}

// newMemPair returns the two ends of one in-memory link.
func newMemPair(opts MemoryOptions, rng *lockedRand) (*memConn, *memConn) {
	a, b := &memConn{opts: opts, rng: rng}, &memConn{opts: opts, rng: rng}
	a.peer, b.peer = b, a
	for _, c := range []*memConn{a, b} {
		c.ready = sync.NewCond(&c.mu)
		c.sendCond = sync.NewCond(&c.sendMu)
	}
	return a, b
}

// Pipe returns the two ends of a memory link with no delay or loss.
// Closing either end releases both ends' Recv.
func Pipe() (Conn, Conn) {
	return newMemPair(MemoryOptions{}, nil)
}

// Send implements Conn. Delivery respects per-link FIFO order even under
// jitter: each message's delivery time is clamped to be no earlier than the
// previous message's, and a single dispatcher delivers in queue order.
func (c *memConn) Send(env *netproto.Envelope) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.mu.Unlock()

	if c.link != nil && c.link.down.Load() {
		return nil // partitioned: silently dropped, like a dead link
	}
	if c.opts.Loss > 0 && c.rng.Float64() < c.opts.Loss {
		return nil // dropped in transit
	}
	// The fast lane for in-memory links: no marshaling, just a shallow
	// envelope copy drawn from the shared pool so receivers that release
	// consumed envelopes make the per-message allocation disappear. An
	// unmarked body is immutable and shared; a marked (lent) body is
	// copied, since the sender overwrites it once Send returns.
	cp := netproto.GetEnvelope()
	*cp = *env
	if cp.BodyLent {
		cp.Body, cp.BodyLent = bytes.Clone(cp.Body), false
	}
	delay := c.opts.Latency
	if c.opts.Jitter > 0 {
		delay += time.Duration(c.rng.Float64() * float64(c.opts.Jitter))
	}
	if delay <= 0 {
		c.peer.deliver(cp)
		return nil
	}

	deliverAt := time.Now().Add(delay)
	c.sendMu.Lock()
	if deliverAt.Before(c.lastAt) {
		deliverAt = c.lastAt
	}
	c.lastAt = deliverAt
	c.sendQueue = append(c.sendQueue, timedEnv{env: cp, at: deliverAt})
	if !c.sending {
		c.sending = true
		go c.dispatch()
	}
	c.sendCond.Signal()
	c.sendMu.Unlock()
	return nil
}

// dispatch delivers queued messages in order at their scheduled times. It
// exits when the connection closes or the queue stays empty.
func (c *memConn) dispatch() {
	for {
		c.sendMu.Lock()
		for len(c.sendQueue) == 0 {
			c.mu.Lock()
			closed := c.closed
			c.mu.Unlock()
			if closed {
				c.sending = false
				c.sendMu.Unlock()
				return
			}
			c.sendCond.Wait()
		}
		te := c.sendQueue[0]
		c.sendQueue = c.sendQueue[1:]
		c.sendMu.Unlock()

		if wait := time.Until(te.at); wait > 0 {
			time.Sleep(wait)
		}
		c.peer.deliver(te.env)
	}
}

func (c *memConn) deliver(env *netproto.Envelope) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		netproto.PutEnvelope(env)
		return
	}
	c.queue = append(c.queue, env)
	c.ready.Signal()
}

// Recv implements Conn.
func (c *memConn) Recv() (*netproto.Envelope, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.queue) == 0 && !c.closed {
		c.ready.Wait()
	}
	if len(c.queue) == 0 {
		return nil, ErrClosed
	}
	env := c.queue[0]
	c.queue[0] = nil
	if len(c.queue) == 1 { // drained: reuse the slot, so one frame at a time allocates nothing
		c.queue = c.queue[:0]
	} else {
		c.queue = c.queue[1:]
	}
	return env, nil
}

// Close implements Conn. It also closes the peer's receive side so blocked
// readers observe the shutdown, mirroring TCP semantics.
func (c *memConn) Close() error {
	for _, end := range []*memConn{c, c.peer} {
		end.mu.Lock()
		end.closed = true
		end.ready.Broadcast()
		end.mu.Unlock()
		end.sendMu.Lock()
		end.sendCond.Broadcast() // release an idle dispatcher
		end.sendMu.Unlock()
	}
	return nil
}

var _ Network = (*MemoryNetwork)(nil)
