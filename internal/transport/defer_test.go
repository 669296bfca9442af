package transport

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webwave/internal/netproto"
)

// countingConn is a net.Conn that counts the writes reaching the socket.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// deferPair returns a tcpConn over a write-counting TCP socket, plus the raw
// peer end and a frame reader over it.
func deferPair(t *testing.T) (owner *tcpConn, counted *countingConn, peer net.Conn, peerR *netproto.FrameReader) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := l.Accept()
		accepted <- c
	}()
	raw, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	peer = <-accepted
	if peer == nil {
		t.Fatal("accept failed")
	}
	counted = &countingConn{Conn: raw}
	owner = newTCPConn(counted)
	t.Cleanup(func() {
		owner.Close()
		peer.Close()
	})
	return owner, counted, peer, netproto.NewFrameReader(bufio.NewReader(peer))
}

func reply(id uint64) *netproto.Envelope {
	return &netproto.Envelope{Kind: netproto.TypeResponse, ReqID: id, Doc: "d", Body: []byte("body")}
}

// replyBody is the size-byte body of the reply to request id: a pattern
// that differs per request, so a byte from another frame cannot pass.
func replyBody(id uint64, size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(id*31 + uint64(i))
	}
	return b
}

func frame(t *testing.T, id uint64) []byte {
	t.Helper()
	b, err := netproto.AppendFrameV2(nil, &netproto.Envelope{Kind: netproto.TypeRequest, ReqID: id, Doc: "d"})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// expectFrames reads want frames from the peer and checks their ReqIDs in order.
func expectFrames(t *testing.T, peer net.Conn, r *netproto.FrameReader, want ...uint64) {
	t.Helper()
	peer.SetReadDeadline(time.Now().Add(5 * time.Second))
	defer peer.SetReadDeadline(time.Time{})
	for _, id := range want {
		var env netproto.Envelope
		if err := r.ReadInto(&env); err != nil {
			t.Fatalf("peer waiting for frame %d: %v", id, err)
		}
		if env.ReqID != id {
			t.Fatalf("peer got frame %d, want %d", env.ReqID, id)
		}
	}
}

// recvAsync runs one Recv on its own goroutine.
func recvAsync(c *tcpConn) <-chan *netproto.Envelope {
	ch := make(chan *netproto.Envelope, 1)
	go func() {
		env, _ := c.Recv()
		ch <- env
	}()
	return ch
}

// TestDeferredFrameFlushedBeforeRecvBlocks: a SendBuffered frame stays in
// the buffer until its owner's Recv finds nothing to read, then reaches the
// peer in one write.
func TestDeferredFrameFlushedBeforeRecvBlocks(t *testing.T) {
	owner, counted, peer, peerR := deferPair(t)
	if err := owner.SendBuffered(reply(1)); err != nil {
		t.Fatal(err)
	}
	if n := counted.writes.Load(); n != 0 {
		t.Fatalf("SendBuffered wrote %d times", n)
	}
	got := recvAsync(owner)
	expectFrames(t, peer, peerR, 1)
	if n := counted.writes.Load(); n != 1 {
		t.Fatalf("%d writes, want 1", n)
	}
	if _, err := peer.Write(frame(t, 7)); err != nil {
		t.Fatal(err)
	}
	if env := <-got; env == nil || env.ReqID != 7 {
		t.Fatalf("Recv returned %+v, want request 7", env)
	}
	if owner.deferred.Load() {
		t.Fatal("deferred flag still set after the flush")
	}
}

// TestNoFlushWhileFrameBuffered: while a complete inbound frame sits in the
// read buffer, Recv returns it without flushing; replies to a pipelined
// batch leave together once the batch is consumed.
func TestNoFlushWhileFrameBuffered(t *testing.T) {
	owner, counted, peer, peerR := deferPair(t)
	batch := append(append(frame(t, 1), frame(t, 2)...), frame(t, 3)...)
	if _, err := peer.Write(batch); err != nil {
		t.Fatal(err)
	}
	if _, err := owner.br.Peek(len(batch)); err != nil { // the whole batch is buffered
		t.Fatal(err)
	}
	for id := uint64(1); id <= 3; id++ {
		env, err := owner.Recv()
		if err != nil || env.ReqID != id {
			t.Fatalf("Recv %d: %+v %v", id, env, err)
		}
		if err := owner.SendBuffered(reply(id)); err != nil {
			t.Fatal(err)
		}
		if id < 3 && counted.writes.Load() != 0 {
			t.Fatalf("flushed with request %d still buffered", id+1)
		}
	}
	got := recvAsync(owner)
	expectFrames(t, peer, peerR, 1, 2, 3)
	if n := counted.writes.Load(); n != 1 {
		t.Fatalf("three replies took %d writes, want 1", n)
	}
	peer.Close()
	<-got
}

// TestPartialFrameFlushes: a partly arrived frame means the next read can
// block, so Recv flushes first.
func TestPartialFrameFlushes(t *testing.T) {
	owner, counted, peer, peerR := deferPair(t)
	f := frame(t, 9)
	if _, err := peer.Write(f[:len(f)-1]); err != nil {
		t.Fatal(err)
	}
	if _, err := owner.br.Peek(len(f) - 1); err != nil {
		t.Fatal(err)
	}
	if err := owner.SendBuffered(reply(1)); err != nil {
		t.Fatal(err)
	}
	got := recvAsync(owner)
	expectFrames(t, peer, peerR, 1)
	if n := counted.writes.Load(); n != 1 {
		t.Fatalf("%d writes, want 1", n)
	}
	if _, err := peer.Write(f[len(f)-1:]); err != nil {
		t.Fatal(err)
	}
	if env := <-got; env == nil || env.ReqID != 9 {
		t.Fatalf("Recv returned %+v, want request 9", env)
	}
}

// TestOtherFlushesCarryDeferred: a lane Flush or a Send on the connection
// writes the deferred frames ahead of its own and clears the flag.
func TestOtherFlushesCarryDeferred(t *testing.T) {
	owner, counted, peer, peerR := deferPair(t)

	if err := owner.SendBuffered(reply(1)); err != nil {
		t.Fatal(err)
	}
	ln := owner.Lane(0)
	if err := ln.SendBuffered(reply(2)); err != nil {
		t.Fatal(err)
	}
	if err := ln.Flush(); err != nil {
		t.Fatal(err)
	}
	expectFrames(t, peer, peerR, 1, 2)
	if owner.deferred.Load() || counted.writes.Load() != 1 {
		t.Fatalf("after a lane flush: deferred=%v writes=%d, want false 1", owner.deferred.Load(), counted.writes.Load())
	}

	if err := owner.SendBuffered(reply(3)); err != nil {
		t.Fatal(err)
	}
	if err := owner.Send(reply(4)); err != nil {
		t.Fatal(err)
	}
	expectFrames(t, peer, peerR, 3, 4)
	if owner.deferred.Load() || counted.writes.Load() != 2 {
		t.Fatalf("after a Send: deferred=%v writes=%d, want false 2", owner.deferred.Load(), counted.writes.Load())
	}
}

// TestDeferredRepliesUnderConcurrentFlushes: a Recv loop answering every
// request with SendBuffered, while lanes and plain senders flush on the same
// connection from other goroutines — every frame arrives whole, every reply
// body arrives byte for byte, and every reply arrives though the requester
// waits for each before sending the next. A body larger than the write
// buffer takes the paths that write at once — straight through, or split
// across a flush — interleaved with the other goroutines' flushes.
func TestDeferredRepliesUnderConcurrentFlushes(t *testing.T) {
	for _, size := range []int{4, 4<<10 + 64} {
		t.Run(fmt.Sprintf("body=%d", size), func(t *testing.T) { deferredUnderFlushes(t, size) })
	}
}

func deferredUnderFlushes(t *testing.T, size int) {
	owner, _, peer, peerR := deferPair(t)
	go func() {
		for {
			env, err := owner.Recv()
			if err != nil {
				return
			}
			_ = owner.SendBuffered(&netproto.Envelope{
				Kind: netproto.TypeResponse, ReqID: env.ReqID, Doc: "d", Body: replyBody(env.ReqID, size),
			})
			netproto.PutEnvelope(env)
		}
	}()
	const n = 300
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ln := owner.Lane(g)
			for {
				select {
				case <-stop:
					return
				default:
				}
				gossip := &netproto.Envelope{Kind: netproto.TypeGossip, From: g}
				if g == 0 {
					_ = ln.SendBuffered(gossip)
					_ = ln.Flush()
				} else {
					_ = owner.Send(gossip)
				}
			}
		}(g)
	}
	peer.SetReadDeadline(time.Now().Add(10 * time.Second))
	for id := uint64(1); id <= n; id++ {
		if _, err := peer.Write(frame(t, id)); err != nil {
			t.Fatal(err)
		}
		for {
			var env netproto.Envelope
			if err := peerR.ReadInto(&env); err != nil {
				t.Fatalf("waiting for reply %d: %v", id, err)
			}
			if env.Kind == netproto.TypeGossip {
				continue
			}
			if env.Kind != netproto.TypeResponse || env.ReqID != id {
				t.Fatalf("got %v %d, want the reply to %d", env.Kind, env.ReqID, id)
			}
			if !bytes.Equal(env.Body, replyBody(id, size)) {
				t.Fatalf("reply %d: body of %d bytes differs from the %d sent", id, len(env.Body), size)
			}
			break
		}
	}
	close(stop)
	owner.Close() // a sender blocked on a full socket fails out
	wg.Wait()
}

// TestLargeDeferredFrameLeavesAtOnce: SendBuffered defers a frame only while
// it fits in the write buffer's free space. A larger one is written at once:
// into an empty buffer straight to the socket, into a non-empty one split —
// the buffer filled with its head and flushed, its tail left deferred.
func TestLargeDeferredFrameLeavesAtOnce(t *testing.T) {
	owner, counted, peer, peerR := deferPair(t)
	big := func(id uint64) *netproto.Envelope {
		return &netproto.Envelope{Kind: netproto.TypeResponse, ReqID: id, Doc: "d", Body: replyBody(id, 4<<10+64)}
	}
	if err := owner.SendBuffered(big(1)); err != nil {
		t.Fatal(err)
	}
	if n := counted.writes.Load(); n != 1 || owner.w.Buffered() != 0 {
		t.Fatalf("into an empty buffer: %d writes, %d bytes left buffered, want 1 and 0", n, owner.w.Buffered())
	}
	if err := owner.SendBuffered(reply(2)); err != nil {
		t.Fatal(err)
	}
	if err := owner.SendBuffered(big(3)); err != nil {
		t.Fatal(err)
	}
	if n := counted.writes.Load(); n != 2 || owner.w.Buffered() == 0 {
		t.Fatalf("into a non-empty buffer: %d writes, %d bytes left buffered, want 2 and the tail", n, owner.w.Buffered())
	}
	if err := owner.Flush(); err != nil {
		t.Fatal(err)
	}
	peer.SetReadDeadline(time.Now().Add(5 * time.Second))
	for _, want := range []*netproto.Envelope{big(1), reply(2), big(3)} {
		var env netproto.Envelope
		if err := peerR.ReadInto(&env); err != nil {
			t.Fatalf("peer waiting for frame %d: %v", want.ReqID, err)
		}
		if env.ReqID != want.ReqID || !bytes.Equal(env.Body, want.Body) {
			t.Fatalf("peer got frame %d with a %d-byte body, want frame %d whole", env.ReqID, len(env.Body), want.ReqID)
		}
	}
}
