package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"webwave/internal/netproto"
)

func pair(t *testing.T, netw Network, addr string) (client, server Conn, cleanup func()) {
	t.Helper()
	l, err := netw.Listen(addr)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	type res struct {
		c   Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := l.Accept()
		ch <- res{c, err}
	}()
	client, err = netw.Dial(l.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatalf("Accept: %v", r.err)
	}
	return client, r.c, func() {
		client.Close()
		r.c.Close()
		l.Close()
	}
}

func testSendRecv(t *testing.T, netw Network, addr string) {
	client, server, cleanup := pair(t, netw, addr)
	defer cleanup()

	want := &netproto.Envelope{Kind: netproto.TypeGossip, From: 1, To: 2, Load: 3.5}
	if err := client.Send(want); err != nil {
		t.Fatalf("Send: %v", err)
	}
	got, err := server.Recv()
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if got.Kind != want.Kind || got.Load != want.Load {
		t.Errorf("got %+v, want %+v", got, want)
	}

	// And the reverse direction.
	if err := server.Send(&netproto.Envelope{Kind: netproto.TypeShed, From: 2, Rate: 1}); err != nil {
		t.Fatalf("reverse Send: %v", err)
	}
	if back, err := client.Recv(); err != nil || back.Kind != netproto.TypeShed {
		t.Fatalf("reverse Recv: %v %v", back, err)
	}
}

func testFIFO(t *testing.T, netw Network, addr string) {
	client, server, cleanup := pair(t, netw, addr)
	defer cleanup()
	const n = 200
	for i := 0; i < n; i++ {
		if err := client.Send(&netproto.Envelope{Kind: netproto.TypeGossip, Seq: uint64(i + 1), From: i}); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		env, err := server.Recv()
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		if env.From != i {
			t.Fatalf("out of order: got %d at position %d", env.From, i)
		}
	}
}

func testCloseUnblocksRecv(t *testing.T, netw Network, addr string) {
	client, server, cleanup := pair(t, netw, addr)
	defer cleanup()
	done := make(chan error, 1)
	go func() {
		_, err := server.Recv()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	client.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("Recv after close: %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on close")
	}
}

func TestMemorySendRecv(t *testing.T) {
	testSendRecv(t, NewMemoryNetwork(MemoryOptions{}), "a")
}

func TestMemoryFIFO(t *testing.T) {
	testFIFO(t, NewMemoryNetwork(MemoryOptions{}), "a")
}

func TestMemoryFIFOWithJitter(t *testing.T) {
	netw := NewMemoryNetwork(MemoryOptions{
		Latency: time.Millisecond, Jitter: 3 * time.Millisecond, Seed: 1,
	})
	testFIFO(t, netw, "a")
}

func TestMemoryCloseUnblocksRecv(t *testing.T) {
	testCloseUnblocksRecv(t, NewMemoryNetwork(MemoryOptions{}), "a")
}

func TestMemoryDialUnknown(t *testing.T) {
	netw := NewMemoryNetwork(MemoryOptions{})
	if _, err := netw.Dial("nobody"); !errors.Is(err, ErrUnknownAddr) {
		t.Errorf("dial unknown: %v", err)
	}
}

func TestMemoryAddressInUse(t *testing.T) {
	netw := NewMemoryNetwork(MemoryOptions{})
	if _, err := netw.Listen("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := netw.Listen("a"); err == nil {
		t.Error("double listen accepted")
	}
}

func TestMemoryLatency(t *testing.T) {
	netw := NewMemoryNetwork(MemoryOptions{Latency: 50 * time.Millisecond})
	client, server, cleanup := pair(t, netw, "a")
	defer cleanup()
	start := time.Now()
	if err := client.Send(&netproto.Envelope{Kind: netproto.TypeGossip}); err != nil {
		t.Fatal(err)
	}
	if _, err := server.Recv(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Errorf("message arrived after %v, want >= ~50ms", elapsed)
	}
}

func TestMemoryLoss(t *testing.T) {
	netw := NewMemoryNetwork(MemoryOptions{Loss: 1, Seed: 1}) // drop everything
	client, server, cleanup := pair(t, netw, "a")
	defer cleanup()
	if err := client.Send(&netproto.Envelope{Kind: netproto.TypeGossip}); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		server.Recv()
		close(done)
	}()
	select {
	case <-done:
		t.Error("message delivered despite 100% loss")
	case <-time.After(50 * time.Millisecond):
	}
	client.Close()
}

func TestMemorySendAfterClose(t *testing.T) {
	netw := NewMemoryNetwork(MemoryOptions{})
	client, _, cleanup := pair(t, netw, "a")
	cleanup()
	if err := client.Send(&netproto.Envelope{Kind: netproto.TypeGossip}); !errors.Is(err, ErrClosed) {
		t.Errorf("send after close: %v", err)
	}
}

func TestMemoryListenerClose(t *testing.T) {
	netw := NewMemoryNetwork(MemoryOptions{})
	l, err := netw.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		done <- err
	}()
	l.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("Accept after close: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Accept did not unblock")
	}
}

func TestMemoryConcurrentSenders(t *testing.T) {
	netw := NewMemoryNetwork(MemoryOptions{})
	client, server, cleanup := pair(t, netw, "a")
	defer cleanup()
	const workers, per = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				client.Send(&netproto.Envelope{Kind: netproto.TypeGossip, From: w})
			}
		}(w)
	}
	wg.Wait()
	for i := 0; i < workers*per; i++ {
		if _, err := server.Recv(); err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
	}
}

// --- TCP transport over the loopback interface ---

func TestTCPSendRecv(t *testing.T) {
	testSendRecv(t, TCPNetwork{}, "127.0.0.1:0")
}

func TestTCPFIFO(t *testing.T) {
	testFIFO(t, TCPNetwork{}, "127.0.0.1:0")
}

func TestTCPCloseUnblocksRecv(t *testing.T) {
	testCloseUnblocksRecv(t, TCPNetwork{}, "127.0.0.1:0")
}

func TestTCPDialRefused(t *testing.T) {
	// Port 1 on loopback is essentially never listening.
	if _, err := (TCPNetwork{}).Dial("127.0.0.1:1"); err == nil {
		t.Skip("something actually listens on 127.0.0.1:1")
	}
}

func TestTCPLargeBody(t *testing.T) {
	client, server, cleanup := pair(t, TCPNetwork{}, "127.0.0.1:0")
	defer cleanup()
	body := make([]byte, 1<<20)
	for i := range body {
		body[i] = byte(i)
	}
	if err := client.Send(&netproto.Envelope{Kind: netproto.TypeDelegate, Doc: "big", Body: body}); err != nil {
		t.Fatal(err)
	}
	got, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Body) != len(body) {
		t.Fatalf("body length %d, want %d", len(got.Body), len(body))
	}
}

// TestTCPVersionChecked pins the one wire: the Version field accepts 0 or
// netproto.Version2, and anything else fails Listen and Dial by name instead
// of silently speaking v2.
func TestTCPVersionChecked(t *testing.T) {
	for _, version := range []int{0, netproto.Version2} {
		testSendRecv(t, TCPNetwork{Version: version}, "127.0.0.1:0")
	}
	for _, version := range []int{1, 3, 7, -1} {
		n := TCPNetwork{Version: version}
		want := fmt.Sprintf("wire version %d,", version)
		if _, err := n.Listen("127.0.0.1:0"); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Version %d: Listen error = %v", version, err)
		}
		if _, err := n.Dial("127.0.0.1:1"); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Version %d: Dial error = %v", version, err)
		}
	}
}

// TestTCPRecvRejectsJSONFrame has a raw peer write the frame protocol v1
// used to send: Recv must surface a decode error, not an envelope.
func TestTCPRecvRejectsJSONFrame(t *testing.T) {
	l, err := TCPNetwork{}.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	peer, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	conn, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload := `{"v":1,"kind":"gossip","from":1,"to":0,"load":2.5}`
	frame := append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
	if _, err := peer.Write(frame); err != nil {
		t.Fatal(err)
	}
	env, err := conn.Recv()
	if err == nil || errors.Is(err, ErrClosed) {
		t.Fatalf("Recv of a JSON frame = %+v, %v; want a decode error", env, err)
	}
}

// TestLentBodySurvivesReuse: a body marked BodyLent may be overwritten as
// soon as Send returns, so the frame the peer reads carries the bytes as
// they were at the call — on the memory network's direct and delayed
// hand-overs, and on TCP's Send and lane paths. An unmarked body is
// immutable, and the memory network hands it across without a copy.
func TestLentBodySurvivesReuse(t *testing.T) {
	for _, tc := range []struct {
		name string
		netw Network
		addr string
		lane bool
	}{
		{"memory", NewMemoryNetwork(MemoryOptions{}), "lent", false},
		{"memory-delayed", NewMemoryNetwork(MemoryOptions{Latency: time.Millisecond}), "lent", false},
		{"tcp", TCPNetwork{}, "127.0.0.1:0", false},
		{"tcp-lane", TCPNetwork{}, "127.0.0.1:0", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			client, server, cleanup := pair(t, tc.netw, tc.addr)
			defer cleanup()
			buf := []byte("first")
			for _, want := range []string{"first", "again"} {
				copy(buf, want)
				env := &netproto.Envelope{Kind: netproto.TypeResponse, Doc: "d", Body: buf, BodyLent: true}
				var err error
				if tc.lane {
					ln := client.(LaneConn).Lane(0)
					if err = ln.SendBuffered(env); err == nil {
						err = ln.Flush()
					}
				} else {
					err = client.Send(env)
				}
				if err != nil {
					t.Fatal(err)
				}
				copy(buf, "XXXXX") // the sender's next read reuses the buffer
				got, err := server.Recv()
				if err != nil {
					t.Fatal(err)
				}
				if string(got.Body) != want || got.BodyLent {
					t.Fatalf("received %q (lent=%v), want %q as sent", got.Body, got.BodyLent, want)
				}
			}
		})
	}
	client, server, cleanup := pair(t, NewMemoryNetwork(MemoryOptions{}), "shared")
	defer cleanup()
	owned := []byte("immutable")
	if err := client.Send(&netproto.Envelope{Kind: netproto.TypeResponse, Doc: "d", Body: owned}); err != nil {
		t.Fatal(err)
	}
	if got, err := server.Recv(); err != nil || &got.Body[0] != &owned[0] {
		t.Fatalf("an unmarked body was copied on the memory network (err %v)", err)
	}
}

// TestPipe: Pipe's ends are a memory link without a network. Closing
// either end releases a Recv blocked on each end with ErrClosed, and a lent
// body is copied on Send, so the sender may overwrite it at once.
func TestPipe(t *testing.T) {
	for _, closer := range []int{0, 1} {
		t.Run(fmt.Sprintf("close-end-%d", closer), func(t *testing.T) {
			a, b := Pipe()
			ends := []Conn{a, b}
			errs := make(chan error, len(ends))
			for _, end := range ends {
				go func() {
					_, err := end.Recv()
					errs <- err
				}()
			}
			ends[closer].Close()
			for range ends {
				select {
				case err := <-errs:
					if !errors.Is(err, ErrClosed) {
						t.Fatalf("Recv after close: %v, want ErrClosed", err)
					}
				case <-time.After(2 * time.Second):
					t.Fatal("a Recv was not released by Close")
				}
			}
			if err := ends[1-closer].Send(&netproto.Envelope{Kind: netproto.TypeGossip}); !errors.Is(err, ErrClosed) {
				t.Fatalf("Send on the other end after close: %v, want ErrClosed", err)
			}
		})
	}

	a, b := Pipe()
	defer a.Close()
	buf := []byte("lent")
	if err := a.Send(&netproto.Envelope{Kind: netproto.TypeResponse, Doc: "d", Body: buf, BodyLent: true}); err != nil {
		t.Fatal(err)
	}
	copy(buf, "XXXX")
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Body) != "lent" || got.BodyLent {
		t.Fatalf("received %q (lent=%v), want %q as sent", got.Body, got.BodyLent, "lent")
	}
}
