package transport

import (
	"sync"
	"testing"

	"webwave/internal/netproto"
)

// benchEcho starts an accept loop on l that drains envelopes and returns
// each one unchanged, closing down with the listener.
func benchEcho(l Listener, wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					env, err := conn.Recv()
					if err != nil {
						return
					}
					_ = conn.Send(env)
					netproto.PutEnvelope(env)
				}
			}()
		}
	}()
}

func benchRoundTrips(b *testing.B, netw Network, addr string) {
	l, err := netw.Listen(addr)
	if err != nil {
		b.Fatal(err)
	}
	var wg sync.WaitGroup
	benchEcho(l, &wg)
	conn, err := netw.Dial(l.Addr())
	if err != nil {
		b.Fatal(err)
	}
	req := &netproto.Envelope{Kind: netproto.TypeRequest, From: -1, To: 0, Origin: 0, ReqID: 1, Doc: "docs/bench"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.ReqID = uint64(i + 1)
		if err := conn.Send(req); err != nil {
			b.Fatal(err)
		}
		env, err := conn.Recv()
		if err != nil {
			b.Fatal(err)
		}
		netproto.PutEnvelope(env)
	}
	b.StopTimer()
	conn.Close()
	l.Close()
	wg.Wait()
}

func BenchmarkMemoryConnRoundTrip(b *testing.B) {
	benchRoundTrips(b, NewMemoryNetwork(MemoryOptions{}), "bench")
}

func BenchmarkTCPConnRoundTripV2(b *testing.B) {
	benchRoundTrips(b, TCPNetwork{}, "127.0.0.1:0")
}

// BenchmarkTCPSendBatchedV2 measures the write path under concurrent
// senders, where flush coalescing batches frames into shared syscalls.
func BenchmarkTCPSendBatchedV2(b *testing.B) {
	netw := TCPNetwork{}
	l, err := netw.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // sink: drain and discard
		defer wg.Done()
		conn, err := l.Accept()
		if err != nil {
			return
		}
		for {
			env, err := conn.Recv()
			if err != nil {
				return
			}
			netproto.PutEnvelope(env)
		}
	}()
	conn, err := netw.Dial(l.Addr())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		env := &netproto.Envelope{Kind: netproto.TypeGossip, From: 1, To: 2, Load: 3.5}
		for pb.Next() {
			if err := conn.Send(env); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	conn.Close()
	l.Close()
	wg.Wait()
}
