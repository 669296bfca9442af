package transport

import (
	"fmt"
	"sync"
	"testing"

	"webwave/internal/netproto"
)

// TestLanesInterleaveIntact drives several lanes of one TCP connection from
// concurrent goroutines — the doc-sharded server's send pattern — plus
// plain concurrent Sends, and checks every frame arrives whole: per-lane
// buffering must never interleave two frames' bytes on the wire.
func TestLanesInterleaveIntact(t *testing.T) {
	client, server, cleanup := pair(t, TCPNetwork{}, "127.0.0.1:0")
	defer cleanup()
	lc, ok := client.(LaneConn)
	if !ok {
		t.Fatal("tcp conn does not implement LaneConn")
	}

	const lanes, perLane = 4, 200
	var wg sync.WaitGroup
	for ln := 0; ln < lanes; ln++ {
		wg.Add(1)
		go func(ln int) {
			defer wg.Done()
			lane := lc.Lane(ln)
			for i := 0; i < perLane; i++ {
				err := lane.SendBuffered(&netproto.Envelope{
					Kind: netproto.TypeRequest, From: ln, Origin: ln,
					ReqID: uint64(i + 1), Doc: "doc",
				})
				if err != nil {
					t.Errorf("lane %d send: %v", ln, err)
					return
				}
				if i%17 == 0 {
					if err := lane.Flush(); err != nil {
						t.Errorf("lane %d flush: %v", ln, err)
						return
					}
				}
			}
			if err := lane.Flush(); err != nil {
				t.Errorf("lane %d final flush: %v", ln, err)
			}
		}(ln)
	}
	// A concurrent plain sender on the same conn (the fast path's pattern).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < perLane; i++ {
			err := client.Send(&netproto.Envelope{
				Kind: netproto.TypeGossip, From: 99, Load: float64(i),
			})
			if err != nil {
				t.Errorf("plain send: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	want := lanes*perLane + perLane
	got := make(map[string]bool, want)
	for len(got) < want {
		env, err := server.Recv()
		if err != nil {
			t.Fatalf("recv after %d/%d frames: %v", len(got), want, err)
		}
		var key string
		switch env.Kind {
		case netproto.TypeRequest:
			key = fmt.Sprintf("lane-%d-%d", env.From, env.ReqID)
		case netproto.TypeGossip:
			key = fmt.Sprintf("plain-%v", env.Load)
		default:
			t.Fatalf("unexpected frame %+v", env)
		}
		if got[key] {
			t.Fatalf("duplicate frame %s", key)
		}
		got[key] = true
		netproto.PutEnvelope(env)
	}
}

// TestLaneSameIndexSameLane pins the lane identity contract.
func TestLaneSameIndexSameLane(t *testing.T) {
	client, _, cleanup := pair(t, TCPNetwork{}, "127.0.0.1:0")
	defer cleanup()
	lc := client.(LaneConn)
	if lc.Lane(3) != lc.Lane(3) {
		t.Fatal("Lane(3) returned different lanes")
	}
	if lc.Lane(0) == lc.Lane(1) {
		t.Fatal("distinct indices share a lane")
	}
}
