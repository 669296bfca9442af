package server

// Parent failover: when a non-root node loses its parent link it enters a
// degraded "orphan" mode — it keeps serving every document it holds from
// the lock-free fast path and the shard loops, and it holds upward reads on
// their documents' flights instead of sending them into a dead link —
// while a single background goroutine walks Config.AncestorAddrs looking
// for a live ancestor to re-attach to.
//
// A candidate must pass a ping/pong handshake before it counts: across a
// partitioned in-memory link (and some real-network failure modes) a dial
// succeeds but traffic is silently dropped, so only a pong — which also
// names the responder, sparing the config an id list — proves the edge
// carries frames both ways. The handshaken connection is handed to the
// control loop (cmdParentUp), which installs it, re-identifies the node to
// its new parent, and has every shard send one fetch per flight holding
// reads and re-announce its held duty with reclaim frames.

import (
	"time"

	"webwave/internal/netproto"
	"webwave/internal/transport"
)

// failover hunts the ancestor list until a candidate answers the handshake
// or the server stops. At most one instance runs per server (guarded by
// control.failoverOn); rounds are paced by a jittered exponential backoff
// capped at Config.ReconnectCap, so a long outage costs a bounded dial
// budget (one round per cap, eventually) instead of a spin — and the jitter
// desynchronizes a whole subtree of orphans that all observed the same
// parent death within one heartbeat, which would otherwise stampede the
// replacement in lockstep. A healed partition or restarted ancestor is
// picked up on the next round.
func (s *Server) failover() {
	defer s.wg.Done()
	backoff := &transport.Backoff{Base: s.cfg.GossipPeriod, Cap: s.cfg.ReconnectCap}
	for {
		for _, addr := range s.cfg.AncestorAddrs {
			select {
			case <-s.stopped:
				return
			default:
			}
			conn, id, ok := s.handshake(addr)
			if !ok {
				continue
			}
			// Track the conn for Stop's sweep before handing it off: the
			// control loop exits without draining its queue, so a
			// cmdParentUp posted just before shutdown would otherwise leak
			// the conn (and pin the ancestor's read goroutine). readLoop
			// later appends it again; the double Close is harmless.
			s.connsMu.Lock()
			s.conns = append(s.conns, conn)
			s.connsMu.Unlock()
			select {
			case <-s.stopped:
				conn.Close() // the sweep may have already run; close ourselves
				return
			default:
			}
			select {
			case s.events <- event{cmd: cmdParentUp, conn: conn, child: id}:
			case <-s.stopped:
				conn.Close()
			}
			return
		}
		t := time.NewTimer(backoff.Next())
		select {
		case <-s.stopped:
			t.Stop()
			return
		case <-t.C:
		}
	}
}

// handshake dials addr, pings, and waits for the pong that proves the link
// is live and names the responder. On timeout the connection is closed,
// which also releases the reader goroutine.
func (s *Server) handshake(addr string) (transport.Conn, int, bool) {
	conn, err := transport.DialOn(s.cfg.Network, s.cfg.Addr, addr)
	if err != nil {
		return nil, 0, false
	}
	s.stampAndSend(conn, &netproto.Envelope{Kind: netproto.TypePing, From: s.cfg.ID})

	pong := make(chan int, 1)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			env, err := conn.Recv()
			if err != nil {
				return
			}
			kind, from := env.Kind, env.From
			netproto.PutEnvelope(env)
			if kind == netproto.TypePong {
				pong <- from
				return
			}
			// Anything else (an early gossip tick, say) is discarded; the
			// candidate is not our parent until the handshake completes.
		}
	}()
	timeout := time.NewTimer(min(max(4*s.cfg.GossipPeriod, 100*time.Millisecond), time.Second))
	defer timeout.Stop()
	select {
	case id := <-pong:
		return conn, id, true
	case <-timeout.C:
	case <-s.stopped:
	}
	conn.Close()
	return nil, 0, false
}
