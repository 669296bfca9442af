package server

// A reply can overtake the write that produced its version: the parent's
// fast path answers on the connection goroutine while the republish still
// sits in its shard lane. These tests deliver the overtaking order by hand
// and check the rules that make it harmless: a reply is labelled with the
// version of the body it carries, and only write frames move the write
// mark, so the write still lands locally and still reaches the children.

import (
	"fmt"
	"testing"

	"webwave/internal/netproto"
	"webwave/internal/transport"
)

// overtakeNode returns a hand-driven node holding document "d" at version
// 1, in memory or (onDisk) in the disk tier alone, having delegated part
// of its duty on to child 2, whose link records what it is sent.
func overtakeNode(t *testing.T, onDisk bool) (*Server, *shard, *sinkConn) {
	t.Helper()
	cfg := Config{NumShards: 1}
	if onDisk {
		cfg.DataDir, cfg.CacheShards, cfg.CacheBudgetBytes = t.TempDir(), 1, 4 // no body fits
	}
	s := handServer(t, cfg)
	t.Cleanup(s.Stop)
	kid2 := &sinkConn{}
	s.children.Store(&childView{conns: map[int]transport.Conn{2: kid2, 3: nopConn{}}})
	sh := s.shards[0]
	sh.handle(event{conn: nopConn{}, env: &netproto.Envelope{
		Kind: netproto.TypeDelegate, From: 0, To: 1, Doc: "d", Rate: 1000,
		DocVersion: 1, Body: []byte("body-v1"),
	}})
	if !s.holdsCopy("d") || s.cache.Contains("d") == onDisk {
		t.Fatalf("copy not held where the test needs it (memory %v, disk %v)", s.cache.Contains("d"), s.diskHas("d"))
	}
	sh.handleCmd(event{cmd: cmdDelegate, child: 2, doc: "d", rate: 10})
	return s, sh, kid2
}

// wantServed asks the node for "d" under a session floor and fails unless
// the node answers it itself, at version want, with the body of the
// version its label names.
func wantServed(t *testing.T, s *Server, reqID, floor, want uint64) {
	t.Helper()
	c := &sinkConn{}
	env := &netproto.Envelope{
		Kind: netproto.TypeRequest, From: -1, Origin: 9, ReqID: reqID, Doc: "d", MinVersion: floor,
	}
	sh := s.shardFor("d")
	if !s.tryFastServe(sh, shardHash("d"), env, c) {
		sh.handle(event{env: env, conn: c})
	}
	if len(c.sent) != 1 || c.sent[0].Kind != netproto.TypeResponse {
		t.Fatalf("floor-%d request: the node sent %d frames back, want its own response", floor, len(c.sent))
	}
	r := c.sent[0]
	if string(r.Body) != fmt.Sprintf("body-v%d", r.DocVersion) || r.DocVersion != want || r.NotFound {
		t.Fatalf("floor-%d request answered %q labelled %d, want body-v%d labelled %d", floor, r.Body, r.DocVersion, want, want)
	}
}

// wantWrite reports an error unless child 2 was sent a write frame at
// version ver.
func wantWrite(t *testing.T, kid2 *sinkConn, ver uint64) {
	t.Helper()
	for _, f := range kid2.sent {
		if (f.Kind == netproto.TypeRepublish || f.Kind == netproto.TypeInvalidate) && f.DocVersion == ver {
			return
		}
	}
	t.Errorf("child 2 never received the version-%d write (%d frames sent to it)", ver, len(kid2.sent))
}

func republish(sh *shard, ver uint64) {
	sh.handle(event{conn: nopConn{}, env: &netproto.Envelope{
		Kind: netproto.TypeRepublish, From: 0, To: 1, Doc: "d",
		DocVersion: ver, Body: []byte(fmt.Sprintf("body-v%d", ver)),
	}})
}

// TestResponseOvertakesRepublish: a version-2 response with no pending
// entry here passes through before the version-2 republish. Before the
// republish the node serves its version-1 copy as version 1; after it, a
// floor-2 session reads version 2 from this node, and child 2 has been
// sent the write. Run with the copy in memory and on disk alone.
func TestResponseOvertakesRepublish(t *testing.T) {
	for _, onDisk := range []bool{false, true} {
		t.Run(fmt.Sprintf("disk=%v", onDisk), func(t *testing.T) {
			s, sh, kid2 := overtakeNode(t, onDisk)
			sh.handle(event{conn: nopConn{}, env: &netproto.Envelope{
				Kind: netproto.TypeResponse, From: 0, To: 1, Doc: "d", Origin: 7, ReqID: 70,
				ServedBy: 0, DocVersion: 2, Body: []byte("body-v2"),
			}})
			wantServed(t, s, 1, 0, 1)
			republish(sh, 2)
			wantWrite(t, kid2, 2)
			wantServed(t, s, 2, 2, 2)
			if sh.n.republishesIn != 1 || sh.n.staleDrops != 0 {
				t.Fatalf("republishes applied %d, stale drops %d; want 1/0", sh.n.republishesIn, sh.n.staleDrops)
			}
		})
	}
}

// TestTunnelAdoptedCopyOvertakesRepublish: a claim on a document not held
// adopts the version-2 copy passing down before the version-2 republish
// arrives. The republish finds the copy already current — a stale drop
// locally — but still travels on to the children.
func TestTunnelAdoptedCopyOvertakesRepublish(t *testing.T) {
	s, sh, _ := tunnelNode(t)
	kid2 := &sinkConn{}
	s.children.Store(&childView{conns: map[int]transport.Conn{2: kid2, 3: nopConn{}}})
	read(s, "d", 1, 0)
	pass(sh, 1, 2, "body-v")
	wantServed(t, s, 2, 2, 2)
	republish(sh, 2)
	wantWrite(t, kid2, 2)
	wantServed(t, s, 3, 2, 2)
	if sh.n.staleDrops != 1 || sh.n.republishesIn != 0 {
		t.Fatalf("stale drops %d, republishes applied %d; want 1/0", sh.n.staleDrops, sh.n.republishesIn)
	}
	// The duplicate of a write already passed on is not forwarded again.
	before := len(kid2.sent)
	republish(sh, 2)
	if len(kid2.sent) != before || sh.n.staleDrops != 2 {
		t.Fatalf("a duplicate write: %d more frames to child 2, stale drops %d; want 0 and 2", len(kid2.sent)-before, sh.n.staleDrops)
	}
}

// TestRefreshTooBigForMemory: a republished body that memory cannot take
// but disk can leaves one version on the node. The older body memory held
// must not keep answering (it would be stale), so the next read is the new
// body from disk, labelled with its version.
func TestRefreshTooBigForMemory(t *testing.T) {
	s := handServer(t, Config{NumShards: 1, CacheShards: 1, CacheBudgetBytes: 16, DataDir: t.TempDir()})
	t.Cleanup(s.Stop)
	sh := s.shards[0]
	sh.handle(event{conn: nopConn{}, env: &netproto.Envelope{
		Kind: netproto.TypeDelegate, From: 0, To: 1, Doc: "d", Rate: 1000,
		DocVersion: 1, Body: []byte("body-v1"),
	}})
	if !s.cache.Contains("d") {
		t.Fatal("the version-1 body did not fit in memory")
	}
	big := []byte(fmt.Sprintf("body-v2 %040d", 0))
	sh.handle(event{conn: nopConn{}, env: &netproto.Envelope{
		Kind: netproto.TypeRepublish, From: 0, To: 1, Doc: "d", DocVersion: 2, Body: big,
	}})
	c := &sinkConn{}
	env := &netproto.Envelope{Kind: netproto.TypeRequest, From: -1, Origin: 9, ReqID: 1, Doc: "d"}
	if !s.tryFastServe(sh, shardHash("d"), env, c) {
		sh.handle(event{env: env, conn: c})
	}
	if len(c.sent) != 1 {
		t.Fatalf("read after the refresh: the node sent %d frames back, want its own response", len(c.sent))
	}
	if r := c.sent[0]; string(r.Body) != string(big) || r.DocVersion != 2 {
		t.Fatalf("read after the refresh answered %q labelled %d, want the version-2 body", r.Body, r.DocVersion)
	}
}
