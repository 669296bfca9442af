package cluster

// Mutable-document injection and staleness accounting. Writes enter the
// tree at the root — the document's origin — and diffuse down; the cluster
// assigns each document a monotonically increasing version and remembers
// when every version was written, so each response's served version maps
// to a staleness age: how long ago the served copy was superseded (zero
// when the response carried the latest version).

import (
	"fmt"
	"time"

	"webwave/internal/core"
	"webwave/internal/netproto"
)

// Republish injects a versioned body write for doc at its origin (the
// root). The new body diffuses down the tree along the duty edges as
// republish frames; off-ledger subtrees get version-only invalidates and
// lease-refresh on demand. Returns the version assigned to the write.
func (c *Cluster) Republish(doc core.DocID, body []byte) (uint64, error) {
	return c.write(netproto.TypeRepublish, doc, body)
}

func (c *Cluster) write(kind netproto.Type, doc core.DocID, body []byte) (uint64, error) {
	root := c.t.Root()
	c.verMu.Lock()
	ver := c.docVers[doc] + 1
	c.docVers[doc] = ver
	// writeAt[doc][v-1] is the instant version v was written — the moment
	// every copy of version v-1 (and older) became stale.
	c.writeAt[doc] = append(c.writeAt[doc], time.Now())
	c.verMu.Unlock()
	c.injectMu.Lock()
	conn := c.injectConns[root]
	c.injectMu.Unlock()
	err := conn.Send(&netproto.Envelope{
		Kind: kind, From: -1, To: root,
		Doc: doc, DocVersion: ver, Body: body,
	})
	if err != nil {
		return ver, fmt.Errorf("cluster: %s %q: %w", kind, doc, err)
	}
	return ver, nil
}

// noteServedVersion records one response's staleness sample. Only
// documents that have been written at least once produce samples —
// read-only documents have no version history to be stale against.
// Caller must NOT hold verMu.
func (c *Cluster) noteServedVersion(env *netproto.Envelope, now time.Time) {
	c.verMu.Lock()
	times, written := c.writeAt[env.Doc]
	if written {
		age := 0.0
		if int(env.DocVersion) < len(times) {
			// The served version was superseded the instant the next one
			// was written; the sample is how long ago that was.
			age = now.Sub(times[env.DocVersion]).Seconds()
		}
		c.staleness = append(c.staleness, age)
	}
	c.verMu.Unlock()
}
