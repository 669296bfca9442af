// Read-my-writes sessions over HTTP. A client that writes through the
// gateway gets back a session header naming the version its write was
// assigned; presenting that header on later reads makes the tree bypass
// any copy older than the session has seen (the envelope's MinVersion).
// The header is the session token — the gateway keeps no per-client state,
// so any replica of the edge can honor a token any other replica minted.

package gateway

import (
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"webwave/internal/core"
)

// Header names are written in canonical MIME form (TestHeaderNamesCanonical),
// so http.Header takes them as they are instead of canonicalizing a copy on
// every request.
const (
	// SessionHeader carries a session's version floors as
	// "doc=ver[,doc=ver...]". Sent by clients on reads, returned (merged)
	// by the gateway on writes.
	SessionHeader = "X-Webwave-Session"
	// DocVersionHeader reports the version of the copy that answered (on
	// reads) or the version a write was assigned (on writes).
	DocVersionHeader = "X-Webwave-Doc-Version"
)

// maxWriteBody bounds a PUT body read; larger writes are refused before
// they buffer.
const maxWriteBody = 8 << 20

// Publisher is the write slice of a backend: injecting a versioned
// republish at a document's origin. Implemented by *cluster.Cluster.
// Gateways whose backend does not implement it refuse writes with 405.
type Publisher interface {
	Republish(doc core.DocID, body []byte) (uint64, error)
}

// ParseSession decodes a session header value into per-document version
// floors. Malformed pairs are skipped — a damaged token degrades to weaker
// freshness, never to an error.
func ParseSession(h string) map[core.DocID]uint64 {
	if h == "" {
		return nil
	}
	var m map[core.DocID]uint64
	for _, pair := range strings.Split(h, ",") {
		eq := strings.LastIndexByte(pair, '=')
		if eq <= 0 {
			continue
		}
		doc := strings.TrimSpace(pair[:eq])
		ver, err := strconv.ParseUint(strings.TrimSpace(pair[eq+1:]), 10, 64)
		if err != nil || doc == "" || ver == 0 {
			continue
		}
		if m == nil {
			m = make(map[core.DocID]uint64, 4)
		}
		if ver > m[core.DocID(doc)] {
			m[core.DocID(doc)] = ver
		}
	}
	return m
}

// sessionFloor returns doc's floor in the session header value h — exactly
// ParseSession(h)[doc] — without splitting the token or building a map: a
// read needs one document's floor, and a session soon names many. It
// allocates nothing.
func sessionFloor(h string, doc core.DocID) uint64 {
	var floor uint64
	for h != "" && doc != "" {
		pair, rest, _ := strings.Cut(h, ",")
		h = rest
		eq := strings.LastIndexByte(pair, '=')
		if eq <= 0 || strings.TrimSpace(pair[:eq]) != string(doc) {
			continue
		}
		if ver, ok := parseVersion(strings.TrimSpace(pair[eq+1:])); ok {
			floor = max(floor, ver)
		}
	}
	return floor
}

// parseVersion is strconv.ParseUint(s, 10, 64) without the error value a
// malformed pair would allocate.
func parseVersion(s string) (uint64, bool) {
	if s == "" {
		return 0, false
	}
	var v uint64
	for i := 0; i < len(s); i++ {
		d := uint64(s[i] - '0')
		if d > 9 || v > (math.MaxUint64-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	return v, true
}

// FormatSession encodes version floors as a session header value, sorted by
// document id so equal sessions serialize identically.
func FormatSession(m map[core.DocID]uint64) string {
	if len(m) == 0 {
		return ""
	}
	docs := make([]string, 0, len(m))
	for d := range m {
		docs = append(docs, string(d))
	}
	sort.Strings(docs)
	var b strings.Builder
	for i, d := range docs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(d)
		b.WriteByte('=')
		b.WriteString(strconv.FormatUint(m[core.DocID(d)], 10))
	}
	return b.String()
}

// handlePut publishes a new document version through the backend and
// returns the updated session token: the request's incoming floors merged
// with the version this write was assigned. A client that threads the
// returned header through its next read gets read-my-writes across any
// edge.
func (g *Gateway) handlePut(w http.ResponseWriter, r *http.Request, doc core.DocID) {
	pub, ok := g.backend.(Publisher)
	if !ok {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "backend does not accept writes", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxWriteBody+1))
	if err != nil {
		http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(body) > maxWriteBody {
		http.Error(w, "document body too large", http.StatusRequestEntityTooLarge)
		return
	}
	ver, err := pub.Republish(doc, body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	sess := ParseSession(r.Header.Get(SessionHeader))
	if sess == nil {
		sess = make(map[core.DocID]uint64, 1)
	}
	if ver > sess[doc] {
		sess[doc] = ver
	}
	w.Header().Set(SessionHeader, FormatSession(sess))
	w.Header().Set(DocVersionHeader, strconv.FormatUint(ver, 10))
	w.WriteHeader(http.StatusNoContent)
}
