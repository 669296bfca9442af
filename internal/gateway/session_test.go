package gateway

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"net/http"
	"net/http/httptest"
	"net/textproto"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"webwave/internal/core"
)

func TestParseFormatSession(t *testing.T) {
	cases := []struct {
		in   string
		want map[core.DocID]uint64
	}{
		{"", nil},
		{"a=3", map[core.DocID]uint64{"a": 3}},
		{"a=3,b=7", map[core.DocID]uint64{"a": 3, "b": 7}},
		{" a = 3 , b = 7 ", map[core.DocID]uint64{"a": 3, "b": 7}},
		// Duplicates keep the highest floor; malformed pairs and zero
		// versions are skipped, not fatal.
		{"a=3,a=5,a=4", map[core.DocID]uint64{"a": 5}},
		{"junk,=4,a=,a=x,b=0,c=2", map[core.DocID]uint64{"c": 2}},
		// Document ids may themselves contain '=' — the last one splits.
		{"k=v=9", map[core.DocID]uint64{"k=v": 9}},
	}
	for _, tc := range cases {
		got := ParseSession(tc.in)
		if len(got) != len(tc.want) {
			t.Errorf("ParseSession(%q) = %v, want %v", tc.in, got, tc.want)
			continue
		}
		for d, v := range tc.want {
			if got[d] != v {
				t.Errorf("ParseSession(%q)[%q] = %d, want %d", tc.in, d, got[d], v)
			}
		}
	}
	// Round trip: format is sorted and re-parses to the same floors.
	m := map[core.DocID]uint64{"b": 2, "a": 9}
	if got := FormatSession(m); got != "a=9,b=2" {
		t.Errorf("FormatSession = %q, want %q", got, "a=9,b=2")
	}
	back := ParseSession(FormatSession(m))
	if back["a"] != 9 || back["b"] != 2 || len(back) != 2 {
		t.Errorf("round trip = %v, want %v", back, m)
	}
	if FormatSession(nil) != "" {
		t.Error("FormatSession(nil) must be empty")
	}
}

// sessionHeaders are session header values covering what a token can look
// like: well formed, spaced, repeated documents (the highest floor wins),
// malformed pairs, zero and overflowing versions, '=' inside an id.
var sessionHeaders = []string{
	"",
	"a=3",
	"a=3,b=7",
	" a = 3 , b = 7 ",
	"a=3,a=5,a=4",
	"junk,=4,a=,a=x,b=0,c=2",
	"k=v=9",
	"a=0",
	"a=+3,a=-1,a=0x10,a=1_0,a= 2 ",
	"a=18446744073709551615,b=18446744073709551616",
	",,a=1,,",
	"a=3,",
	"\ta=6\n",
	" =4,a b=5",
}

// TestSessionFloorMatchesParseSession: the one-document scanner the read
// path uses reads exactly what ParseSession's map holds for every document
// a header names, and for one it does not.
func TestSessionFloorMatchesParseSession(t *testing.T) {
	for _, h := range sessionHeaders {
		docs := []core.DocID{"", "a", "b", "c", "k", "k=v", "a b", "z", " a"}
		for d := range ParseSession(h) {
			docs = append(docs, d)
		}
		for _, d := range docs {
			if got, want := sessionFloor(h, d), ParseSession(h)[d]; got != want {
				t.Errorf("sessionFloor(%q, %q) = %d, ParseSession reads %d", h, d, got, want)
			}
		}
	}
}

// TestSessionFloorAllocatesNothing pins the read path's session lookup to
// zero allocations, on a token naming many documents as on a damaged one.
func TestSessionFloorAllocatesNothing(t *testing.T) {
	m := make(map[core.DocID]uint64, 48)
	for i := range 48 {
		m[core.DocID(fmt.Sprintf("doc-%02d", i))] = uint64(1000 + i)
	}
	for _, h := range []string{FormatSession(m), "junk,=4,doc-07=x,doc-07=99999999999999999999"} {
		var floor uint64
		if n := testing.AllocsPerRun(100, func() { floor = sessionFloor(h, "doc-07") }); n != 0 {
			t.Errorf("sessionFloor on %.20q... allocates %v times per call, want 0", h, n)
		}
		if floor != ParseSession(h)["doc-07"] {
			t.Errorf("sessionFloor = %d, want %d", floor, ParseSession(h)["doc-07"])
		}
	}
}

// FuzzSessionFloor: for any header and document, the scanner reads what
// ParseSession's map holds.
func FuzzSessionFloor(f *testing.F) {
	for _, h := range sessionHeaders {
		f.Add(h, "a")
	}
	f.Fuzz(func(t *testing.T, h, doc string) {
		if got, want := sessionFloor(h, core.DocID(doc)), ParseSession(h)[core.DocID(doc)]; got != want {
			t.Fatalf("sessionFloor(%q, %q) = %d, ParseSession reads %d", h, doc, got, want)
		}
	})
}

// TestGatewaySessionWriteThenRead drives the full HTTP session flow: PUT a
// new version through the gateway, thread the returned session header into
// an immediate GET at a different entry node, and require the response to
// carry at least the written version — read-my-writes across edges.
func TestGatewaySessionWriteThenRead(t *testing.T) {
	c := startCluster(t, map[core.DocID][]byte{"d": []byte("v0")})
	gw := New(c, Config{Origin: FixedOrigin(2)})
	defer gw.Close()
	srv := httptest.NewServer(gw)
	defer srv.Close()

	put, err := http.NewRequest(http.MethodPut, srv.URL+"/docs/d", bytes.NewReader([]byte("v1")))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(put)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT status %d, want %d", resp.StatusCode, http.StatusNoContent)
	}
	sess := resp.Header.Get(SessionHeader)
	if sess != "d=1" {
		t.Fatalf("PUT session header %q, want %q", sess, "d=1")
	}
	if resp.Header.Get(DocVersionHeader) != "1" {
		t.Fatalf("PUT version header %q, want 1", resp.Header.Get(DocVersionHeader))
	}

	get, err := http.NewRequest(http.MethodGet, srv.URL+"/docs/d", nil)
	if err != nil {
		t.Fatal(err)
	}
	get.Header.Set(SessionHeader, sess)
	resp, err = http.DefaultClient.Do(get)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET status %d", resp.StatusCode)
	}
	if string(body) != "v1" {
		t.Fatalf("session GET body %q, want the written %q", body, "v1")
	}
	if got := resp.Header.Get(DocVersionHeader); got != "1" {
		t.Fatalf("session GET version %q, want 1", got)
	}
}

// TestHeaderNamesCanonical: every X-Webwave-* name in the package's source
// is in canonical MIME form, the form http.Header stores, so setting or
// reading one allocates no canonical copy per request.
func TestHeaderNamesCanonical(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	names := 0
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			name, _ := strconv.Unquote(lit.Value)
			if strings.HasPrefix(strings.ToLower(name), "x-webwave-") {
				names++
				if canon := textproto.CanonicalMIMEHeaderKey(name); name != canon {
					t.Errorf("%s: header %q is not canonical; write %q", file, name, canon)
				}
			}
			return true
		})
	}
	if names < 5 {
		t.Fatalf("found %d X-Webwave-* names, want the 5 the gateway sets or reads", names)
	}
}
