package webwave

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestLiveStackImportFence is a ratchet on the split ROADMAP asks for: the
// packages that serve live traffic may import only each other plus the
// shared leaves (core, tree, stats, trace), never the paper-reproduction or
// measurement packages. Test files are exempt.
func TestLiveStackImportFence(t *testing.T) {
	live := []string{"server", "cluster", "transport", "netproto", "cachestore", "diskstore", "gateway"}
	allowed := map[string]bool{}
	for _, p := range append([]string{"core", "tree", "stats", "trace"}, live...) {
		allowed["webwave/internal/"+p] = true
	}
	for _, pkg := range live {
		files, err := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("internal/%s: no source files found: %v", pkg, err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if (path == "webwave" || strings.HasPrefix(path, "webwave/")) && !allowed[path] {
					t.Errorf("%s imports %s, which is outside the live stack", file, path)
				}
			}
		}
	}
}
