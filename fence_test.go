package webwave

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
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
		for file, imports := range importsOf(t, filepath.Join("internal", pkg)) {
			for _, path := range imports {
				if (path == "webwave" || strings.HasPrefix(path, "webwave/")) && !allowed[path] {
					t.Errorf("%s imports %s, which is outside the live stack", file, path)
				}
			}
		}
	}
}

// TestPaperStackImportsNoWorkload is a ratchet on the other side of the
// split: the paper reproduction, the directories the Makefile counts as
// LOC_PAPER, never imports the measurement stack's scenario runners. Test
// files are exempt.
func TestPaperStackImportsNoWorkload(t *testing.T) {
	dirs := makeVar(t, "LOC_PAPER")
	if len(dirs) == 0 {
		t.Fatal("the Makefile lists no LOC_PAPER directories")
	}
	for _, dir := range dirs {
		for file, imports := range importsOf(t, dir) {
			for _, path := range imports {
				if path == "webwave/internal/workload" {
					t.Errorf("%s imports %s, which is measurement code", file, path)
				}
			}
		}
	}
}

// importsOf maps each non-test Go file in dir to the paths it imports.
func importsOf(t *testing.T, dir string) map[string][]string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("%s: no source files found: %v", dir, err)
	}
	out := map[string][]string{}
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
			out[file] = append(out[file], path)
		}
	}
	return out
}

// makeVar returns the words of a simple Makefile variable, its continuation
// lines joined and any $(addprefix p,words) expanded.
func makeVar(t *testing.T, name string) []string {
	t.Helper()
	blob, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	text := strings.ReplaceAll(string(blob), "\\\n", " ")
	m := regexp.MustCompile(`(?m)^` + name + `\s*=(.*)$`).FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("the Makefile does not set %s", name)
	}
	addprefix := regexp.MustCompile(`\$\(addprefix ([^,]+),([^)]*)\)`)
	value := addprefix.ReplaceAllStringFunc(m[1], func(call string) string {
		parts := addprefix.FindStringSubmatch(call)
		words := strings.Fields(parts[2])
		for i := range words {
			words[i] = parts[1] + words[i]
		}
		return strings.Join(words, " ")
	})
	return strings.Fields(value)
}
