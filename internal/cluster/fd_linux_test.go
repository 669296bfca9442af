package cluster

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"webwave/internal/core"
	"webwave/internal/netproto"
	"webwave/internal/tree"
)

// openFiles returns what every descriptor of this process points at.
func openFiles(t *testing.T) []string {
	t.Helper()
	des, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	var targets []string
	for _, de := range des {
		// The descriptor ReadDir itself held is gone by now: skip it.
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", de.Name())); err == nil {
			targets = append(targets, target)
		}
	}
	return targets
}

// under returns the targets inside dir.
func under(targets []string, dir string) []string {
	var in []string
	for _, target := range targets {
		if strings.HasPrefix(target, dir+string(filepath.Separator)) {
			in = append(in, target)
		}
	}
	return in
}

// TestStopReleasesEveryDescriptor: the disk tier keeps a descriptor per
// body it has written or read, and a process that builds and tears down
// clusters by the dozen (the benchmark does) must get every one back from
// Stop, KillNode and a warm RestartNode's predecessor — not from a
// finalizer some garbage collections later.
func TestStopReleasesEveryDescriptor(t *testing.T) {
	dataDir := t.TempDir()
	before := openFiles(t)

	tr := tree.MustFromParents([]int{tree.NoParent, 0})
	docs := map[core.DocID][]byte{"d": []byte("held-open body")}
	cfg := smallConfig()
	cfg.Ancestors = true
	cfg.DataDir = dataDir
	c, err := New(tr, docs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	// Drive traffic through the child until diffusion hands it a copy of
	// d: admission writes the body through to the child's disk tier, which
	// keeps the descriptor.
	child := filepath.Join(dataDir, "node-1")
	bodies := filepath.Join(child, "bodies")
	deadline := time.Now().Add(10 * time.Second)
	for len(under(openFiles(t), bodies)) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("child never held a body descriptor")
		}
		for i := 0; i < 40; i++ {
			if err := c.Inject(1, "d"); err != nil {
				t.Fatal(err)
			}
		}
		if left := c.Drain(5 * time.Second); left != 0 {
			t.Fatalf("%d requests unanswered during warmup", left)
		}
	}

	if !c.KillNode(1) {
		t.Fatal("KillNode(1) reported no kill")
	}
	if held := under(openFiles(t), child); len(held) != 0 {
		t.Fatalf("killed node still holds %v", held)
	}

	// Warm recovery reads the surviving body, which opens it again.
	if err := c.RestartNode(1); err != nil {
		t.Fatal(err)
	}
	waitNodeStats(t, c, 1, "restarted node warm", func(st *netproto.Stats) bool { return st.WarmDocs >= 1 })
	if len(under(openFiles(t), bodies)) == 0 {
		t.Fatal("warm restart read no body: the test no longer covers the lazy-open path")
	}

	c.Stop()
	after := openFiles(t)
	if held := under(after, dataDir); len(held) != 0 {
		t.Fatalf("stopped cluster still holds %v", held)
	}
	// Fewer is possible (a finalizer closing an earlier test's leftovers);
	// more is a leak of some other kind.
	if len(after) > len(before) {
		t.Fatalf("%d descriptors before New, %d after Stop:\n%s", len(before), len(after), strings.Join(after, "\n"))
	}
}
