package cluster

// Single-node exec mode: RunNode hosts exactly one live server in this OS
// process, speaking the ordinary wire protocol over real TCP. It is what
// `webwave-cluster node ...` runs and what the swarm harness (ProcCluster)
// spawns a few hundred of; the process is the failure domain, so KillNode
// becomes SIGKILL and RestartNode becomes re-exec — no in-memory shortcuts.
//
// The process answers stats queries, pings and client requests on its one
// listen address (the wire protocol is the stats endpoint; nothing extra to
// scrape), and shuts down cleanly on SIGTERM/SIGINT: the server drains its
// shard/control loops and closes its connections under a hard deadline, so
// swarm teardown reaps every child instead of leaving strays.

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"webwave/internal/core"
	"webwave/internal/server"
	"webwave/internal/transport"
)

// SwarmDocIDs returns the deterministic n-document catalog every swarm
// component derives independently: the root node publishes it, the runner
// injects requests for it. No seed — the catalog is a function of its size,
// so a runner and a root exec'd from different binaries cannot disagree.
func SwarmDocIDs(n int) []core.DocID {
	ids := make([]core.DocID, n)
	for i := range ids {
		ids[i] = core.DocID(fmt.Sprintf("swarm-%04d", i))
	}
	return ids
}

// SwarmDocs materializes the catalog with docBytes-sized bodies.
func SwarmDocs(n, docBytes int) map[core.DocID][]byte {
	if docBytes <= 0 {
		docBytes = 512
	}
	docs := make(map[core.DocID][]byte, n)
	for _, id := range SwarmDocIDs(n) {
		body := make([]byte, docBytes)
		pattern := []byte("webwave swarm body " + string(id) + " ")
		for i := range body {
			body[i] = pattern[i%len(pattern)]
		}
		docs[id] = body
	}
	return docs
}

// RunNode parses single-node flags, runs one server until SIGTERM/SIGINT,
// and drains it under -drain deadline. It returns only on flag errors,
// startup failures, or after a completed shutdown; stderr receives the
// lifecycle lines (stdout stays clean for future machine-readable output).
func RunNode(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("webwave-cluster node", flag.ContinueOnError)
	fs.SetOutput(stderr)
	id := fs.Int("id", 0, "node id in the routing tree")
	addr := fs.String("addr", "", "listen address (host:port; required)")
	parentID := fs.Int("parent-id", -1, "parent node id (-1 = root)")
	parentAddr := fs.String("parent-addr", "", "parent listen address (non-root)")
	ancestors := fs.String("ancestors", "", "comma-separated failover candidates, nearest first")
	docs := fs.Int("docs", 0, "root only: publish the deterministic swarm catalog of this size")
	docBytes := fs.Int("doc-bytes", 512, "root only: body bytes per catalog document")
	gossip := fs.Duration("gossip", 20*time.Millisecond, "gossip period")
	diffusion := fs.Duration("diffusion", 40*time.Millisecond, "diffusion period")
	window := fs.Duration("window", 400*time.Millisecond, "rate-estimation window")
	heartbeat := fs.Duration("heartbeat", 40*time.Millisecond, "liveness-detector period (0 = off)")
	heartbeatMisses := fs.Int("heartbeat-misses", 0, "silent periods before a neighbor is dead (0 = default 3)")
	shards := fs.Int("shards", 1, "doc-sharded event loops (swarm nodes default to 1: the process count is the parallelism)")
	cacheBudget := fs.Int64("cache-budget", 0, "cache byte budget (0 = unlimited)")
	dataDir := fs.String("data-dir", "", "disk-tier root for this node (enables warm re-exec recovery)")
	diskBudget := fs.Int64("disk-budget", 0, "disk-tier byte budget (0 = unlimited)")
	tunneling := fs.Bool("tunneling", true, "enable barrier tunneling")
	dialTimeout := fs.Duration("dial-timeout", 2*time.Second, "per-dial connect timeout")
	dialAttempts := fs.Int("dial-attempts", 3, "startup parent-dial budget before orphan-starting")
	reconnectCap := fs.Duration("reconnect-cap", 2*time.Second, "failover backoff ceiling")
	bindWait := fs.Duration("bind-wait", 5*time.Second, "address-reuse bind retry budget (re-exec reclaiming its old port)")
	drain := fs.Duration("drain", 5*time.Second, "graceful-drain deadline on SIGTERM before a hard exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" {
		return fmt.Errorf("node: -addr is required")
	}

	netw := transport.TCPNetwork{
		DialTimeout:   *dialTimeout,
		BindRetryWait: *bindWait,
	}
	scfg := server.Config{
		ID:               *id,
		Addr:             *addr,
		ParentID:         *parentID,
		ParentAddr:       *parentAddr,
		GossipPeriod:     *gossip,
		DiffusionPeriod:  *diffusion,
		Window:           *window,
		HeartbeatPeriod:  *heartbeat,
		HeartbeatMisses:  *heartbeatMisses,
		NumShards:        *shards,
		CacheBudgetBytes: *cacheBudget,
		DataDir:          *dataDir,
		DiskBudgetBytes:  *diskBudget,
		Tunneling:        *tunneling,
		DialAttempts:     *dialAttempts,
		ReconnectCap:     *reconnectCap,
		Network:          netw,
	}
	if *ancestors != "" {
		for _, a := range strings.Split(*ancestors, ",") {
			if a = strings.TrimSpace(a); a != "" {
				scfg.AncestorAddrs = append(scfg.AncestorAddrs, a)
			}
		}
	}
	if *parentID < 0 && *docs > 0 {
		scfg.Docs = SwarmDocs(*docs, *docBytes)
	}

	srv, err := server.New(scfg)
	if err != nil {
		return fmt.Errorf("node %d: %w", *id, err)
	}
	if err := srv.Start(); err != nil {
		return fmt.Errorf("node %d: %w", *id, err)
	}
	fmt.Fprintf(stderr, "webwave-node ready id=%d addr=%s pid=%d\n", *id, srv.Addr(), os.Getpid())

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	got := <-sig
	// Notify stays installed: a repeated TERM during the drain is swallowed
	// instead of reverting to the default disposition and killing the drain.

	// Graceful drain under a hard deadline: Stop waits for the accept loop,
	// every shard/control loop, connection readers and the failover hunter;
	// a wedged goroutine must not turn teardown into a hung child the swarm
	// runner then has to SIGKILL.
	done := make(chan struct{})
	go func() {
		srv.Stop()
		close(done)
	}()
	select {
	case <-done:
		fmt.Fprintf(stderr, "webwave-node drained id=%d signal=%s\n", *id, got)
		return nil
	case <-time.After(*drain):
		return fmt.Errorf("node %d: drain deadline %s exceeded after %s", *id, *drain, got)
	}
}
