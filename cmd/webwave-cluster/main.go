// Command webwave-cluster starts a live WebWave cluster — one goroutine
// server per routing-tree node speaking the wire protocol over an in-memory
// transport — drives Zipf document traffic through it, and reports the
// measured load distribution against the TLB optimum. (The same servers run
// over TCP; see internal/cluster's TestClusterOverTCP.)
//
// Usage:
//
//	webwave-cluster [-docs 8] [-rate 4000] [-horizon 3] [-parents "-1 0 0 1 1 2 2"]
//
// The `node` subcommand instead hosts a single server in this process over
// real TCP until SIGTERM — the building block the webwave-swarm runner
// spawns hundreds of:
//
//	webwave-cluster node -id 3 -addr 127.0.0.1:42003 -parent-id 1 -parent-addr 127.0.0.1:42001 ...
package main

import (
	"flag"
	"fmt"
	"os"

	"webwave/internal/cluster"
	"webwave/internal/repro"
	"webwave/internal/tree"
)

func main() {
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "node" {
		if err := cluster.RunNode(args[1:], os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "webwave-cluster node:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(args); err != nil {
		fmt.Fprintln(os.Stderr, "webwave-cluster:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("webwave-cluster", flag.ContinueOnError)
	docs := fs.Int("docs", 8, "catalog size")
	rate := fs.Float64("rate", 4000, "total request rate (req/s)")
	horizon := fs.Float64("horizon", 3, "schedule length (s)")
	seed := fs.Int64("seed", 7, "RNG seed")
	parents := fs.String("parents", "-1 0 0 1 1 2 2", "routing tree parent list")
	tunneling := fs.Bool("tunneling", true, "enable barrier tunneling")
	cacheBudget := fs.Int64("cache-budget", 0, "per-server cache budget, bytes (0 = unlimited)")
	cacheShards := fs.Int("cache-shards", 0, "cache store stripe count (0 = follow -shards)")
	dataDir := fs.String("data-dir", "", "disk-tier root (per-node subdirs for spilled bodies + recovery journal; empty = no disk tier)")
	diskBudget := fs.Int64("disk-budget", 0, "per-server disk-tier budget, bytes (0 = unlimited; needs -data-dir)")
	shards := fs.Int("shards", 0, "doc-sharded event loops per server (0 = GOMAXPROCS)")
	ancestors := fs.Bool("ancestors", false, "give nodes ancestor failover lists (survive interior-node loss)")
	heartbeat := fs.Duration("heartbeat", 0, "failure-detector period, e.g. 50ms (0 = off; >0 implies -ancestors)")
	heartbeatMisses := fs.Int("heartbeat-misses", 0, "silent heartbeat periods before a neighbor is declared dead (0 = default 3)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	t, err := tree.ParseParents(*parents)
	if err != nil {
		return err
	}
	cfg := repro.LiveConfig{
		Tree:             t,
		NumDocs:          *docs,
		TotalRate:        *rate,
		Horizon:          *horizon,
		Seed:             *seed,
		Tunneling:        *tunneling,
		CacheBudgetBytes: *cacheBudget,
		CacheShards:      *cacheShards,
		DataDir:          *dataDir,
		DiskBudgetBytes:  *diskBudget,
		NumShards:        *shards,
		Ancestors:        *ancestors,
		HeartbeatPeriod:  *heartbeat,
		HeartbeatMisses:  *heartbeatMisses,
	}
	res, err := repro.RunLiveCluster(cfg)
	if err != nil {
		return err
	}
	fmt.Print(res.Render())
	return nil
}
