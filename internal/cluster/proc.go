package cluster

// Process-backed topology registry: ProcCluster assembles the same routing
// tree the in-process Cluster does, but every node is a separate OS process
// (an exec of `webwave-cluster node ...`) speaking the wire protocol over
// real TCP. The failure injection is correspondingly real — KillNode is
// SIGKILL, RestartNode is a re-exec onto the same address and DataDir (the
// disk tier's journal makes it a warm restart), and Stop is SIGTERM with a
// drain deadline before SIGKILL reaps stragglers.
//
// Both harnesses satisfy the Harness interface, so scenario code written
// against goroutine clusters drives a few hundred processes unchanged.

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"webwave/internal/core"
	"webwave/internal/netproto"
	"webwave/internal/transport"
	"webwave/internal/tree"
)

// Harness is the failure-injection surface shared by the in-process Cluster
// and the process-backed ProcCluster: inject traffic, scrape stats and
// topology, kill/restart nodes, tear down. Scenario engines (workload's
// chaos and swarm runners) are written against this, not a concrete type.
type Harness interface {
	Inject(origin int, doc core.DocID) error
	Responses() int64
	ServedBy() map[int]int64
	Drain(timeout time.Duration) int64
	Stats() ([]*netproto.Stats, error)
	Topology() ([]int, error)
	KillNode(v int) bool
	RestartNode(v int) error
	NodeDead(v int) bool
	Tree() *tree.Tree
	Stop()
}

var (
	_ Harness = (*Cluster)(nil)
	_ Harness = (*ProcCluster)(nil)
)

// ProcConfig parameterizes a process-backed cluster.
type ProcConfig struct {
	// Command is the argv prefix each node process is exec'd with; node
	// flags (-id, -addr, ...) are appended. Typically
	// {"bin/webwave-cluster", "node"}; tests pass their own re-exec'd
	// binary. Required.
	Command []string
	// Env entries are appended to the parent's environment for every node
	// process.
	Env []string
	// WorkDir receives per-node DataDirs (WorkDir/data/node-<id>) and
	// stderr logs (WorkDir/logs/node-<id>.log). Empty creates a temp dir
	// that Stop removes.
	WorkDir string
	// BasePort fixes the address plan to 127.0.0.1:BasePort+id; 0 probes
	// the kernel for a block of free ports instead.
	BasePort int

	NumDocs  int // root publishes the deterministic SwarmDocs catalog
	DocBytes int

	GossipPeriod    time.Duration // default 20ms
	DiffusionPeriod time.Duration // default 40ms
	Window          time.Duration // default 400ms
	HeartbeatPeriod time.Duration // default 50ms (0 keeps the default; <0 disables)
	HeartbeatMisses int

	CacheBudgetBytes int64
	DiskBudgetBytes  int64

	// SpawnBudget bounds how long NewProc waits for each node's readiness
	// handshake (default 10s — a hundred execs share one machine).
	SpawnBudget time.Duration
	// DrainTimeout is Stop's SIGTERM grace before SIGKILL (default 5s).
	DrainTimeout time.Duration
	// ScrapeTimeout bounds each node's stats reply; a slow or wedged node
	// costs one timeout and a scrape_errors tick, not the whole scrape
	// (default 2s).
	ScrapeTimeout time.Duration
}

func (cfg ProcConfig) withDefaults() ProcConfig {
	if cfg.GossipPeriod <= 0 {
		cfg.GossipPeriod = 20 * time.Millisecond
	}
	if cfg.DiffusionPeriod <= 0 {
		cfg.DiffusionPeriod = 40 * time.Millisecond
	}
	if cfg.Window <= 0 {
		cfg.Window = 400 * time.Millisecond
	}
	if cfg.HeartbeatPeriod == 0 {
		cfg.HeartbeatPeriod = 50 * time.Millisecond
	} else if cfg.HeartbeatPeriod < 0 {
		cfg.HeartbeatPeriod = 0
	}
	if cfg.NumDocs <= 0 {
		cfg.NumDocs = 16
	}
	if cfg.DocBytes <= 0 {
		cfg.DocBytes = 512
	}
	if cfg.SpawnBudget <= 0 {
		cfg.SpawnBudget = 10 * time.Second
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	if cfg.ScrapeTimeout <= 0 {
		cfg.ScrapeTimeout = 2 * time.Second
	}
	return cfg
}

// procNode is one node's registry entry across incarnations: the argv it is
// (re-)exec'd with, its fixed address, and the current process.
type procNode struct {
	argv   []string
	addr   string
	cmd    *exec.Cmd
	exited chan struct{} // closed by the reaper of the current incarnation
}

// ProcCluster is a running tree of node processes.
type ProcCluster struct {
	t   *tree.Tree
	cfg ProcConfig
	net transport.TCPNetwork

	regMu   sync.Mutex
	nodes   []*procNode
	dead    []bool
	tmpWork bool // WorkDir was auto-created; Stop removes it

	injectMu    sync.Mutex
	injectConns []transport.Conn
	reqSeq      []uint64

	outstanding atomic.Int64
	responses   atomic.Int64
	servedByMu  sync.Mutex
	servedBy    map[int]int64

	scrapeErrs      atomic.Int64
	forcedTeardowns atomic.Int64
	stopped         chan struct{}
}

// freePorts asks the kernel for n distinct free TCP ports by holding n
// listeners open at once (so no port repeats), then releasing them. The
// window between release and the node binding is racy in principle; in
// practice the swarm owns the machine for the run, and SO_REUSEADDR plus
// bind retries absorb stragglers.
func freePorts(n int) ([]int, error) {
	listeners := make([]net.Listener, 0, n)
	defer func() {
		for _, l := range listeners {
			l.Close()
		}
	}()
	ports := make([]int, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("probe free port: %w", err)
		}
		listeners = append(listeners, l)
		ports[i] = l.Addr().(*net.TCPAddr).Port
	}
	return ports, nil
}

// NewProc spawns one OS process per tree node (parents before children) and
// waits for every node to answer a ping — the same handshake failover uses —
// before returning. The handshaken connections double as the injection
// conns.
func NewProc(t *tree.Tree, cfg ProcConfig) (*ProcCluster, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Command) == 0 {
		return nil, fmt.Errorf("proc: ProcConfig.Command is required")
	}
	p := &ProcCluster{
		t:           t,
		cfg:         cfg,
		net:         transport.TCPNetwork{DialTimeout: 2 * time.Second},
		nodes:       make([]*procNode, t.Len()),
		dead:        make([]bool, t.Len()),
		injectConns: make([]transport.Conn, t.Len()),
		reqSeq:      make([]uint64, t.Len()),
		servedBy:    make(map[int]int64),
		stopped:     make(chan struct{}),
	}
	if p.cfg.WorkDir == "" {
		dir, err := os.MkdirTemp("", "webwave-swarm-")
		if err != nil {
			return nil, fmt.Errorf("proc: workdir: %w", err)
		}
		p.cfg.WorkDir = dir
		p.tmpWork = true
	}
	for _, sub := range []string{"data", "logs"} {
		if err := os.MkdirAll(filepath.Join(p.cfg.WorkDir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("proc: workdir: %w", err)
		}
	}

	addrs := make([]string, t.Len())
	if cfg.BasePort > 0 {
		for v := range addrs {
			addrs[v] = fmt.Sprintf("127.0.0.1:%d", cfg.BasePort+v)
		}
	} else {
		ports, err := freePorts(t.Len())
		if err != nil {
			return nil, fmt.Errorf("proc: %w", err)
		}
		for v := range addrs {
			addrs[v] = fmt.Sprintf("127.0.0.1:%d", ports[v])
		}
	}

	// Build every node's argv up front (all addresses are fixed), then exec
	// in BFS order so most children find their parent listening on the
	// first dial; the -dial-attempts budget covers the rest.
	for _, v := range t.BFSOrder() {
		argv := p.nodeArgv(v, addrs)
		p.nodes[v] = &procNode{argv: argv, addr: addrs[v]}
		if err := p.spawn(v); err != nil {
			p.Stop()
			return nil, fmt.Errorf("proc: node %d: %w", v, err)
		}
	}

	// Readiness: handshake every node in parallel. A node that never
	// answers within the spawn budget fails the whole bring-up — a swarm
	// that starts degraded would poison every measurement after it.
	errs := make([]error, t.Len())
	var wg sync.WaitGroup
	for v := 0; v < t.Len(); v++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			conn, err := p.handshake(addrs[v], cfg.SpawnBudget)
			if err != nil {
				errs[v] = err
				return
			}
			p.injectMu.Lock()
			p.injectConns[v] = conn
			p.injectMu.Unlock()
			go p.collect(conn)
		}(v)
	}
	wg.Wait()
	for v, err := range errs {
		if err != nil {
			p.Stop()
			return nil, fmt.Errorf("proc: node %d not ready: %w", v, err)
		}
	}
	return p, nil
}

// nodeArgv assembles the node-subcommand argv for node v (without the
// Command prefix).
func (p *ProcCluster) nodeArgv(v int, addrs []string) []string {
	cfg := p.cfg
	d := func(t time.Duration) string { return t.String() }
	argv := []string{
		"-id", strconv.Itoa(v),
		"-addr", addrs[v],
		"-gossip", d(cfg.GossipPeriod),
		"-diffusion", d(cfg.DiffusionPeriod),
		"-window", d(cfg.Window),
		"-heartbeat", d(cfg.HeartbeatPeriod),
		"-data-dir", filepath.Join(cfg.WorkDir, "data", fmt.Sprintf("node-%d", v)),
		"-dial-attempts", "10",
		"-drain", d(cfg.DrainTimeout),
	}
	if cfg.HeartbeatMisses > 0 {
		argv = append(argv, "-heartbeat-misses", strconv.Itoa(cfg.HeartbeatMisses))
	}
	if cfg.CacheBudgetBytes > 0 {
		argv = append(argv, "-cache-budget", strconv.FormatInt(cfg.CacheBudgetBytes, 10))
	}
	if cfg.DiskBudgetBytes > 0 {
		argv = append(argv, "-disk-budget", strconv.FormatInt(cfg.DiskBudgetBytes, 10))
	}
	if v == p.t.Root() {
		argv = append(argv,
			"-docs", strconv.Itoa(cfg.NumDocs),
			"-doc-bytes", strconv.Itoa(cfg.DocBytes),
		)
	} else {
		parent := p.t.Parent(v)
		argv = append(argv,
			"-parent-id", strconv.Itoa(parent),
			"-parent-addr", addrs[parent],
		)
		anc := ""
		for a := parent; a >= 0; a = p.t.Parent(a) {
			if anc != "" {
				anc += ","
			}
			anc += addrs[a]
		}
		argv = append(argv, "-ancestors", anc)
	}
	return argv
}

// spawn execs node v's current argv and installs the reaper for the new
// incarnation. Caller holds no locks; the node must not be running.
func (p *ProcCluster) spawn(v int) error {
	node := p.nodes[v]
	logPath := filepath.Join(p.cfg.WorkDir, "logs", fmt.Sprintf("node-%d.log", v))
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("open log: %w", err)
	}
	argv := append(append([]string(nil), p.cfg.Command[1:]...), node.argv...)
	cmd := exec.Command(p.cfg.Command[0], argv...)
	cmd.Env = append(os.Environ(), p.cfg.Env...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// On linux the kernel SIGKILLs the child if this process dies first, so
	// a crashed or interrupted harness cannot strand a hundred node
	// processes.
	cmd.SysProcAttr = nodeSysProcAttr()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return fmt.Errorf("exec %s: %w", p.cfg.Command[0], err)
	}
	exited := make(chan struct{})
	p.regMu.Lock()
	node.cmd = cmd
	node.exited = exited
	p.regMu.Unlock()
	go func() {
		cmd.Wait() // the exit cause is judged by whoever requested it
		logf.Close()
		close(exited)
	}()
	return nil
}

// handshake dials addr until it answers a ping or the budget runs out. The
// returned conn carries the completed handshake and is ready for traffic.
func (p *ProcCluster) handshake(addr string, budget time.Duration) (transport.Conn, error) {
	deadline := time.Now().Add(budget)
	backoff := &transport.Backoff{Base: 25 * time.Millisecond, Cap: 250 * time.Millisecond}
	var lastErr error = fmt.Errorf("no attempt completed")
	for {
		conn, err := p.net.Dial(addr)
		if err == nil {
			err = conn.Send(&netproto.Envelope{Kind: netproto.TypePing, From: -1})
			if err == nil {
				pong := make(chan error, 1)
				go func() {
					for {
						env, err := conn.Recv()
						if err != nil {
							pong <- err
							return
						}
						kind := env.Kind
						netproto.PutEnvelope(env)
						if kind == netproto.TypePong {
							pong <- nil
							return
						}
					}
				}()
				t := time.NewTimer(time.Second)
				select {
				case err = <-pong:
					t.Stop()
					if err == nil {
						return conn, nil
					}
					conn.Close()
				case <-t.C:
					conn.Close() // unblocks the Recv goroutine
					<-pong
					err = fmt.Errorf("ping unanswered after 1s")
				}
			} else {
				conn.Close()
			}
		}
		lastErr = err
		if !time.Now().Before(deadline) {
			return nil, lastErr
		}
		t := time.NewTimer(backoff.Next())
		select {
		case <-p.stopped:
			t.Stop()
			return nil, fmt.Errorf("cluster stopping")
		case <-t.C:
		}
	}
}

func (p *ProcCluster) collect(conn transport.Conn) {
	for {
		env, err := conn.Recv()
		if err != nil {
			return
		}
		if env.Kind != netproto.TypeResponse {
			netproto.PutEnvelope(env)
			continue
		}
		p.outstanding.Add(-1)
		p.responses.Add(1)
		p.servedByMu.Lock()
		p.servedBy[env.ServedBy]++
		p.servedByMu.Unlock()
		netproto.PutEnvelope(env)
	}
}

// Inject sends one client request for doc entering the tree at origin. An
// origin marked dead fails immediately — a send into a SIGKILLed process's
// half-open socket would otherwise sit on kernel buffers instead of
// erroring, hiding the failure from the scenario's accounting.
func (p *ProcCluster) Inject(origin int, doc core.DocID) error {
	if origin < 0 || origin >= p.t.Len() {
		return fmt.Errorf("proc: origin %d out of range", origin)
	}
	if p.NodeDead(origin) {
		return fmt.Errorf("proc: origin %d is dead", origin)
	}
	p.injectMu.Lock()
	p.reqSeq[origin]++
	seq := p.reqSeq[origin]
	conn := p.injectConns[origin]
	p.injectMu.Unlock()
	if conn == nil {
		return fmt.Errorf("proc: origin %d has no injection conn", origin)
	}
	p.outstanding.Add(1)
	err := conn.Send(&netproto.Envelope{
		Kind: netproto.TypeRequest, From: -1, To: origin,
		Origin: origin, ReqID: seq, Doc: doc,
	})
	if err != nil {
		p.outstanding.Add(-1)
	}
	return err
}

// Drain waits until every injected request has been answered or the timeout
// elapses, returning the number still outstanding. Requests that died with
// a killed node never resolve; callers account for them via availability,
// not Drain.
func (p *ProcCluster) Drain(timeout time.Duration) int64 {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if p.outstanding.Load() <= 0 {
			return 0
		}
		time.Sleep(5 * time.Millisecond)
	}
	return p.outstanding.Load()
}

// Responses returns the number of answered requests so far.
func (p *ProcCluster) Responses() int64 { return p.responses.Load() }

// ServedBy returns how many requests each node has served (by responses).
func (p *ProcCluster) ServedBy() map[int]int64 {
	p.servedByMu.Lock()
	defer p.servedByMu.Unlock()
	out := make(map[int]int64, len(p.servedBy))
	for k, v := range p.servedBy {
		out[k] = v
	}
	return out
}

// Tree returns the routing tree the cluster was built on.
func (p *ProcCluster) Tree() *tree.Tree { return p.t }

// Addr returns node v's listen address (empty when out of range).
func (p *ProcCluster) Addr(v int) string {
	if v < 0 || v >= len(p.nodes) {
		return ""
	}
	return p.nodes[v].addr
}

// WorkDir returns the run's working directory (logs and data dirs).
func (p *ProcCluster) WorkDir() string { return p.cfg.WorkDir }

// Pid returns node v's current process id, or 0 when it is dead.
func (p *ProcCluster) Pid(v int) int {
	p.regMu.Lock()
	defer p.regMu.Unlock()
	if v < 0 || v >= len(p.nodes) || p.dead[v] || p.nodes[v].cmd == nil {
		return 0
	}
	return p.nodes[v].cmd.Process.Pid
}

// NodeDead reports whether node v is currently killed.
func (p *ProcCluster) NodeDead(v int) bool {
	if v < 0 || v >= len(p.dead) {
		return true
	}
	p.regMu.Lock()
	defer p.regMu.Unlock()
	return p.dead[v]
}

// KillNode SIGKILLs node v's process — no drain, no goodbye, the same
// failure a kernel panic or OOM kill presents to the rest of the tree — and
// waits for the corpse to be reaped. It reports whether a live node was
// actually killed.
func (p *ProcCluster) KillNode(v int) bool {
	if v < 0 || v >= len(p.nodes) {
		return false
	}
	p.regMu.Lock()
	if p.dead[v] || p.nodes[v].cmd == nil {
		p.regMu.Unlock()
		return false
	}
	p.dead[v] = true
	cmd, exited := p.nodes[v].cmd, p.nodes[v].exited
	p.regMu.Unlock()
	p.injectMu.Lock()
	if conn := p.injectConns[v]; conn != nil {
		conn.Close()
		p.injectConns[v] = nil
	}
	p.injectMu.Unlock()
	cmd.Process.Kill()
	<-exited
	return true
}

// RestartNode re-execs a killed node with its original argv: same address
// (SO_REUSEADDR and bind retries reclaim it from the dead incarnation's
// sockets), same DataDir (the journal replays, so the node comes back warm
// and re-announces what it held). The revived process must answer the
// readiness handshake before the node is marked live again.
func (p *ProcCluster) RestartNode(v int) error {
	if v < 0 || v >= len(p.nodes) {
		return fmt.Errorf("proc: restart node %d out of range", v)
	}
	p.regMu.Lock()
	if !p.dead[v] {
		p.regMu.Unlock()
		return fmt.Errorf("proc: restart node %d: not dead", v)
	}
	p.regMu.Unlock()
	if err := p.spawn(v); err != nil {
		return fmt.Errorf("proc: restart node %d: %w", v, err)
	}
	conn, err := p.handshake(p.nodes[v].addr, p.cfg.SpawnBudget)
	if err != nil {
		p.regMu.Lock()
		cmd, exited := p.nodes[v].cmd, p.nodes[v].exited
		p.regMu.Unlock()
		cmd.Process.Kill()
		<-exited
		return fmt.Errorf("proc: restart node %d: not ready: %w", v, err)
	}
	p.injectMu.Lock()
	p.injectConns[v] = conn
	p.injectMu.Unlock()
	p.regMu.Lock()
	p.dead[v] = false
	p.regMu.Unlock()
	go p.collect(conn)
	return nil
}

// Stats scrapes every live node in parallel and returns the replies ordered
// by node id. Dead nodes yield nil entries; a node that cannot be reached or
// does not answer within ScrapeTimeout also yields nil and ticks
// ScrapeErrors — partial results beat a scrape that hangs on one wedged
// process out of a hundred. The error return is always nil (kept for
// Harness parity with the in-process cluster).
func (p *ProcCluster) Stats() ([]*netproto.Stats, error) {
	out := make([]*netproto.Stats, p.t.Len())
	var wg sync.WaitGroup
	for v := 0; v < p.t.Len(); v++ {
		if p.NodeDead(v) {
			continue
		}
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			st, err := p.scrapeOne(v)
			if err != nil {
				if !p.NodeDead(v) { // a kill racing the scrape is not an error
					p.scrapeErrs.Add(1)
				}
				return
			}
			out[v] = st
		}(v)
	}
	wg.Wait()
	return out, nil
}

// scrapeOne queries node v's stats over a fresh connection, bounded by
// ScrapeTimeout (the transport has no read deadline, so the timer closes
// the conn to unblock the read).
func (p *ProcCluster) scrapeOne(v int) (*netproto.Stats, error) {
	conn, err := p.net.Dial(p.nodes[v].addr)
	if err != nil {
		return nil, fmt.Errorf("stats dial %d: %w", v, err)
	}
	defer conn.Close()
	if err := conn.Send(&netproto.Envelope{Kind: netproto.TypeStatsQuery, From: -1, To: v}); err != nil {
		return nil, fmt.Errorf("stats query %d: %w", v, err)
	}
	timer := time.AfterFunc(p.cfg.ScrapeTimeout, func() { conn.Close() })
	defer timer.Stop()
	for {
		env, err := conn.Recv()
		if err != nil {
			return nil, fmt.Errorf("stats reply %d: %w", v, err)
		}
		if env.Kind == netproto.TypeStatsReply && env.Stats != nil {
			st := env.Stats
			netproto.PutEnvelope(env)
			return st, nil
		}
		netproto.PutEnvelope(env)
	}
}

// ScrapeErrors returns how many per-node stats scrapes have failed or timed
// out so far (excluding nodes that were dead or killed mid-scrape).
func (p *ProcCluster) ScrapeErrors() int64 { return p.scrapeErrs.Load() }

// Topology scrapes each live node's current parent id — the repaired
// routing tree after failures, as the nodes themselves see it. Dead and
// unreachable nodes report -1; index Root() is always -1.
func (p *ProcCluster) Topology() ([]int, error) {
	sts, err := p.Stats()
	if err != nil {
		return nil, err
	}
	out := make([]int, len(sts))
	for v, st := range sts {
		out[v] = -1
		if st != nil {
			out[v] = st.ParentID
		}
	}
	return out, nil
}

// ForcedTeardowns returns how many nodes failed to drain within
// DrainTimeout at Stop and had to be SIGKILLed — 0 after a clean run.
func (p *ProcCluster) ForcedTeardowns() int64 { return p.forcedTeardowns.Load() }

// Stop tears the swarm down: SIGTERM to every live node (graceful drain),
// then SIGKILL for any process still running after DrainTimeout. Stragglers
// are counted in ForcedTeardowns. Safe to call more than once.
func (p *ProcCluster) Stop() {
	select {
	case <-p.stopped:
	default:
		close(p.stopped)
	}
	p.injectMu.Lock()
	for v, conn := range p.injectConns {
		if conn != nil {
			conn.Close()
			p.injectConns[v] = nil
		}
	}
	p.injectMu.Unlock()

	type victim struct {
		cmd    *exec.Cmd
		exited chan struct{}
	}
	var victims []victim
	p.regMu.Lock()
	for v, node := range p.nodes {
		if node == nil || node.cmd == nil || p.dead[v] {
			continue
		}
		p.dead[v] = true
		victims = append(victims, victim{node.cmd, node.exited})
	}
	p.regMu.Unlock()

	for _, vic := range victims {
		signalTerm(vic.cmd.Process)
	}
	deadline := time.NewTimer(p.cfg.DrainTimeout)
	defer deadline.Stop()
	for _, vic := range victims {
		select {
		case <-vic.exited:
		case <-deadline.C:
			// Budget spent: everything still running is killed outright.
			for _, rest := range victims {
				select {
				case <-rest.exited:
				default:
					p.forcedTeardowns.Add(1)
					rest.cmd.Process.Kill()
					<-rest.exited
				}
			}
			if p.tmpWork {
				os.RemoveAll(p.cfg.WorkDir)
			}
			return
		}
	}
	if p.tmpWork {
		os.RemoveAll(p.cfg.WorkDir)
	}
}
