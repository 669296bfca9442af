# WebWave build / test entry points. CI invokes exactly these targets so
# local runs and the workflow agree.

GO ?= go
BENCH_JSON ?= bench-smoke.json
BENCH_WIRE_JSON ?= BENCH_wire.json
BENCH_CACHE_JSON ?= BENCH_cache.json
BENCH_SCALING_JSON ?= BENCH_scaling.json
BENCH_CHAOS_JSON ?= BENCH_chaos.json
BENCH_RESTART_JSON ?= BENCH_restart.json
BENCH_BIGRAM_JSON ?= BENCH_bigram.json
BENCH_SWARM_JSON ?= BENCH_swarm.json
BENCH_SWARM_SMOKE_JSON ?= BENCH_swarm_smoke.json
# The CI-sized swarm: 2 racks x 8 processes, 5-deep tree, rack 0 SIGKILLed
# mid-run. The committed smoke baseline pins exactly these figures, so the
# flags and the baseline must change together (regenerate with
# bench-swarm-smoke-baseline).
SWARM_SMOKE_FLAGS = -seed 1 -racks 2 -rack-nodes 8 -rack-depth 4 \
	-rate 120 -duration 8 -kill-rack 0
# The restart scenario replays the chaos workload twice (cold + warm), so
# the gated schedule is shorter than chaos's; the committed baseline pins
# this figure — change both together or the spec check fails.
RESTART_DURATION ?= 6
BENCHTIME ?= 0.3s
# CI sweeps a subset of the committed baseline's core counts; local full
# sweeps can set SCALING_PROCS=1,2,4,8.
SCALING_PROCS ?= 1,4
SCALING_DURATION ?= 2
# The single source of truth for the pinned staticcheck release: both the
# local `make staticcheck-install` and CI's lint job read this variable, so
# bumping the linter is a one-line change that cannot drift between the two.
STATICCHECK_VERSION ?= 2025.1
# Total-coverage floor (percent) enforced by cover-check; raise it as
# coverage grows, never lower it to make a PR pass.
COVER_FLOOR ?= 77.0

.PHONY: all build test race fmt vet staticcheck staticcheck-install vulncheck \
	cover cover-check cover-summary bench-smoke bench-micro \
	bench-cache bench-cache-baseline bench-scaling bench-scaling-baseline \
	bench-chaos bench-chaos-baseline \
	bench-restart bench-restart-baseline bench-bigram bench-bigram-baseline fuzz-smoke \
	swarm-bins bench-swarm bench-swarm-baseline bench-swarm-smoke \
	bench-swarm-smoke-baseline benchmark benchmark-test docs-check loc profile clean

all: build test

build:
	$(GO) build ./...

# Tests run shuffled (-shuffle=on) and uncached (-count=1) so hidden
# inter-test ordering dependencies fail fast instead of lurking.
test:
	$(GO) test -shuffle=on -count=1 ./...

race:
	$(GO) test -race -shuffle=on -count=1 ./...

vet:
	$(GO) vet ./...

# staticcheck must be on PATH; `make staticcheck-install` puts the pinned
# release there (CI runs exactly that, so local and CI lint agree).
staticcheck:
	staticcheck ./...

staticcheck-install:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)

# vulncheck scans the module against the Go vulnerability database.
# govulncheck must be on PATH (CI installs it; locally:
# go install golang.org/x/vuln/cmd/govulncheck@latest).
vulncheck:
	govulncheck ./...

# cover runs the full suite once with coverage accounting; cover-check then
# fails if total statement coverage fell below $(COVER_FLOOR)%. The floor is
# committed here so coverage can only ratchet up deliberately.
cover:
	$(GO) test -shuffle=on -count=1 -coverprofile=coverage.out ./...
	@$(GO) tool cover -func=coverage.out | tail -1

cover-check: cover
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	if awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit !(t+0 < f+0) }'; then \
		echo "FAIL total coverage $$total% is below the committed floor $(COVER_FLOOR)%"; exit 1; \
	else \
		echo "ok   total coverage $$total% (floor $(COVER_FLOOR)%)"; \
	fi

# cover-summary prints a per-package statement-coverage table (markdown)
# from the profile `make cover` left behind; CI appends it to the job's step
# summary so a coverage drop is visible per package, not just in the total.
cover-summary:
	@echo "| package | statements | coverage |"; echo "|---|---|---|"; \
	awk 'NR > 1 { \
		split($$1, p, ":"); file = p[1]; n = split(file, d, "/"); \
		pkg = d[1]; for (i = 2; i < n; i++) pkg = pkg "/" d[i]; \
		stmts[pkg] += $$2; total += $$2; \
		if ($$3 > 0) { hit[pkg] += $$2; hitTotal += $$2 } \
	} END { \
		for (k in stmts) printf "| %s | %d | %.1f%% |\n", k, stmts[k], 100 * hit[k] / stmts[k] | "sort"; \
		close("sort"); \
		printf "| **total** | **%d** | **%.1f%%** |\n", total, 100 * hitTotal / total \
	}' coverage.out

# fmt fails when any file needs formatting (CI mode); run `gofmt -w .` to fix.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# A short deterministic benchmark: small tree, reduced rate, full virtual
# duration (so the flash event actually fires), JSON report written to
# $(BENCH_JSON). Runs in well under a second of wall time.
bench-smoke:
	$(GO) run ./cmd/webwave-bench -scenario flash-crowd -seed 1 \
		-n 15 -rate 100 -json $(BENCH_JSON)

# bench-micro runs the hot-path micro-benchmarks (wire codec, server
# handlers, transport round trips, the HTTP gateway) with -benchmem,
# records ns/op and allocs/op into $(BENCH_WIRE_JSON), and fails on a >2x
# allocs/op regression against the committed baseline
# (bench/BENCH_wire_baseline.json).
# BenchmarkResidentDocBytes rides along ungated: its figure is the shard's
# heap per resident document (bytes/doc), printed in bench-micro.out.
bench-micro:
	$(GO) test -run 'TestNothing^' -bench . -benchmem -benchtime $(BENCHTIME) \
		./internal/netproto/ ./internal/server/ ./internal/transport/ \
		./internal/gateway/ > bench-micro.out || { cat bench-micro.out; exit 1; }
	@cat bench-micro.out
	$(GO) run ./cmd/benchwire -in bench-micro.out \
		-baseline bench/BENCH_wire_baseline.json -out $(BENCH_WIRE_JSON)

# bench-cache runs the deterministic cache-pressure scenario (byte-budgeted
# stores, eviction-policy shoot-out) and gates on hit-rate regressions
# (>10%) and budget violations against the committed baseline.
bench-cache:
	$(GO) run ./cmd/webwave-bench -scenario cache-pressure -seed 1 -json $(BENCH_CACHE_JSON)
	$(GO) run ./cmd/benchgate -report $(BENCH_CACHE_JSON) \
		-baseline bench/BENCH_cache_baseline.json -max-regress 0.10

# bench-cache-baseline regenerates the committed baseline after an
# intentional behavior change; commit the result.
bench-cache-baseline:
	$(GO) run ./cmd/webwave-bench -scenario cache-pressure -seed 1 \
		-json bench/BENCH_cache_baseline.json

# bench-scaling sweeps GOMAXPROCS over the live TCP stack (the servers'
# shard-loop count follows the core count) and gates on a >15% drop in
# per-core scaling efficiency vs the committed baseline. Wall-clock: NOT
# deterministic; the gate is self-normalized so it ports across hardware.
bench-scaling:
	$(GO) run ./cmd/webwave-bench -scenario core-scaling -seed 1 \
		-procs $(SCALING_PROCS) -duration $(SCALING_DURATION) -json $(BENCH_SCALING_JSON)
	$(GO) run ./cmd/benchgate -scaling-report $(BENCH_SCALING_JSON) \
		-scaling-baseline bench/BENCH_scaling_baseline.json -max-scaling-regress 0.15

# bench-scaling-baseline regenerates the committed scaling baseline after
# an intentional behavior change; commit the result. Three full 1/2/4/8
# sweeps, keeping the lowest efficiency per core count — a conservative
# floor one noisy wall-clock run cannot distort.
bench-scaling-baseline:
	$(GO) run ./cmd/webwave-bench -scenario core-scaling -seed 1 \
		-procs 1,2,4,8 -duration 3 -repeat 3 -json bench/BENCH_scaling_baseline.json

# bench-chaos runs the chaos scenario (kill/restart 10% of a live cluster's
# interior nodes mid-run) and gates availability, post-repair fairness and
# completed repair against the committed baseline. Wall-clock: NOT
# deterministic; the gate applies thresholds, and the baseline pins the
# workload so the scenario cannot be quietly shrunk.
bench-chaos:
	$(GO) run ./cmd/webwave-bench -scenario chaos -seed 1 -json $(BENCH_CHAOS_JSON)
	$(GO) run ./cmd/benchgate -chaos-report $(BENCH_CHAOS_JSON) \
		-chaos-baseline bench/BENCH_chaos_baseline.json

# bench-chaos-baseline regenerates the committed chaos baseline after an
# intentional behavior change; commit the result.
bench-chaos-baseline:
	$(GO) run ./cmd/webwave-bench -scenario chaos -seed 1 \
		-json bench/BENCH_chaos_baseline.json

# bench-restart replays the chaos workload twice — cold restarts vs warm
# (disk-tier) restarts — and gates warm post-restart availability, warm
# reabsorb time, journal recovery (warm_docs >= 1) and zero failed revives
# against the committed baseline. Wall-clock: NOT deterministic; the gate
# applies thresholds, and the baseline pins the workload.
bench-restart:
	$(GO) run ./cmd/webwave-bench -scenario restart -seed 1 \
		-duration $(RESTART_DURATION) -json $(BENCH_RESTART_JSON)
	$(GO) run ./cmd/benchgate -restart-report $(BENCH_RESTART_JSON) \
		-restart-baseline bench/BENCH_restart_baseline.json

# bench-restart-baseline regenerates the committed restart baseline after an
# intentional behavior change; commit the result.
bench-restart-baseline:
	$(GO) run ./cmd/webwave-bench -scenario restart -seed 1 \
		-duration $(RESTART_DURATION) -json bench/BENCH_restart_baseline.json

# bench-bigram runs the bigger-than-ram scenario (corpus ~10x every node's
# memory budget; in-ram vs mem-only vs two-tier passes) and gates two-tier
# hit-rate retention, the mem-only thrash margin and actual disk serving
# against the committed baseline. Wall-clock: NOT deterministic.
bench-bigram:
	$(GO) run ./cmd/webwave-bench -scenario bigger-than-ram -seed 1 \
		-json $(BENCH_BIGRAM_JSON)
	$(GO) run ./cmd/benchgate -bigram-report $(BENCH_BIGRAM_JSON) \
		-bigram-baseline bench/BENCH_bigram_baseline.json

# bench-bigram-baseline regenerates the committed bigger-than-ram baseline
# after an intentional behavior change; commit the result.
bench-bigram-baseline:
	$(GO) run ./cmd/webwave-bench -scenario bigger-than-ram -seed 1 \
		-json bench/BENCH_bigram_baseline.json

# fuzz-smoke runs three fuzzers for a bounded slice of CI time: the
# wire-codec round trip (every frame kind, re-encode byte equality, agreement
# with the JSON oracle), the journal replay (arbitrary bytes never refuse a
# start, and the replayed state survives compaction and a reopen) and the
# gateway's one-document session-floor scanner (it reads what ParseSession
# reads, for any header and document).
# Corpus finds land in the package's testdata/fuzz and should be committed.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzRoundTrip -fuzztime 30s ./internal/netproto/
	$(GO) test -run '^$$' -fuzz FuzzJournalReplay -fuzztime 15s ./internal/diskstore/
	$(GO) test -run '^$$' -fuzz FuzzSessionFloor -fuzztime 10s ./internal/gateway/

# swarm-bins builds the two binaries the multi-process scenario needs: the
# node binary every swarm process execs, and the runner that spawns them.
swarm-bins:
	$(GO) build -o bin/webwave-cluster ./cmd/webwave-cluster
	$(GO) build -o bin/webwave-swarm ./cmd/webwave-swarm

# bench-swarm launches the headline multi-process swarm — 101 separate OS
# processes (4 racks x 25 + root, depth-6 tree) over real TCP — SIGKILLs an
# entire rack mid-run, re-execs it warm, and gates availability, repair,
# reabsorption, journal recovery and harness hygiene against the committed
# baseline. Wall-clock AND process-heavy: NOT deterministic; the gate
# applies thresholds, and the baseline pins the workload shape.
bench-swarm: swarm-bins
	./bin/webwave-swarm -seed 1 -json $(BENCH_SWARM_JSON)
	$(GO) run ./cmd/benchgate -swarm-report $(BENCH_SWARM_JSON) \
		-swarm-baseline bench/BENCH_swarm_baseline.json

# bench-swarm-baseline regenerates the committed swarm baseline after an
# intentional behavior change; commit the result.
bench-swarm-baseline: swarm-bins
	./bin/webwave-swarm -seed 1 -json bench/BENCH_swarm_baseline.json

# bench-swarm-smoke is the CI-sized form: 17 processes, one rack killed,
# same gate. Fast enough for every PR; the 101-process form runs nightly.
bench-swarm-smoke: swarm-bins
	./bin/webwave-swarm $(SWARM_SMOKE_FLAGS) -json $(BENCH_SWARM_SMOKE_JSON)
	$(GO) run ./cmd/benchgate -swarm-report $(BENCH_SWARM_SMOKE_JSON) \
		-swarm-baseline bench/BENCH_swarm_smoke_baseline.json

# bench-swarm-smoke-baseline regenerates the committed smoke baseline; keep
# SWARM_SMOKE_FLAGS and this baseline in lockstep.
bench-swarm-smoke-baseline: swarm-bins
	./bin/webwave-swarm $(SWARM_SMOKE_FLAGS) -json bench/BENCH_swarm_smoke_baseline.json

# benchmark runs the repository's benchmark (benchmark/README.md): four
# workloads against the live stack over TCP loopback, untraced then traced,
# about five minutes; results land in benchmark/out/. The module sits
# outside `./...`, so benchmark-test is what vets it and runs its own tests
# (under ten seconds) — CI runs that per PR.
benchmark:
	$(GO) run -C benchmark webwave/benchmark

benchmark-test:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# docs-check verifies every relative markdown link (and heading anchor) in
# all top-level markdown and docs/ resolves; CI's docs job runs exactly this.
docs-check:
	$(GO) run ./cmd/doccheck README.md ROADMAP.md PAPER.md PAPERS.md \
		CHANGES.md ISSUE.md SNIPPETS.md docs

# loc prints the non-test Go line count of the three stacks ROADMAP tracks:
# the live stack (the packages TestLiveStackImportFence fences, their shared
# leaves and the node commands), the paper reproduction, and measurement.
# CI appends the line to its step summary.
LOC_LIVE = $(addprefix internal/,server cluster transport netproto cachestore \
	diskstore gateway core tree stats trace) \
	cmd/webwave-cluster cmd/webwave-http cmd/webwave-swarm
LOC_PAPER = $(addprefix internal/,fold wave docwave diffusion sim hierarchy \
	baseline lru plot repro filter forest router) cmd/webfold cmd/webwave-sim cmd/experiments
LOC_MEASURE = internal/workload cmd/webwave-bench cmd/benchgate cmd/benchwire benchmark
loc:
	@count() { find "$$@" -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l; }; \
	echo "loc (non-test Go lines): live stack $$(count $(LOC_LIVE)) / paper stack $$(count $(LOC_PAPER)) / measurement $$(count $(LOC_MEASURE))"

# profile runs the core-scaling scenario under the CPU and heap profilers,
# leaving pprof artifacts next to the report so scaling regressions are
# diagnosable (`go tool pprof cpu.pprof`).
profile:
	$(GO) run ./cmd/webwave-bench -scenario core-scaling -seed 1 \
		-procs $(SCALING_PROCS) -duration $(SCALING_DURATION) \
		-cpuprofile cpu.pprof -memprofile mem.pprof -json $(BENCH_SCALING_JSON)

clean:
	rm -f $(BENCH_JSON) $(BENCH_WIRE_JSON) $(BENCH_CACHE_JSON) \
		$(BENCH_SCALING_JSON) $(BENCH_CHAOS_JSON) $(BENCH_RESTART_JSON) \
		$(BENCH_BIGRAM_JSON) $(BENCH_SWARM_JSON) $(BENCH_SWARM_SMOKE_JSON) \
		bench-micro.out cpu.pprof mem.pprof coverage.out
	rm -rf bin
