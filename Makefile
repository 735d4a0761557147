# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml). Three of them measure, each once:
#   - `make bench` runs the standing benchmark (bench/, contract in
#     BENCHMARK.json): five workloads, end-to-end metrics with regression
#     bounds; performance claims are paired runs of it, and
#     `host-independence` gates one of its deterministic counters;
#   - `bench-smoke` keeps bench_test.go's four profiling benchmarks running;
#   - `test` includes internal/experiments' golden test, which pins the
#     paper's tables and simulated figures (Tables 1-2, Figs 6-15).

GO ?= go
# Packages whose tests exercise concurrent code paths (the round scheduler's
# worker pool across nodes, UDP node processes, the reliable transport, and
# the driver surface, whose Scheduler adapter stages query messages from the
# pool and whose UDP adapter issues queries onto node workers); test-race
# gates them under the race detector and CI runs it on every push.
RACE_PKGS := ./internal/engine/... ./internal/provenance/... ./internal/deploy/... ./internal/transport/... ./internal/driver/...

.PHONY: all build fmt vet lint lint-extra test test-race chaos-smoke scale-smoke host-independence doccheck doccheck-selftest fuzz-smoke check bench bench-smoke clean

all: check

build:
	$(GO) build ./...

# Formatting gate: fails loudly when any file needs gofmt.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Invariant lint gate: the exspanlint suite (internal/lint) machine-checks
# bit-exact determinism, zero-alloc hot paths and interned-value identity —
# three analyzers — over the whole tree, tests included. Blocking — a
# finding fails the build; suppress individual findings only with a reasoned
# //exspanlint:<key> comment (see ARCHITECTURE.md "Static analysis").
lint:
	$(GO) run ./cmd/exspanlint ./...

# Report-only extras: third-party linters when the toolchain has them
# installed (they are not vendored — the module pins no dependencies).
# Detect-and-skip keeps this target green on minimal containers; `|| true`
# keeps real findings advisory.
lint-extra:
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck $$(staticcheck -version 2>/dev/null)"; \
		staticcheck ./... || true; \
	else echo "staticcheck not installed; skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... || true; \
	else echo "govulncheck not installed; skipping"; fi

test:
	$(GO) test ./...

# Race-detector gate over the concurrently-evaluated packages. A node
# evaluates on one goroutine; what runs concurrently is the Scheduler's worker
# pool across nodes and the deployment's per-node receive / worker / timer
# goroutines. Runs at GOMAXPROCS=4, where the pool really interleaves node
# tasks, and at GOMAXPROCS=1, where it collapses to one worker (and proves
# nothing races on the way into that).
# -count=1 on both legs: the test cache does not key on GOMAXPROCS (the
# runtime reads it, not os.Getenv), so without it the second leg would
# silently reuse the first leg's cached result and the parallel pool would
# never run under the race detector.
test-race:
	GOMAXPROCS=1 $(GO) test -race -count=1 $(RACE_PKGS)
	GOMAXPROCS=4 $(GO) test -race -count=1 $(RACE_PKGS)

# Chaos gate: the seeded fault-schedule matrix under the race detector — the
# transport state machine end to end, simnet fault injection and timer
# interleaving, the core chaos-equivalence fences (loss/dup/jitter/partition/
# crash vs the fault-free fixpoint, all provenance modes), and the deploy
# loss + kill/restart reconvergence tests over real UDP sockets.
chaos-smoke:
	GOMAXPROCS=4 $(GO) test -race -count=1 ./internal/transport/
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'Fault|OnIdle|Jitter|Partition|Crash|Unreachable' ./internal/simnet/
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'Chaos' ./internal/core/
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'Chaos|Timeout' ./internal/deploy/

# Scale gate: the 10k-node CHORD determinism smoke — two full Scheduler runs
# of the workload suite's largest topology must agree bit for bit (delta
# counts, wire bytes, sampled relation state) and a converged node may retain
# at most 8,100 B — and the 400-node MINCOST row of the scaling table (pinned
# delta count of 719,584, ≤ 356 B retained per delta). The process may
# obtain at most 2 GiB from the OS. Both are skipped under
# -short, so `go test -short ./...` stays fast; this target runs them by name.
scale-smoke:
	$(GO) test -run 'TestScaleChordDeterminism10k|TestScaleMinCost400' -v ./internal/core/

# Host-independence gate: the paper's headline quantity — communication at
# fixpoint — must not depend on the host's core count. The standing
# benchmark's Scheduler workload runs for a second at GOMAXPROCS=1 and at 2;
# both must report the same wire_bytes_per_op. (When a per-node shard count
# resolved from GOMAXPROCS selected the executor, the one-core run silently
# drained per message and shipped 3.76× the bytes; this gate fails there.)
WIRE_BYTES = $(GO) run ./bench -workload chord-sharded -seconds 1 | tail -n 1 | grep -o '"wire_bytes_per_op":{"value":[0-9.e+]*'
host-independence:
	@one=$$(GOMAXPROCS=1 $(WIRE_BYTES)); two=$$(GOMAXPROCS=2 $(WIRE_BYTES)); \
	echo "GOMAXPROCS=1 $$one"; echo "GOMAXPROCS=2 $$two"; \
	if [ -z "$$one" ] || [ "$$one" != "$$two" ]; then \
		echo "host-independence: wire_bytes_per_op depends on GOMAXPROCS"; exit 1; fi; \
	echo "host-independence ok"

# Documentation link check: every local file referenced from the markdown
# docs — as a link target or as a backticked internal|docs|examples|cmd/…
# path — must exist, so ARCHITECTURE.md / docs/wire-format.md / README files
# cannot silently rot as the tree moves. ISSUE.md and CHANGES.md are not
# documentation of the tree: the task statement and the change log name files
# a PR deletes or has yet to create.
DOCS = $(filter-out ISSUE.md CHANGES.md,$(wildcard *.md docs/*.md examples/*.md))
doccheck:
	@fail=0; \
	for doc in $(DOCS); do \
		dir=$$(dirname $$doc); \
		for ref in $$(grep -oE '\]\(([^)#]+)' $$doc | sed 's/](//' | grep -v '^http'); do \
			if [ ! -e "$$dir/$$ref" ] && [ ! -e "$$ref" ]; then \
				echo "$$doc: broken link -> $$ref"; fail=1; \
			fi; \
		done; \
	done; \
	for ref in $$(grep -ohE '`(internal|docs|examples|cmd)/[A-Za-z0-9_./-]+`' $(DOCS) | tr -d '`' | sort -u); do \
		if [ ! -e "$$ref" ]; then echo "doc reference missing from tree: $$ref"; fail=1; fi; \
	done; \
	if [ $$fail -eq 0 ]; then echo "doccheck ok"; else exit 1; fi

# Every gate ships with a violation proving it fails: seed a markdown file
# with one dead reference per doccheck pass and require doccheck to reject
# both.
SEEDED := doccheck_seeded_violation.md
doccheck-selftest:
	@trap 'rm -f $(SEEDED)' EXIT; \
	printf 'see `internal/does-not-exist` and [gone](docs/gone.md)\n' > $(SEEDED); \
	if out=$$($(MAKE) --no-print-directory doccheck 2>&1); then \
		echo "doccheck passed a tree with seeded violations"; exit 1; fi; \
	for want in 'doc reference missing from tree: internal/does-not-exist' \
	            '$(SEEDED): broken link -> docs/gone.md'; do \
		echo "$$out" | grep -qF "$$want" || { \
			echo "doccheck failed without reporting: $$want"; echo "$$out"; exit 1; }; \
	done; \
	echo "doccheck-selftest ok: both seeded violations rejected"

# Fuzz smoke gate: a short budget per fuzz target — the value and tuple
# codecs, the transport frame header, the two message decoders a deployed
# node's receive loop feeds raw UDP payloads into, the two query-result
# payload decoders (polynomial, BDD) a hop runs on what those messages carry,
# the semiring UDFs' folds over arbitrary children (a hop never emits what
# the next hop would reject), the engine's and the query processor's
# handling of every message their decoders accept, the NDlog parser
# (a parsed program prints to a form that reparses and prints identically)
# the provenance store's ruleExec tables (every read path agrees with a
# naive map of rows under any add / delete sequence) and the one
# open-addressed table every node and store index is (inserts, removals,
# finds and remove-while-walking sweeps agree with a Go map) — so strictness
# regressions are caught before the checked-in corpus grows stale. Go runs
# one fuzz target per invocation, hence one line each.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeValue$$' -fuzztime 10s ./internal/types
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeTuple$$' -fuzztime 10s ./internal/types
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeFrameHeader$$' -fuzztime 10s ./internal/transport
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeMessage$$' -fuzztime 10s ./internal/engine
	$(GO) test -run '^$$' -fuzz '^FuzzHandleMessage$$' -fuzztime 10s ./internal/engine
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeMsg$$' -fuzztime 10s ./internal/provquery
	$(GO) test -run '^$$' -fuzz '^FuzzHandleMsg$$' -fuzztime 10s ./internal/provquery
	$(GO) test -run '^$$' -fuzz '^FuzzRingUDF$$' -fuzztime 10s ./internal/provquery
	$(GO) test -run '^$$' -fuzz '^FuzzDecodePolynomial$$' -fuzztime 10s ./internal/algebra
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBDD$$' -fuzztime 10s ./internal/bdd
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/ndlog
	$(GO) test -run '^$$' -fuzz '^FuzzRuleExecTable$$' -fuzztime 10s ./internal/provenance
	$(GO) test -run '^$$' -fuzz '^FuzzTable$$' -fuzztime 10s ./internal/openaddr

# lint sits before test-race: a lint finding is seconds to surface, the race
# legs are minutes — fail fast on the cheap gate.
check: fmt vet build lint test test-race chaos-smoke scale-smoke host-independence doccheck doccheck-selftest fuzz-smoke bench-smoke

# The standing benchmark: every workload's end-to-end metrics (add
# `-trace 1` by hand for the per-layer budget; see bench/README.md).
bench:
	$(GO) run ./bench

# One-iteration smoke run of every go-test benchmark in bench_test.go — the
# four profiling targets PERFORMANCE.md names: engine fixpoint, query path,
# simulator dispatch, deletion churn — so none can bit-rot unnoticed.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x .

clean:
	rm -rf .bench_build *.trace.json $(SEEDED)
