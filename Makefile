# lincount — development targets. Everything is stdlib-only; plain
# `go build ./...` works without this file.
#
# `make check` is the pre-commit gate: gofmt (no file may need
# formatting; `make fmt` fixes them), vet, the full test suite under the
# race detector, plus the seeded chaos suite. An evaluation runs on one
# goroutine; what -race guards is what concurrent requests share: the
# query server's lock-free readers against its single writer, the plan
# cache and Relation's index-build lock.

GO ?= go

.PHONY: all build test race vet fmt check chaos obs-smoke server-smoke crash-smoke inc-smoke planner-smoke golden-explain bench benchcheck bench-e2e bench-compare experiments fuzz examples clean

all: build vet test

check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) test -race ./...
	$(MAKE) chaos
	$(MAKE) obs-smoke
	$(MAKE) server-smoke
	$(MAKE) crash-smoke
	$(MAKE) inc-smoke
	$(MAKE) planner-smoke
	$(MAKE) golden-explain

# The seeded chaos suite: fault schedules × strategies × corpus programs
# under the race detector, checked by the differential oracle, plus the
# graceful-degradation scenarios. Deterministic (seeded PRNG) and small
# enough to stay well under a minute.
chaos:
	$(GO) test -race -run 'TestChaos|TestDegraded' -count=1 .
	$(GO) run ./cmd/lincount-bench -verify > /dev/null

# End-to-end observability check: run a query with -obs on an ephemeral
# port, fetch /metrics (Prometheus text format) and /trace.json (Chrome
# trace-event JSON), and validate the trace parses and contains the
# expected span names. See docs/INTERNALS.md § Observability.
obs-smoke:
	$(GO) test -run TestObsSmoke -count=1 ./cmd/lincount
	$(GO) test -run TestObsServerSmoke -count=1 ./cmd/lincountd

# End-to-end daemon check: build lincountd, start it in-process on an
# ephemeral port, query it, write a fact (read-your-writes across
# epochs), provoke a deterministic shed under admission pressure, then
# deliver the shutdown signal during load and assert a clean drain with
# exit 0. See docs/INTERNALS.md § Serving.
server-smoke:
	$(GO) build -o /dev/null ./cmd/lincountd
	$(GO) test -run TestServerSmoke -count=1 ./cmd/lincountd

# End-to-end durability check: build lincountd with a data directory,
# load it with concurrent writers, checkpoint under live traffic,
# SIGKILL it mid-load, restart over the same directory, and assert
# every acknowledged write survived recovery. See docs/INTERNALS.md
# § Durability and recovery.
crash-smoke:
	$(GO) test -run TestCrashSmoke -count=1 ./cmd/lincountd

# End-to-end incremental-maintenance check: start lincountd on a
# recursive program, drive it with concurrent writers issuing mixed
# assert/retract batches, then verify the maintained materialisation
# against both a from-scratch evaluation and a library-side oracle, and
# assert /v1/stats shows the batches went through the delta engine. See
# docs/INTERNALS.md § Incremental maintenance.
inc-smoke:
	$(GO) test -run TestIncSmoke -count=1 ./cmd/lincountd

# The planner smoke quartet: acyclic same-generation (the sg-acyclic
# benchmark shape, Cylinder(19, 64, 2)), cyclic same-generation, and
# left-/right-linear closure, each asserting the planner ranks the right
# strategy first with real data loaded — the counting runtime on both
# same-generation shapes, the reduced rewrite on the closures — and that
# its pick answers identically to semi-naive.
planner-smoke:
	$(GO) test -run TestPlannerSmoke -count=1 .

# Golden-file check of lincount-explain over the representative program
# quartet: every strategy's rewritten program plus the planner ranking.
# Regenerate intentionally changed rewrites with:
#   go test ./cmd/lincount-explain -run TestExplainGolden -update
golden-explain:
	$(GO) test -run TestExplainGolden -count=1 ./cmd/lincount-explain

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

# One timed run of every benchmark (the experiment suite proper is
# `make experiments`).
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x .

# Allocation regression check, documented-but-optional like `make chaos`:
# runs the storage-sensitive P1/P2 micro-benchmarks and the join
# pipeline's P17 bench twice with -benchmem so run-to-run variance is
# visible next to any real allocs/op drift. P17's allocs/op is the guard
# for the pipeline's buffer reuse (buffers are amortised across fixpoint
# iterations — a drift upward means a buffer stopped being recycled).
# The cold-start layer benches (P19: text load, snapshot load, the
# materialisation build) run in the packages they measure; LoadText's
# allocs/op is additionally held by TestLoadTextAllocs in `make test`.
# ApplySwap is one maintenance write (the sg-acyclic swap); 400 swaps
# include the occasional compaction of sg (compactions/op counts them)
# among the O(delta) swaps that carry their dead rows.
# P20's pair: AutoVsForced is Auto against every forced strategy on the
# four benchmark shapes (inferences/op is exact: Auto must sit on the
# cheapest row of its shape), RuntimeMoves the pointer runtime alone on
# the sg-cyclic shape, whose allocs/op guards the batched solves' buffer
# reuse.
# Compare the two passes by eye (allocs/op is deterministic; ns/op is
# not); EXPERIMENTS.md records the accepted numbers. The timing gate is
# `make bench-compare BASE=<rev>` below.
benchcheck:
	@for i in 1 2; do \
		echo "== benchcheck pass $$i"; \
		$(GO) test -run '^$$' -bench 'BenchmarkP1_MagicVsCounting|BenchmarkP2_CountingSetSize|BenchmarkP17_BatchedJoin|BenchmarkAutoVsForced' -benchmem . || exit 1; \
		$(GO) test -run '^$$' -bench 'BenchmarkRuntimeMoves' -benchmem ./internal/counting || exit 1; \
		$(GO) test -run '^$$' -bench 'BenchmarkLoadText|BenchmarkSnapshotLoad' -benchmem ./internal/database || exit 1; \
		$(GO) test -run '^$$' -bench 'BenchmarkMaterializeBuild' -benchmem ./internal/incremental || exit 1; \
		$(GO) test -run '^$$' -bench 'BenchmarkApplySwap' -benchtime=400x -benchmem ./internal/incremental || exit 1; \
	done

# The end-to-end benchmark of BENCHMARK.json (see benchmark/README.md):
# all four workloads once, the nine end-to-end metrics each, the full
# result written to BENCH_E2E_OUT. Everything it builds and writes stays
# under .bench_build/.
BENCH_SEED ?= 1
BENCH_E2E_OUT ?= .bench_build/e2e.json
bench-e2e:
	bash benchmark/run.sh --seed $(BENCH_SEED) --trace 0 --out $(BENCH_E2E_OUT)

# The timing gate: the working tree against BASE, as ROUNDS alternating
# base/tree rounds of bench-e2e (round i runs both sides on seed i, the
# side that goes first alternating, so host drift hits both alike), then `benchmark --compare` over the pooled
# runs — its exit code is this target's. BASE is exported with `git
# archive` into .bench_build/base and built there, so neither side sees
# the other's files or build cache. The medians, every run's value and
# both environments (commit, Go version, GOMAXPROCS, cores) are written
# to BENCH_OUT for committing. Needs jq to pool the per-round files.
ROUNDS ?= 10
BENCH_OUT ?= BENCH_$(shell date +%Y%m%d).json
define BENCH_SUMMARY_JQ
def median: sort | if length % 2 == 1 then .[(length - 1) / 2] else (.[length / 2 - 1] + .[length / 2]) / 2 end;
def side: {
  env: .results[0].env,
  failed: (.results | map(.failed) | add),
  workloads: (.results | group_by(.workload) | map({
    key: .[0].workload,
    value: (map(.metrics | to_entries) | add | group_by(.key) | map({
      key: .[0].key,
      value: {unit: .[0].value.unit, median: (map(.value.value) | median), runs: map(.value.value)}
    }) | from_entries)
  }) | from_entries)
};
{generated: (now | todate), base_rev: $$rev, rounds: ($$rounds | tonumber), base: ($$a[0] | side), tree: ($$b[0] | side)}
endef
export BENCH_SUMMARY_JQ
bench-compare:
	@test -n "$(BASE)" || { echo "usage: make bench-compare BASE=<rev> [ROUNDS=10] [BENCH_OUT=file]"; exit 2; }
	@command -v jq > /dev/null || { echo "bench-compare: jq not found"; exit 2; }
	rm -rf .bench_build/base .bench_build/compare
	mkdir -p .bench_build/base .bench_build/compare
	git archive $(BASE) | tar -x -C .bench_build/base
	@for i in $$(seq 1 $(ROUNDS)); do \
		order="base tree"; [ $$((i % 2)) -eq 0 ] && order="tree base"; \
		for side in $$order; do \
			echo "== round $$i/$(ROUNDS): $$side"; \
			dir=.; [ $$side = base ] && dir=.bench_build/base; \
			(cd $$dir && bash benchmark/run.sh --seed $$i --trace 0 --out $(CURDIR)/.bench_build/compare/$$side-$$(printf %03d $$i).json) || exit 1; \
		done; \
	done
	jq -s '{results: map(.results) | add}' .bench_build/compare/base-*.json > .bench_build/compare/base.json
	jq -s '{results: map(.results) | add}' .bench_build/compare/tree-*.json > .bench_build/compare/tree.json
	jq -n --arg rev "$$(git rev-parse --short=12 $(BASE))" --arg rounds $(ROUNDS) \
		--slurpfile a .bench_build/compare/base.json --slurpfile b .bench_build/compare/tree.json \
		"$$BENCH_SUMMARY_JQ" > $(BENCH_OUT)
	.bench_build/benchmark --compare .bench_build/compare/base.json .bench_build/compare/tree.json

# Regenerate every table in EXPERIMENTS.md.
experiments:
	$(GO) run ./cmd/lincount-bench | tee bench_tables.txt

# Short fuzzing passes over the parser, the streaming fact loader (held
# to the parser differentially), the snapshot reader, the WAL replayer,
# incremental maintenance (held to a from-scratch fixpoint), the
# counting runtime's answer classes (held to magic sets) and every
# strategy on small generated linear programs (held to magic sets and
# QSQ).
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/parser
	$(GO) test -fuzz=FuzzLoadFacts -fuzztime=30s ./internal/database
	$(GO) test -fuzz=FuzzLoadSnapshot -fuzztime=30s ./internal/database
	$(GO) test -fuzz=FuzzReplayWAL -fuzztime=30s ./internal/wal
	$(GO) test -fuzz=FuzzApply -fuzztime=30s ./internal/incremental
	$(GO) test -fuzz=FuzzRuntimeClasses -fuzztime=30s ./internal/oracle
	$(GO) test -fuzz=FuzzOracle -fuzztime=30s ./internal/oracle

examples:
	@for d in examples/*/; do \
		echo "== $$d"; \
		$(GO) run ./$$d || exit 1; \
	done

clean:
	rm -f test_output.txt bench_output.txt
