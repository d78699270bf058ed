# Build, test, and benchmark entry points for the anonmix reproduction.

GO ?= go
DATE := $(shell date +%Y%m%d)
# The short commit hash keys bench snapshots so a same-day rerun (or a
# stack of PRs landing together) never clobbers an earlier measurement.
SHA := $(shell git rev-parse --short HEAD 2>/dev/null || echo nogit)

.PHONY: all build vet lint test race race-kernel bench bench-smoke bench-compare bench-e2e-check e2e-ab cover fuzz-smoke serve-smoke profile clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs go vet, a gofmt check over every Go file of the root module
# and of bench/ (.bench_build/ holds only build output), and anonlint, the
# repository's own static-analysis suite (internal/analysis):
# determinism-contract, seed-purity, error-contract, and float-comparison
# invariants. Suppressions use //anonlint:allow <analyzer>(<reason>) with a
# mandatory reason.
lint: vet
	@unformatted=$$(gofmt -l $$(find . -name '*.go' -not -path './.bench_build/*')); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/anonlint ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-kernel repeats the race detector over the testbed kernel and the
# onion codec ten times: packets change hands between shard goroutines,
# and onion layer states are shared between the injector and the shards,
# so an unsynchronized handoff shows up only in some interleavings (see
# TestConcurrentHandoffRewritesInPlace). CI runs exactly this target.
race-kernel:
	$(GO) test -race -count=10 ./internal/simnet ./internal/onion

# SNAPSHOT picks a free BENCH_<date>_<sha>[...].json name: rerunning at
# the committed baseline's own commit must never clobber the baseline
# (bench-compare would then find one file and silently have nothing to
# compare).
SNAPSHOT = $$(f=BENCH_$(DATE)_$(SHA).json; [ -e $$f ] && f=BENCH_$(DATE)_$(SHA)_r$$(date +%H%M%S).json; echo $$f)

# bench snapshots the full benchmark suite as JSON so the performance
# trajectory is tracked across PRs (see EXPERIMENTS.md).
bench:
	@f=$(SNAPSHOT); $(GO) test -run '^$$' -bench . -benchmem -json > $$f && echo "wrote $$f"

# SMOKE is the single definition of the gated smoke set: bench-smoke,
# bench-smoke-snapshot, and bench-compare all derive from it, so the run
# pattern and the regression gate cannot drift apart.
SMOKE = Fig3a|Fig4[abcd]|Weights|DegreeLargeC|WeightsLargeC|DegradationRounds|ChurnSweep|TimelineExactDelta|MaximizeTimeline|ReliabilitySweep|LossyChurnMillion|MCTrialsPerSecond

# bench-smoke is the quick acceptance sweep; CI runs exactly this target
# so the two can never diverge.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Benchmark($(SMOKE))$$' -benchtime=1x -benchmem

# bench-smoke-snapshot records just the smoke set as a JSON snapshot (the
# cheap CI-side input for bench-compare; `make bench` is the full suite).
# Each benchmark runs BENCHCOUNT times and benchcompare keeps the
# per-metric minimum — contention on a shared runner only ever slows a
# sample down, so min-of-N is the robust estimate of the code's cost.
BENCHCOUNT ?= 3
.PHONY: bench-smoke-snapshot
bench-smoke-snapshot:
	@f=$(SNAPSHOT); $(GO) test -run '^$$' -bench 'Benchmark($(SMOKE))$$' -count=$(BENCHCOUNT) -benchmem -json > $$f && echo "wrote $$f"

# bench-compare diffs the two newest BENCH_*.json snapshots and fails on a
# >20% ns/op regression in the smoke set. CI runs it non-blocking after
# bench-smoke-snapshot, so the committed snapshot is the baseline.
bench-compare:
	$(GO) run ./cmd/benchcompare -smoke '^($(SMOKE))$$'

# profile captures CPU and heap pprof profiles over the smoke benchmarks
# into PROFILE_DIR (flat files, no date key: each run overwrites the last,
# and CI uploads them as build artifacts). Inspect with
# `go tool pprof profiles/cpu.out`.
PROFILE_DIR = profiles
profile:
	@mkdir -p $(PROFILE_DIR)
	$(GO) test -run '^$$' -bench 'Benchmark($(SMOKE))$$' -benchtime=1x -benchmem \
		-cpuprofile $(PROFILE_DIR)/cpu.out -memprofile $(PROFILE_DIR)/heap.out \
		-o $(PROFILE_DIR)/bench.test
	@echo "wrote $(PROFILE_DIR)/cpu.out $(PROFILE_DIR)/heap.out"

# COVER_FLOOR is the scenario layer's coverage gate: the whole percent
# below the 93.8% recorded once the testbed's routed drivers became one.
# New scenario-layer code must arrive with tests that keep the package at
# or above it (the differential harness, the timeline suite, and the
# reliability suite currently hold it there).
COVER_FLOOR = 93

# cover measures internal/scenario statement coverage and fails if it
# drops below the recorded floor.
cover:
	@$(GO) test -coverprofile=cover.out ./internal/scenario
	@$(GO) tool cover -func=cover.out | awk -v floor=$(COVER_FLOOR) '\
		/^total:/ { sub(/%/, "", $$3); \
			if ($$3 + 0 < floor + 0) { printf "coverage %s%% below floor %s%%\n", $$3, floor; exit 1 } \
			else { printf "coverage %s%% (floor %s%%)\n", $$3, floor } }'
	@rm -f cover.out

# FUZZTIME bounds each fuzz-smoke target; CI runs exactly this target.
FUZZTIME = 10s

# fuzz-smoke runs every fuzz target briefly (one -fuzz regex per package
# invocation, as the toolchain requires): the scenario configuration
# surface, the CLI epoch syntax, the timeline schedule against its
# map-based reference walk, the fault-plan syntax, the strategy registry,
# the onion codec, Peel on hostile blobs (no panic, only the codec's
# errors, a rejected blob left unchanged), the anonlint suppression
# parser, the spike/slab accumulator against its dense reference fold, its phases against the
# dense phased fold over random churn schedules, the path route's entropy
# and folds against the trace route's, the engine's shape-keyed class
# statistics table against direct computation, Neighbor-derived engines
# and their root against fresh ones bit for bit, and the optimizer's
# certificate on random small design problems.
fuzz-smoke:
	$(GO) test ./internal/analysis/allow -run '^$$' -fuzz '^FuzzParseAllow$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/adversary -run '^$$' -fuzz '^FuzzAccumulatorFold$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/adversary -run '^$$' -fuzz '^FuzzPhasedFold$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/adversary -run '^$$' -fuzz '^FuzzPathObservation$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/events -run '^$$' -fuzz '^FuzzStatsTable$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/events -run '^$$' -fuzz '^FuzzNeighborMatchesFresh$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/optimize -run '^$$' -fuzz '^FuzzMaximizeCertificate$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/scenario -run '^$$' -fuzz '^FuzzNormalize$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/scenario -run '^$$' -fuzz '^FuzzParseTimeline$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/scenario -run '^$$' -fuzz '^FuzzPhaseSchedule$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/faults -run '^$$' -fuzz '^FuzzParseFaults$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/pathsel -run '^$$' -fuzz '^FuzzStrategyLookup$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/onion -run '^$$' -fuzz '^FuzzBuildPeel$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/onion -run '^$$' -fuzz '^FuzzPeel$$' -fuzztime $(FUZZTIME)

# bench-e2e-check runs the end-to-end benchmark's own checks. bench/ is a
# separate module (see bench/README.md), so the root targets above never
# build, test, or lint it: this vets it, runs its tests — including the
# checked smoke of every workload at 1/100 of the benchmark's length — and
# runs anonlint over it. CI runs exactly this target.
bench-e2e-check:
	cd bench && $(GO) vet . && $(GO) test . && $(GO) run anonmix/cmd/anonlint .

# e2e-ab compares the end-to-end benchmark at BASE against the working tree
# (scripts/e2e_ab.sh): PAIRS pairs of bench/run.sh runs of WORKLOAD at SEED,
# each as long as BENCHMARK.json's run_seconds, base and change alternating
# and the order swapped every pair, then each side's median and quartiles
# and the change's win count per metric. It fails if any run is not
# correct. TRACE=1 compares the per-layer metrics of traced runs instead.
# The script holds the defaults of SEED, PAIRS and TRACE.
e2e-ab:
	bash scripts/e2e_ab.sh "$(BASE)" "$(WORKLOAD)" "$(SEED)" "$(PAIRS)" "$(TRACE)"

# serve-smoke boots the anond daemon on an ephemeral port and exercises
# the HTTP surface end to end over a real socket: every /v1 endpoint's
# success and failure statuses, NDJSON streaming, and a SIGTERM drain
# with a request in flight. CI runs exactly this target.
serve-smoke:
	sh scripts/serve_smoke.sh

# clean removes only untracked snapshots: committed BENCH_*.json files are
# the bench-compare trajectory baselines and must survive.
clean:
	@rm -rf $(PROFILE_DIR)
	@for f in BENCH_*.json; do \
		[ -e "$$f" ] || continue; \
		git ls-files --error-unmatch "$$f" >/dev/null 2>&1 || rm -f "$$f"; \
	done
