// Package anonmix is a from-scratch Go reproduction of
//
//	Yong Guan, Xinwen Fu, Riccardo Bettati, Wei Zhao.
//	"An Optimal Strategy for Anonymous Communication Protocols."
//	Proceedings of ICDCS 2002.
//
// The paper quantifies how rerouting-based anonymous communication
// systems (Anonymizer, Freedom, Onion Routing, Crowds, PipeNet, ...)
// protect sender identity against a passive adversary that compromises C
// of the N system nodes plus the receiver, measures that protection with
// the entropy-based anonymity degree H*(S), and derives the path-length
// distribution maximizing it.
//
// # Architecture
//
// Every way of computing the paper's one headline quantity — the
// anonymity degree H*(S) — hangs off a single scenario layer:
//
//   - internal/scenario — the unification seam. A Config declares a run
//     (population N, adversary, strategy, protocol substrate, workload);
//     scenario.Run(cfg) executes it on any registered Backend: "exact"
//     (closed form), "mc" (sampling estimator), or "testbed" (discrete-
//     event network simulation). Backends refuse what they cannot express
//     with a shared capability error type (internal/scenario/capability),
//     so callers switch backends on errors.Is instead of string-matching.
//     The scenario layer also owns the process-wide engine cache; a
//     cross-backend agreement test pins exact == Monte-Carlo == testbed
//     within sampling error across strategies and receiver modes.
//
//     Workloads have a second dimension beyond message count: Rounds.
//     With Workload.Rounds > 1 a scenario becomes a set of persistent
//     sender→receiver sessions — one initiator re-forming its path every
//     round — and every backend implements the repeated-communication
//     attack of Wright et al. ([23] in the paper): the exact and
//     Monte-Carlo backends share one session driver, which samples each
//     round's path and accumulates the exact per-round posteriors by
//     Bayesian log-posterior multiplication (adversary.Accumulator) —
//     serially for the exact backend, in parallel for Monte-Carlo, with
//     bit-identical results — and the testbed runs the sessions on the
//     event kernel and folds the collected traces — intersection
//     accumulation on the routed substrates, Reiter–Rubin predecessor
//     counting on Crowds. Results carry the degradation curve H_1..H_k
//     (Result.HRounds) and, with Workload.Confidence set, identification
//     statistics; a second agreement test pins the three backends' curves
//     against each other at k ∈ {1, 4, 16}.
//
//     The third dimension is time: Config.Timeline makes the population
//     dynamic as a sequence of piecewise-constant Epochs, each carrying a
//     traffic budget (Messages or Rounds) and deltas — joins, leaves,
//     creeping compromise, recovery — applied under deterministic identity
//     rules shared by every backend. The exact backend computes each
//     phase's H*(S_e) through the shared engine cache and blends a
//     traffic-weighted mixture; Monte-Carlo samples each phase stratified;
//     the testbed executes the schedule as kernel-level churn events at
//     virtual timestamps with path selection restricted to the live
//     membership. Degradation timelines thread persistent sessions across
//     the phase boundaries through the same session driver and
//     accumulator, whose phases each map their population onto a union
//     identity space (a static run is one phase whose mapping is the
//     identity): each round's posterior lives over its phase's
//     population, members absent during an observed round are eliminated,
//     and a sender the adversary swallows mid-timeline is identified from
//     that phase on. Result.Epochs carries the per-phase trajectory next
//     to the blended curve. The contract is pinned three ways: a timeline
//     agreement test (grow / shrink / creep × both receiver modes), a
//     seeded differential harness running ~100 generated scenarios — the
//     full space of strategies, protocols, rounds, and timelines — on
//     every capable backend, and fuzz targets (FuzzNormalize,
//     FuzzParseTimeline, pathsel.FuzzStrategyLookup) asserting that
//     nothing panics and only ErrBadConfig or capability errors escape.
//
// The analysis stack underneath:
//
//   - internal/events — the exact Bayesian anonymity-degree engine
//     (counted shape groups, polynomial in C)
//   - internal/theory — closed forms for the paper's Theorems 1–3
//   - internal/optimize — the §5.4 optimal-distribution solvers
//   - internal/dist, internal/pathsel — length distributions & strategies;
//     pathsel.Lookup resolves name-addressable specs ("crowds:0.75,20",
//     "uniform:0,10") from a registry shared by every CLI
//   - internal/adversary, internal/trace, internal/montecarlo — the threat
//     model pipeline and the synthesis of the traces it analyzes
//   - internal/figures — regenerates every figure of the paper's §6, plus
//     ablations and the cross-backend comparison figure
//
// The package Examples walk the paper's workflow end to end by calling
// scenario.Engine, scenario.Run and optimize.Maximize directly:
// Example_quickstart (H*(S) of a strategy and the §5.4 optimum),
// Example_optimalDeployment (the optimum at each latency budget),
// Example_systemsSurvey (the §2 survey ranking), Example_longTerm (the
// degradation attack of Wright et al.), and Example_eVoting and
// Example_webBrowsing (the §1 scenarios on the testbed). go test checks
// each one's printed output.
//
// The simulation stack:
//
//   - internal/simnet — the testbed, built on a sharded discrete-event
//     kernel: nodes are virtual, events ("packet arrives at node v at
//     logical time t") are 32-byte pointers into a per-network packet
//     arena, and one goroutine per shard (pool.Workers(), never per node)
//     drains its inbox in arrival order. That order is safe because every
//     hop decision is a pure function of the event's logical time, and
//     each message's taps and delivery go into its own record, indexed by
//     its serial ID, in hop order, which is time order: the analyst reads
//     a message's reports by ID (Network.Trace), with no shared log, lock
//     or sort. Only threshold mixes, whose batches must fill in
//     arrival-time order, keep a per-shard (time, seq) heap.
//     Forwarders rewrite a packet in place and must not keep it after
//     Next returns; the kernel keeps a packet's slices until the message
//     retires, then zeroes its slot. Goroutines and memory scale with
//     in-flight traffic, not with N, so a 1,000,000-node system runs a
//     1,000-message workload in a few megabytes of heap and a handful of
//     milliseconds. Per-hop delays are a pure function of (seed,
//     message, hop), keeping runs reproducible under any shard
//     scheduling, and Packet.Hops lets a forwarder key its own draws the
//     same way (the Crowds forwarder does); an optional threshold-mix
//     batching stage holds packets
//     per node and flushes full (or quiescent) batches in shuffled order
//     with a shared release time. Dynamic
//     populations are kernel-native: Config.Churn schedules per-node
//     join/leave/compromise/recover transitions at virtual timestamps,
//     evaluated read-only at each event's logical time (race-free under
//     any shard interleaving, per-churned-node state only — never O(N)),
//     and Settle/AdvanceTime let a driver place traffic phases on
//     disjoint time windows with the transitions on the boundaries.
//   - internal/onion, internal/crowds, internal/mixbatch — protocol
//     substrates plugged into the kernel through the Forwarder interface
//     (layered encryption, coin-flip jondo routing, batch linkage
//     analysis).
//
// # Reliability
//
// The fourth scenario dimension is failure. Config.Faults declares a
// fault plan (internal/faults): a per-link loss probability, per-hop
// latency jitter, and crash/recover schedules at virtual timestamps,
// parsed from the CLI syntax "loss=0.05,jitter=3,crash=3@100-200" by
// faults.ParseFaults. Config.Reliability picks the delivery policy the
// network answers faults with: PolicyNone (drop and move on),
// PolicyRetransmit (per-link retries under an exponential backoff
// budget), or PolicyReroute (the driver re-injects failed messages end
// to end over freshly drawn paths). Both retry policies are bounded by
// MaxAttempts, which is what makes Settle terminate even under 100%
// loss — a run degrades gracefully to zero delivery instead of hanging.
// Every policy runs on static configs and on Messages timelines: the
// testbed settles each phase and runs its rerouting waves inside the
// phase's window, which is MaxAttempts windows wide under PolicyReroute,
// so no wave crosses into the next phase.
//
// Loss draws are a pure function of (seed, message, attempt, hop), so a
// faulted run is bit-reproducible under any shard interleaving, like
// every other kernel source of randomness. Every backend reports
// Result.DeliveryRate and Result.MeanAttempts next to H; the exact
// backend folds PolicyNone loss into an effective-delivery length
// distribution P'(l) ∝ P(l)·(1−q)^(l+1) and refuses the retry policies
// and crash schedules with capability errors, while Monte-Carlo and the
// testbed execute them.
//
// Retries are not free: every retransmission a compromised node carries,
// and every failed rerouting attempt, hands the adversary an extra
// partial trace of the same session. Result.HDegraded measures that
// retry-anonymity cost — the delivered trace's posterior folded with one
// posterior per leaked partial observation, analyzed under the
// uncompromised-receiver model (a failed attempt never reached the
// receiver). HDegraded ≤ H always, and the gap grows with the loss rate;
// the reliability-sweep figure and anonsim -faults plot both next to the
// delivery rate. The contract is pinned by a cross-backend agreement
// suite (internal/scenario/reliability_test.go), the fault arm of the
// differential harness, and faults.FuzzParseFaults.
//
// The commands are thin shells over the scenario layer: anonsim runs one
// scenario on any backend (-backend, -strategy, -protocol), anonopt
// solves the design problem and ranks named strategies against the
// optimum, anonbench regenerates figures, and anond serves the same stack
// over HTTP. None of them constructs a network or an estimator directly,
// and all of them classify failures through scenario.Classify: exit code
// 2 (or HTTP 400) for configurations that can never succeed as written,
// 1 (HTTP 422) for capability refusals, 1 (HTTP 500) for runtime
// failures.
//
// The benchmarks in bench_test.go regenerate every figure and theorem of
// the evaluation section; EXPERIMENTS.md records paper-vs-measured for
// each, and DESIGN.md documents the model reconstruction.
//
// # The anond service
//
// internal/anond + cmd/anond expose the stack as a daemon — anonymity
// analysis as a service. POST /v1/scenario runs any backend, POST
// /v1/degradation serves the repeated-communication curve H_1..H_k, POST
// /v1/optimize solves the static and epoch-aware design problems, and
// GET /v1/metrics and /v1/health report counters and liveness. Requests
// are the scenario vocabulary in JSON; the strategy, timeline, and fault
// fields reuse the CLIs' compact string syntaxes verbatim.
//
// The daemon leans on the library's concurrency contracts rather than
// adding its own: concurrent requests share the process-wide engine
// cache; in-flight requests that decode to the same request coalesce
// into one computation through a single-flight group keyed by the
// endpoint and the decoded request, compared by value (the computation
// runs on a detached context canceled only when the last waiting client
// disconnects); a disconnected client's context cancels its run at the
// backends' next batch checkpoint (scenario.RunContext); and ?stream=1
// turns a long run into NDJSON progress lines fed from Config.Progress,
// ending in one terminal result or error line. Every other answer is one
// line of compact JSON. A per-client token bucket answers 429 with Retry-After
// when a client outruns its budget, and SIGTERM drains gracefully:
// health flips to 503, new compute work is refused, in-flight runs
// finish, and the final metrics snapshot is flushed to the log.
// `make serve-smoke` exercises all of this over a real socket and is a
// blocking CI step.
//
// # Performance
//
// The analysis stack is built around three layers of shared, concurrency-
// safe state; every layer is exact, so cached results are bit-identical to
// recomputation:
//
//   - internal/combin keeps process-wide grow-on-demand tables for
//     ln(n!) and the stars-and-bars composition counts that dominate the
//     engine's inner loop. Reads are lock-free atomic loads of immutable
//     snapshots; growth is mutex-serialized copy-and-replace.
//
//   - events.Engine aggregates over counted shape groups instead of
//     concrete observation classes: per-class statistics depend only on
//     (k compromised, minimum length, free gap count), so the Θ(3^C)
//     class space collapses into O(min(C, L)³) groups with closed-form
//     multiplicities summed from C(k−1,m−1)·C(m−1,j₂). AnonymityDegree
//     and the optimizer's Weights are therefore exact for any C ≤ N−1 —
//     constant corrupted fractions included (N = 1000, C = 400 evaluates
//     in well under a millisecond) — and both read one group list, the
//     hop-count adversary's exact-tail classes included. StatsFor handles
//     single classes at any C, which lets the Monte-Carlo estimator
//     cross-validate the engine deep into the large-C regime. The
//     per-class enumeration survives only as a test oracle.
//
//   - events.Engine memoizes its results per path-length distribution,
//     keyed by the distribution's exact IEEE-754 fingerprint: Weights and
//     AnonymityDegree store whole results. Single-class statistics
//     (StatsFor, behind every simulated trace the adversary analyzes)
//     live in a per-distribution
//     events.StatsTable, for which the engine validates and fingerprints
//     the distribution once. A class's posterior depends on the class only
//     through its shape, so the table keys its entries by the four
//     integers the computation reads (k compromised, and the minimum
//     length, free gap count, and witness count of the shape), and every
//     class of a shape shares one entry. Lookups read a published map
//     without locking; misses go through a mutex-guarded map that is
//     republished once it has served as many slow lookups as it holds
//     entries. The adversary resolves its table once, when it is built,
//     and keeps the compromised set as a bitset over the node indices.
//     Engines are safe for concurrent use; scenario.Engine additionally
//     shares one engine per configuration process-wide — an LRU with a
//     configurable capacity (SetEngineCacheCapacity) and exported
//     hit/miss/eviction counters (CacheStats) — so figures, CLIs, the
//     estimator, and the testbed adversary all hit one cache. A hit
//     builds nothing: the options resolve to a comparable events.Settings
//     on the stack, AnonymityDegree fingerprints the distribution into a
//     stack buffer, and pathsel.Lookup memoizes parsed specs (at most
//     1,024, reset wholesale when full), so a memo-hot exact scenario.Run
//     makes no allocation (TestExactRunAllocation, BenchmarkRunExactHot).
//
//   - events.Engine.Neighbor is the delta path for drifting populations:
//     a (N±dn, C±dc) engine derived from an existing one instead of built
//     from scratch. Every engine evaluates through a family of
//     per-distribution shape tables — the N- and C-independent part of
//     each group's mixture — and a derived engine shares its source's
//     family, so its AnonymityDegree only computes the small N- and
//     C-dependent weight table and a dot product per shape group. A fresh
//     engine is a family of one and folds the same products in the same
//     order, so derived and fresh engines agree bit for bit
//     (FuzzNeighborMatchesFresh) and an answer never depends on which
//     engines a process built before; on a 32-epoch timeline at
//     N ≈ 10^5 the per-epoch exact evaluation is ≈ 5x cheaper than fresh
//     construction (BenchmarkTimelineExactDelta, whose ≈ 20–35 µs/epoch
//     times the engine chain only, not a scenario.Run). scenario.Engine rides it
//     transparently: a cache miss with any same-flag engine resident is
//     delta-derived rather than rebuilt, which makes exact timeline
//     blending and the epoch-aware optimizer cheap by construction.
//
//   - A timeline's schedule is kept as per-phase counts (n_e, c_e),
//     derived and validated by one O(epochs) walk. Only the code that
//     needs node identities — the Monte-Carlo, testbed, and
//     phased-session drivers and the fixed-sender and sender-pool
//     checks — materializes them, as sorted per-phase slices. An exact
//     single-shot timeline scenario.Run, and scenario.TimelineStates
//     behind anonopt -epochs, anond /v1/optimize, and the epoch-optimizer
//     figure, therefore cost O(epochs) plus the engine lookups, whatever
//     N: a warm 10-epoch run at N = 10^6 allocates about 14 KB
//     (TestExactTimelineAllocation), where per-node maps used to take
//     1.1 GB. Normalization keeps a count adversary as its count, so no
//     exact single-shot run, static or timeline, builds the compromised
//     list: at N = 200,000 a warm static run makes no allocation and a
//     three-epoch timeline allocates 720 B, whether 1 or 100,000 nodes
//     are compromised (TestExactRunAllocation), where building the list
//     took 800 KB.
//     A static config's view is its one identity phase; it builds the
//     first Count nodes once per run and uses them as is, since they are
//     sorted, and only an unsorted explicit list costs one sorted copy. A
//     warm static 1,000-message run at N = 10^6 with 2·10^5 compromised
//     nodes allocates about 3.2 MB on Monte-Carlo, where collecting a
//     sorted copy took 11.2 MB (TestStaticRunAllocation).
//
//   - optimize.Maximize solves the §5.4 design problem with one serial
//     active-set method: Newton steps on the face of the current support,
//     Frank–Wolfe steps that bring atoms in, and an exact line search
//     ending each. H*(S) is concave in the length pmf, so the Frank–Wolfe
//     gap certifies the optimum; a solve stops at a gap of 1e-9 bits and
//     reports it (Result.Gap, anond's gap_bits). optimize.MaximizeTimeline
//     lifts the problem to dynamic populations: per-epoch re-optimization,
//     each epoch starting from the previous optimum, plus a joint solve
//     maximizing the traffic-weighted blend Σ w_e·H*_e under one
//     distribution. Results are bit-identical at any pool width. anonopt
//     -epochs and the epoch-optimizer figure are the CLI surfaces.
//
//   - internal/pool is a bounded worker pool (GOMAXPROCS-sized by
//     default) behind every fan-out loop: per-class statistics in events,
//     per-point series generation in figures and the best-uniform scan in
//     optimize, and the scenario layer's sampling workers. The
//     calling goroutine always participates, so a saturated or width-1
//     pool degrades to inline serial execution — never deadlock — and each
//     task writes only its own output slot, which keeps parallel results
//     byte-identical to the serial reference path (pool.SetWorkers(1)).
//
//   - The sampling hot path — every Monte-Carlo trial and testbed
//     session — is allocation-free at steady state. Path lengths draw
//     from a Vose alias table (dist.Alias, O(1) per draw, effective PMF
//     within 1e-12 of the source distribution), distinct intermediates
//     from per-worker scratch arenas (pathsel.Sampler: a reusable path
//     buffer plus an open-addressed rejection set in the sparse regime,
//     and in the dense one a partial Fisher–Yates over one persistent
//     pool of the indices of the nodes other than the sender, whose l
//     swaps are undone after the draw, so a draw costs O(l) and no O(N)
//     refill), and adversarial analysis takes
//     the path route: Analyst.PathEntropy and Accumulator.ObservePath
//     walk the sampled path once against the compromised bitset, count
//     the class's shape (compromised hops, one-node and wider junctions,
//     tail gap, witnesses), and look it up in the analyst's shape-keyed
//     statistics table, with no trace in between and zero heap traffic
//     once the table is warm; the sampled sessions of dynamic populations
//     fold the same way, in each phase's dense node space. The trace
//     route (EntropyScratch, ObserveScratch and FoldObservation through
//     an adversary.Scratch) serves every analysis that starts from
//     reports, the testbed's collected traces and the partial traces of
//     failed deliveries: one classifier reads a trace into the same
//     counts, which the same table lookup and fold step take, and no
//     events.Class is built on either route. FuzzPathObservation holds
//     the two routes to the same bits. The multi-round degradation benchmark
//     dropped from ~93ms / 57MB / 366k allocations per op to ~21ms / 15kB
//     / ~120 allocations, and BenchmarkDegradationRounds fails if the
//     per-op allocation count regresses past 1% of the old baseline.
//
//   - adversary.Accumulator, behind every multi-round session, static or
//     across a timeline's phases, and every retry-degraded H (HDegraded),
//     keeps the joint posterior in the spike/slab form each round's
//     posterior has: one log value shared by every node no round singled
//     out, and short lists of eliminated nodes and former spike
//     candidates. Each node records the first phase in which it is absent
//     or compromised, and leaves the slab when a session's first round in
//     that phase folds, through per-phase counts. A fold, entering a
//     phase, a snapshot, and a Reset therefore cost
//     O(witnesses + candidates + touched) per round whatever the union's
//     size, and a static accumulator's state is one byte per node.
//     Per-node log values are the sums the dense vector held; only the
//     snapshot's sums reassociate, and FuzzAccumulatorFold and
//     FuzzPhasedFold check them against the dense reference folds to
//     1e-9.
//
//   - Randomness in the trial loops is counter-based (stats.Stream, a
//     SplitMix64 stream): trial t of seed s draws a pure function of
//     (s, t, draw index), so estimates are bit-identical at any worker
//     count — workers steal fixed-size trial batches and merge partial
//     Welford statistics in batch order. The stream derivation shares
//     stats.ForkSeed's lineage with the kernel's per-message draws.
//     Changing the mixing constants, the per-trial draw order, or the
//     stream derivation is a breaking change to every seed-pinned golden
//     (anonbench TSVs, TestSeedDeterminism, the differential harness
//     corpus): regenerate them in the same commit and say so, as
//     documented in internal/stats/stream.go.
//
// # Static invariants
//
// The determinism and error contracts above are not just documented —
// they are machine-checked. internal/analysis is a small go/analysis-
// style framework (stdlib-only: packages load via `go list -json -deps
// -export`, module sources are type-checked into one shared universe,
// and object facts propagate across package boundaries) carrying four
// analyzers, run by cmd/anonlint, `make lint`, the CI lint step, and
// the suite self-check test:
//
//   - detrand: in the determinism-contract packages (simnet, montecarlo,
//     events, faults, adversary, scenario, optimize, pathsel, stats) no
//     time.Now, no global math/rand draws, and no order-sensitive `for
//     range` over a map — writes keyed by the loop key, commutative
//     integer accumulation, and the collect-then-sort idiom pass;
//     appends, sends, early returns, and float reductions do not.
//
//   - seedpurity: every RNG constructor (math/rand.NewSource,
//     stats.NewRand/Fork/ForkSeed/NewStream, and — via derived facts —
//     any helper that feeds a parameter into one of them) must be seeded
//     from an explicit parameter or field, never a literal, a
//     package-level variable, or the wall clock.
//
//   - errcontract: errors born inside Validate/normalize/Parse*
//     functions must stay errors.Is-matchable against a package sentinel
//     (%w-wrapping or errors.Join), because the differential harness and
//     the fuzz targets assert sentinel identity across backends.
//
//   - floatcmp: no exact ==/!= between two computed floating-point
//     values; comparisons against constants and the x != x NaN test are
//     exempt.
//
// A deliberate exception is annotated in place as
// //anonlint:allow <analyzer>(<reason>) — the reason is mandatory, the
// annotation covers only its own line and the next, and a malformed
// annotation is itself a lint failure rather than a silent no-op, so
// `grep -rn 'anonlint:allow'` always enumerates the complete, justified
// exception list.
//
// The benchmark harness doubles as the regression gate:
//
//	make bench-smoke     # perf acceptance suite (same command CI runs)
//	go test -race ./...  # cache-layer safety
//	make lint            # go vet + anonlint (static invariants)
//	make bench           # snapshot BENCH_<date>_<sha>.json
//	make bench-compare   # gate ns/op, B/op, allocs/op vs the baseline
//	make profile         # CPU + heap pprof over the smoke set
//
// EXPERIMENTS.md records the current numbers, including the measured
// speedup of the cache layer over the serial baseline, of the bucketed
// engine over the per-class enumeration, and of the zero-allocation
// sampling fast path over the seed hot loop.
package anonmix
