// Package scenario is the unification layer of the repository: one
// declarative description of an experiment — population, adversary,
// path-selection strategy, protocol substrate, and workload — that any
// capable backend can execute through a single entry point:
//
//	res, err := scenario.Run(scenario.Config{
//	        N:         1000,
//	        Backend:   scenario.BackendTestbed,
//	        StrategySpec: "crowds:0.75,20",
//	        Protocol:  scenario.ProtocolCrowds,
//	        Adversary: scenario.Adversary{Count: 3},
//	        Workload:  scenario.Workload{Messages: 5000, Seed: 1},
//	})
//
// Run dispatches to one of three backends: the exact counted-bucket
// engine (BackendExact), the sampling estimator (BackendMonteCarlo), and
// the sharded discrete-event testbed (BackendTestbed). All three compute the
// same quantity — the anonymity degree H*(S) of Guan et al. (ICDCS 2002)
// — so any scenario a backend can express must agree with the others
// within sampling error; the cross-backend agreement test in this package
// pins that property.
//
// When a backend cannot execute a scenario (the exact engine refuses
// cyclic routes, analytic backends refuse wire protocols with their own
// routing), Run refuses it with a *CapabilityError from one table, so
// callers can switch backends on errors.Is rather than string-matching.
// Run also derives what every backend's measurement implies — MaxH,
// Normalized, and CI95 — in one place.
package scenario

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"anonmix/internal/dist"
	"anonmix/internal/entropy"
	"anonmix/internal/events"
	"anonmix/internal/faults"
	"anonmix/internal/pathsel"
	"anonmix/internal/trace"
)

// ErrBadConfig reports an inconsistent scenario configuration.
var ErrBadConfig = errors.New("scenario: invalid configuration")

// ErrUnknownBackend reports a backend kind other than the built-in ones.
var ErrUnknownBackend = errors.New("scenario: unknown backend")

// ErrCanceled reports a run aborted by RunContext's context. Returned
// errors wrap both this sentinel and the context's own error, so
// errors.Is matches either vocabulary.
var ErrCanceled = errors.New("scenario: run canceled")

// BackendKind names a backend.
type BackendKind string

// The backends.
const (
	// BackendExact is the closed-form counted-bucket engine (package
	// events): exact H*(S), no sampling error, simple paths only.
	BackendExact BackendKind = "exact"
	// BackendMonteCarlo is the sampling estimator (mc.go): unbiased
	// H*(S) estimates with confidence intervals.
	BackendMonteCarlo BackendKind = "mc"
	// BackendTestbed executes the scenario on the sharded discrete-event
	// network kernel (package simnet) and measures H*(S) empirically from
	// the adversary's collected tuples.
	BackendTestbed BackendKind = "testbed"
)

// backendNames lists the backend kinds in error messages.
const backendNames = "exact, mc, testbed"

// ParseBackend resolves a backend name; it accepts the canonical kinds
// plus the aliases "montecarlo" and "sim".
func ParseBackend(s string) (BackendKind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "exact", "":
		return BackendExact, nil
	case "mc", "montecarlo":
		return BackendMonteCarlo, nil
	case "testbed", "sim":
		return BackendTestbed, nil
	default:
		return "", fmt.Errorf("%w: %q (known: %s)", ErrUnknownBackend, s, backendNames)
	}
}

// Protocol selects the wire substrate a testbed scenario executes.
// Analytic backends (exact, Monte-Carlo) model the observable structure
// directly and accept only substrates whose observations match the
// simple-path model (plain and onion).
type Protocol uint8

// The protocol substrates.
const (
	// ProtocolPlain routes packets with explicit plain source routes.
	ProtocolPlain Protocol = iota
	// ProtocolOnion wraps each route in layered encryption (package
	// onion); the observable structure is identical to plain routing.
	ProtocolOnion
	// ProtocolCrowds runs the coin-flip jondo protocol (package crowds):
	// routing is per-hop random with cycles, so only the testbed can
	// execute it.
	ProtocolCrowds
	// ProtocolMix routes plainly but batches packets at every node in
	// threshold mixes (simnet.Config.BatchThreshold), exercising
	// mix-network timing; testbed only.
	ProtocolMix
)

// String names the protocol.
func (p Protocol) String() string {
	switch p {
	case ProtocolPlain:
		return "plain"
	case ProtocolOnion:
		return "onion"
	case ProtocolCrowds:
		return "crowds"
	case ProtocolMix:
		return "mix"
	default:
		return fmt.Sprintf("Protocol(%d)", uint8(p))
	}
}

// ParseProtocol resolves a protocol name.
func ParseProtocol(s string) (Protocol, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "plain", "":
		return ProtocolPlain, nil
	case "onion":
		return ProtocolOnion, nil
	case "crowds":
		return ProtocolCrowds, nil
	case "mix", "mixbatch":
		return ProtocolMix, nil
	default:
		return 0, fmt.Errorf("%w: unknown protocol %q (known: plain, onion, crowds, mix)", ErrBadConfig, s)
	}
}

// Adversary describes the threat model of a scenario.
type Adversary struct {
	// Compromised lists the adversary's nodes explicitly. When nil, the
	// first Count nodes are compromised (the convention of the paper's
	// figures and of every cmd).
	Compromised []trace.NodeID
	// Count is the number of compromised nodes when Compromised is nil.
	Count int
	// UncompromisedReceiver drops the receiver's report from the
	// adversary's view (the paper's default has the receiver compromised).
	UncompromisedReceiver bool
	// NoSenderSelfReport disables the local-eavesdropper branch in which
	// a compromised sender identifies itself (ablation).
	NoSenderSelfReport bool
}

// normalized validates the adversary against an n-node system. An
// explicit list is checked and copied, and Count set to its length; a
// count stays a count, and nodes builds its identities where a layer
// needs them.
func (a Adversary) normalized(n int) (Adversary, error) {
	if a.Compromised != nil {
		seen := make(map[trace.NodeID]bool, len(a.Compromised))
		for _, id := range a.Compromised {
			if int(id) < 0 || int(id) >= n {
				return Adversary{}, fmt.Errorf("%w: compromised node %v outside [0,%d)", ErrBadConfig, id, n)
			}
			if seen[id] {
				return Adversary{}, fmt.Errorf("%w: duplicate compromised node %v", ErrBadConfig, id)
			}
			seen[id] = true
		}
		// A defensive copy: backends receive this slice in their normalized
		// config, and one that sorts or otherwise rearranges it must not
		// corrupt the caller's Config across reuse on another backend.
		a.Compromised = append([]trace.NodeID(nil), a.Compromised...)
		a.Count = len(a.Compromised)
		return a, nil
	}
	if a.Count < 0 || a.Count > n {
		return Adversary{}, fmt.Errorf("%w: %d compromised of %d nodes", ErrBadConfig, a.Count, n)
	}
	return a, nil
}

// nodes returns the compromised set of a normalized adversary: the
// explicit list, or else the first Count nodes. The prefix is built anew
// on every call, so a layer that needs identities asks once per run. The
// explicit list is the config's own, shared by every reader of the run's
// config, so callers must not modify the result.
func (a Adversary) nodes() []trace.NodeID {
	if a.Compromised != nil {
		return a.Compromised
	}
	out := make([]trace.NodeID, a.Count)
	for i := range out {
		out[i] = trace.NodeID(i)
	}
	return out
}

// Epoch is one piecewise-constant phase of a dynamic-population timeline.
// Population and adversary deltas take effect at the phase start, in a
// fixed order (joins, leaves, compromises, recoveries) under deterministic
// identity rules — see Config.Timeline — so the membership schedule is a
// pure function of the configuration and identical across backends.
type Epoch struct {
	// Messages is the phase's single-shot traffic budget: messages on the
	// testbed, sampling trials on Monte-Carlo, and the phase's weight in
	// the exact backend's message-weighted mixture. Mutually exclusive with
	// Rounds across the whole timeline.
	Messages int
	// Rounds is the number of repeated-communication rounds every session
	// sends during this phase. When any epoch sets Rounds, the timeline is
	// a degradation run: Workload.Messages sessions persist across all
	// phases, the adversary accumulates over the phase boundaries, and the
	// blended curve H_1..H_k spans k = ΣRounds.
	Rounds int
	// Join adds this many new nodes at the phase start. Joiners get fresh
	// identities (allocated upward from the initial N) and are honest.
	Join int
	// Leave removes this many honest members at the phase start, highest
	// identities first. Compromised nodes never leave — shrink the
	// adversary with Recover.
	Leave int
	// Compromise converts this many honest members to adversary nodes at
	// the phase start, lowest identities first (creeping compromise,
	// matching the "first Count nodes" convention of the static model).
	Compromise int
	// Recover returns this many compromised nodes to honest operation,
	// most recently compromised first (LIFO over the compromise order).
	Recover int
}

// Workload describes how much traffic a scenario generates and how.
type Workload struct {
	// Messages is the number of messages (testbed) or sampling trials
	// (Monte-Carlo); with Rounds > 1 it is the number of
	// repeated-communication sessions. Ignored by the exact backend for
	// single-shot runs.
	Messages int
	// Rounds is the number of messages each session's fixed sender sends
	// to the receiver (default 1, the paper's single-shot model). Values
	// above one switch every backend into the repeated-communication
	// regime of Wright et al. ([23] in Guan et al.): the adversary
	// accumulates the per-round posteriors (Bayesian multiplication on the
	// simple-path substrates, predecessor counting on Crowds) and the
	// Result carries the degradation curve H_1..H_k. The accumulator keeps
	// the joint posterior in spike/slab form, so a round costs
	// O(witnesses + candidates) whatever N is.
	Rounds int
	// Confidence, when in (0,1), additionally tracks identification in
	// multi-round runs: a session counts as identified at the first round
	// where the accumulated posterior puts at least this mass on the true
	// sender. Zero disables tracking.
	Confidence float64
	// FixedSender pins every session's initiator to Sender instead of
	// drawing senders uniformly (the one-whistleblower workload of the
	// repeated-communication attack). The pinned sender must be honest.
	FixedSender bool
	// Sender is the pinned initiator when FixedSender is set.
	Sender trace.NodeID
	// Seed makes randomized backends reproducible.
	Seed int64
	// Workers bounds Monte-Carlo sampling parallelism (0 = pool width).
	Workers int
	// MaxHopDelay adds random logical per-hop delay on the testbed.
	MaxHopDelay time.Duration
	// BatchThreshold sets the testbed threshold-mix batch size for
	// ProtocolMix (default 8).
	BatchThreshold int
}

// degradation reports whether the workload asks for the
// repeated-communication analysis (multi-round accumulation, or
// identification tracking on top of single rounds).
func (w Workload) degradation() bool {
	return w.Rounds > 1 || w.Confidence > 0
}

// sessions reports whether the run is a degradation run: persistent
// sessions of a static population, or across a Rounds timeline.
func (c *Config) sessions() bool {
	return c.Workload.degradation() || timelineRounds(c.phases)
}

// Config is the declarative description of one run.
type Config struct {
	// N is the system population.
	N int
	// Backend selects the execution engine (default BackendExact).
	Backend BackendKind
	// Strategy is the path-selection strategy. Leave zero and set
	// StrategySpec to resolve it from the pathsel registry. Scenarios on
	// ProtocolCrowds may omit both (the protocol routes by itself).
	Strategy pathsel.Strategy
	// StrategySpec is a pathsel registry spec ("uniform:0,10",
	// "crowds:0.75,20"), used when Strategy is zero.
	StrategySpec string
	// Protocol is the wire substrate (testbed; analytic backends accept
	// plain and onion, whose observable structure they model).
	Protocol Protocol
	// CrowdsPf is the Crowds forwarding probability for ProtocolCrowds.
	// When zero it is recovered from a geometric Strategy.Length.
	CrowdsPf float64
	// Adversary is the threat model.
	Adversary Adversary
	// Workload is the traffic description.
	Workload Workload
	// Timeline, when non-empty, makes the population dynamic: each Epoch is
	// a piecewise-constant phase with its own traffic budget and its
	// population/adversary deltas applied at the phase start. The exact
	// backend folds per-phase exact values into a traffic-weighted mixture,
	// Monte-Carlo samples each phase with its budget, and the testbed
	// executes the schedule as kernel-level churn events at virtual
	// timestamps with path selection restricted to the live membership.
	// Epochs carry either Messages (single-shot phases) or Rounds
	// (persistent sessions degrading across phases), never a mix.
	Timeline []Epoch
	// Faults, when non-nil, injects deterministic delivery faults: per-link
	// loss, per-node crash windows at virtual times, and extra hop jitter
	// (see faults.Plan and faults.ParseFaults). All draws derive from
	// Workload.Seed, so a faulted run is exactly as reproducible as a
	// lossless one. Fault-injected scenarios are single-shot: Rounds > 1,
	// Confidence tracking, and Crowds are rejected. The exact backend
	// models PolicyNone loss in closed form via the effective-delivery
	// length distribution; crashes and retry policies run on the sampling
	// backends.
	Faults *faults.Plan
	// Reliability selects how the system reacts to a lost transmission or
	// crashed hop: drop (PolicyNone, the default), per-link retransmission
	// with capped exponential backoff, or end-to-end rerouting over a
	// fresh path. Meaningful only with Faults set.
	Reliability faults.Reliability
	// Progress, when non-nil, receives coarse progress callbacks while the
	// run executes: sampled backends report cumulative completed trials or
	// sessions, closed-form timelines report completed phases, and timeline
	// runs additionally attach each completed epoch's partial result. The
	// callback may be invoked concurrently from worker goroutines and must
	// return quickly; it must not call back into the scenario layer. The
	// testbed backend honors cancellation but reports no progress (its
	// analysis happens after the network settles).
	Progress func(Progress)

	// phases is the normalized schedule's per-phase counts, derived from
	// Timeline (computed by normalize; backends read it, and build the
	// identity view from it when they need one; callers never set it).
	phases []phase
	// view and pool are the identity view and the session sender pool,
	// kept when normalize builds them for its sender checks (nil
	// otherwise), so a run builds each at most once.
	view []members
	pool []trace.NodeID
	// ctx carries RunContext's cancellation (nil for plain Run; backends
	// poll it between work units, callers never set it directly).
	ctx context.Context
}

// Progress is one progress callback of a running scenario.
type Progress struct {
	// Done and Total count the run's work units: sampling trials for the
	// Monte-Carlo backend, sessions for degradation runs, messages for
	// sampled single-shot timelines, and phases for closed-form timelines.
	Done, Total int
	// Epoch, when non-nil, is the just-completed phase's partial result
	// (timeline runs only; the final Result's Epochs collect the same
	// values).
	Epoch *EpochResult
}

// CrowdsReport carries the Crowds-specific outcome of a testbed run: the
// Reiter–Rubin predecessor statistics the paper's §2 survey cites.
type CrowdsReport struct {
	// Pf is the forwarding probability used.
	Pf float64
	// Observed is the number of messages any collaborator saw.
	Observed int
	// Hits is the number of observed messages whose first collaborator's
	// predecessor was the true initiator.
	Hits int
	// PredecessorProb is the Reiter–Rubin closed form P(H1 | H1+).
	PredecessorProb float64
	// ProbableInnocence reports whether the probable-innocence condition
	// holds for (n, c, pf).
	ProbableInnocence bool
	// EventEntropy is the posterior entropy of the observed event.
	EventEntropy float64
	// TopCountIdentifiedShare is the fraction of sessions whose initiator
	// ended with the strictly highest predecessor count — the classical
	// predecessor-counting identification rule across path reformations.
	TopCountIdentifiedShare float64
	// MeanObservedRounds is the mean number of rounds per session in which
	// any collaborator was on the path.
	MeanObservedRounds float64
}

// KernelStats snapshots the testbed kernel after a run.
type KernelStats struct {
	// Shards is the number of event-kernel shards (worker goroutines).
	Shards int
	// Events is the number of node-arrival events processed.
	Events uint64
	// BatchFlushes counts threshold-mix flushes.
	BatchFlushes uint64
	// Churn is the number of membership/compromise transitions the kernel
	// executed (dynamic-population timelines only).
	Churn int
	// Goroutines is the number of goroutines the run added over the
	// process baseline captured before the network started — the kernel's
	// shard goroutines (measured after injection, before the settle
	// waiter spawns), never O(N).
	Goroutines int
	// EventsPerSec is Events divided by the settle time.
	EventsPerSec float64
}

// EpochResult summarizes one phase of a dynamic-population run.
type EpochResult struct {
	// Index is the epoch's position in Config.Timeline.
	Index int
	// N is the live population during the phase.
	N int
	// C is the number of compromised live nodes during the phase.
	C int
	// Messages is the traffic analyzed in the phase: single-shot messages
	// or trials, or sessions × rounds-in-phase for degradation timelines.
	Messages int
	// Rounds is the number of session rounds falling in this phase
	// (degradation timelines only).
	Rounds int
	// H is the mean posterior entropy of the phase's traffic — exact for
	// the exact backend's single-shot mixture, estimated elsewhere; for
	// degradation runs it is the mean accumulated entropy over the phase's
	// rounds. Zero when the phase carried no traffic.
	H float64
}

// Result is the outcome of a run, whatever the backend.
type Result struct {
	// Backend is the backend that produced the result.
	Backend BackendKind
	// Strategy echoes the resolved strategy (zero for protocol-routed
	// scenarios).
	Strategy pathsel.Strategy
	// H is the anonymity degree in bits: exact, estimated, or empirical.
	H float64
	// StdErr and CI95 quantify sampling error (zero for exact); CI95 is
	// the normal-approximation half-width 1.96·StdErr.
	StdErr float64
	CI95   float64
	// Estimated marks sampled results (Monte-Carlo, testbed).
	Estimated bool
	// Trials is the number of samples behind an estimate (0 for exact).
	Trials int
	// MaxH is log2(N), the upper bound; over a timeline, the
	// traffic-weighted Σ w_e·log2(n_e) of its phases.
	MaxH float64
	// Normalized is H / MaxH.
	Normalized float64
	// CompromisedSenderShare is the fraction of trials with a compromised
	// sender (identified outright; the C/N branch).
	CompromisedSenderShare float64
	// Deanonymized counts messages (sessions, in multi-round runs) whose
	// posterior entropy was ≈ 0.
	Deanonymized int
	// Rounds echoes the normalized Workload.Rounds.
	Rounds int
	// HRounds is the degradation curve of a repeated-communication run:
	// HRounds[r] is the mean accumulated posterior entropy after round
	// r+1, averaged over sessions. H, StdErr, and CI95 describe the final
	// round. Nil for single-shot runs without degradation tracking.
	HRounds []float64
	// IdentifiedShare is the fraction of sessions identified within Rounds
	// at Workload.Confidence (0 when tracking is off).
	IdentifiedShare float64
	// MeanRoundsToIdentify is the mean identification round among
	// identified sessions (0 when none).
	MeanRoundsToIdentify float64
	// Epochs carries the per-phase results of a dynamic-population run in
	// timeline order (nil for static scenarios); H, HRounds, and the other
	// top-level fields hold the blended values.
	Epochs []EpochResult
	// DeliveryRate is the fraction of messages delivered end to end under
	// the configured fault plan (1 for lossless runs). H describes the
	// delivered messages only — the traffic the adversary's receiver-side
	// evidence exists for.
	DeliveryRate float64
	// MeanAttempts is the mean number of transmission attempts per
	// injected message: 1 under PolicyNone, 1 plus the mean retransmission
	// count under PolicyRetransmit, and the mean number of end-to-end path
	// attempts under PolicyReroute.
	MeanAttempts float64
	// HDegraded is the retry-degraded anonymity degree: H recomputed with
	// the adversary additionally folding the evidence leaked by
	// retransmissions and failed rerouting attempts (partial traces
	// analyzed under the uncompromised-receiver model). Equal to H for
	// lossless runs; always ≤ H, with the gap growing in the loss rate.
	HDegraded float64
	// Elapsed is the wall-clock backend runtime.
	Elapsed time.Duration
	// Kernel reports testbed kernel counters (nil elsewhere).
	Kernel *KernelStats
	// Crowds carries the Crowds predecessor statistics (nil elsewhere).
	Crowds *CrowdsReport
}

// Run normalizes the configuration and dispatches it to its backend. This
// is the single entry point every CLI routes through: switching backend,
// strategy, protocol, or threat model is a field change, not a different
// code path. Run decides what the backends share: it refuses what the
// chosen backend cannot run (refusal), and it derives MaxH, Normalized
// and CI95 from what the backend measured. A backend (runExact,
// runMonteCarlo, runTestbed) receives the normalized config: Strategy
// resolved from its spec, Adversary validated with Count set, and Backend
// set to its own kind.
func Run(cfg Config) (Result, error) {
	norm, err := normalize(cfg)
	if err != nil {
		return Result{}, err
	}
	var run func(Config) (Result, error)
	switch norm.Backend {
	case BackendExact:
		run = runExact
	case BackendMonteCarlo:
		run = runMonteCarlo
	case BackendTestbed:
		run = runTestbed
	default:
		return Result{}, fmt.Errorf("%w: %q (known: %s)", ErrUnknownBackend, norm.Backend, backendNames)
	}
	if err := norm.checkCanceled(); err != nil {
		return Result{}, err
	}
	if err := refusal(&norm); err != nil {
		return Result{}, err
	}
	start := time.Now() //anonlint:allow detrand(wall-clock metrics only, never flows into Result)
	res, err := run(norm)
	if err != nil {
		return Result{}, wrapCanceled(&norm, err)
	}
	res.Backend = norm.Backend
	res.Strategy = norm.Strategy
	res.Rounds = norm.Workload.Rounds
	res.MaxH = entropy.Max(norm.N)
	if len(norm.phases) > 0 {
		res.MaxH = timelineMaxH(norm.phases)
	}
	res.Normalized = res.H / res.MaxH
	res.CI95 = 1.96 * res.StdErr
	if norm.Faults == nil {
		// Lossless runs deliver everything in one attempt and leak nothing
		// beyond the base observations.
		res.DeliveryRate = 1
		res.MeanAttempts = 1
		res.HDegraded = res.H
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// RunContext is Run with cancellation: the context aborts the run at the
// next checkpoint — sampled backends poll between trial batches, serial
// loops between sessions, timelines between phases, the testbed between
// injections — so a disconnected client stops burning CPU within one work
// unit, not at the end of the run. Returned cancellation errors wrap both
// ErrCanceled and the context's own error (context.Canceled or
// context.DeadlineExceeded), so errors.Is matches either vocabulary.
func RunContext(ctx context.Context, cfg Config) (Result, error) {
	cfg.ctx = ctx
	return Run(cfg)
}

// checkCanceled polls the run's context at a checkpoint.
func (c *Config) checkCanceled() error {
	if c.ctx == nil {
		return nil
	}
	if err := c.ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return nil
}

// cancelChan is the cancellation channel the batch runner polls (nil —
// never firing — when the run has no context).
func (c *Config) cancelChan() <-chan struct{} {
	if c.ctx == nil {
		return nil
	}
	return c.ctx.Done()
}

// cancelRequested polls a cancellation channel without blocking; a nil
// channel never fires.
func cancelRequested(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// wrapCanceled rewraps a lower layer's context error into the scenario
// vocabulary, so callers match ErrCanceled no matter which layer noticed
// the cancellation first.
func wrapCanceled(cfg *Config, err error) error {
	if err == nil || cfg.ctx == nil || errors.Is(err, ErrCanceled) {
		return err
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return err
}

// emitProgress invokes the run's progress callback, if any.
func (c *Config) emitProgress(done, total int, ep *EpochResult) {
	if c.Progress != nil {
		c.Progress(Progress{Done: done, Total: total, Epoch: ep})
	}
}

// normalize validates the config and resolves every symbolic field.
func normalize(cfg Config) (Config, error) {
	if cfg.N < 2 {
		return Config{}, fmt.Errorf("%w: n = %d", ErrBadConfig, cfg.N)
	}
	if cfg.Backend == "" {
		cfg.Backend = BackendExact
	}
	adv, err := cfg.Adversary.normalized(cfg.N)
	if err != nil {
		return Config{}, err
	}
	cfg.Adversary = adv

	if cfg.Strategy.Length == nil && cfg.StrategySpec != "" {
		s, err := pathsel.Lookup(cfg.StrategySpec)
		if err != nil {
			return Config{}, err
		}
		cfg.Strategy = s
	}
	if cfg.Strategy.Length != nil {
		if err := cfg.Strategy.Validate(cfg.N); err != nil {
			return Config{}, err
		}
	} else if cfg.Protocol != ProtocolCrowds {
		return Config{}, fmt.Errorf("%w: no strategy (set Strategy or StrategySpec)", ErrBadConfig)
	}
	// A strategy that routes hop-by-hop with cycles is the Crowds family;
	// promote the protocol so the testbed picks the right substrate.
	if cfg.Strategy.Kind == pathsel.Complicated && cfg.Protocol == ProtocolPlain {
		cfg.Protocol = ProtocolCrowds
	}
	if cfg.Protocol == ProtocolCrowds && cfg.CrowdsPf == 0 {
		if g, ok := cfg.Strategy.Length.(dist.Geometric); ok {
			cfg.CrowdsPf = g.Pf
		}
		if cfg.CrowdsPf == 0 {
			// pf = 0 degenerates to direct sends (zero anonymity) and is
			// indistinguishable from "forgot to set it" — refuse rather
			// than silently produce meaningless predecessor statistics.
			return Config{}, fmt.Errorf("%w: crowds substrate needs a forwarding probability (set CrowdsPf or use a crowds:<pf> strategy)", ErrBadConfig)
		}
	}
	// A set forwarding probability must be a probability: values outside
	// (0,1) used to flow into the backends unchecked and surface as
	// backend-internal errors (or, worse, as a geometric distribution
	// constructed from garbage).
	if pf := cfg.CrowdsPf; pf != 0 && !(pf > 0 && pf < 1) {
		return Config{}, fmt.Errorf("%w: crowds forwarding probability %v outside (0,1)", ErrBadConfig, pf)
	}
	if cfg.Workload.Rounds < 0 {
		return Config{}, fmt.Errorf("%w: rounds = %d", ErrBadConfig, cfg.Workload.Rounds)
	}
	if cfg.Workload.Rounds == 0 {
		cfg.Workload.Rounds = 1
	}
	if c := cfg.Workload.Confidence; !(c >= 0 && c < 1) {
		// The negated conjunction also catches NaN, which would otherwise
		// slip through both comparisons and silently disable tracking.
		return Config{}, fmt.Errorf("%w: confidence %v outside [0,1)", ErrBadConfig, c)
	}
	if cfg.Workload.FixedSender {
		if int(cfg.Workload.Sender) < 0 || int(cfg.Workload.Sender) >= cfg.N {
			return Config{}, fmt.Errorf("%w: fixed sender %v outside [0,%d)", ErrBadConfig, cfg.Workload.Sender, cfg.N)
		}
		// A count adversary holds the first Count nodes.
		s := cfg.Workload.Sender
		compromised := int(s) < cfg.Adversary.Count
		if cfg.Adversary.Compromised != nil {
			compromised = slices.Contains(cfg.Adversary.Compromised, s)
		}
		if compromised {
			return Config{}, fmt.Errorf("%w: fixed sender %v is compromised (identified at round 0)", ErrBadConfig, s)
		}
	}
	if cfg.Workload.MaxHopDelay < 0 {
		// Rejected here so the error is uniformly ErrBadConfig instead of
		// surfacing as the testbed kernel's internal sentinel.
		return Config{}, fmt.Errorf("%w: MaxHopDelay %v", ErrBadConfig, cfg.Workload.MaxHopDelay)
	}
	if err := normalizeTimeline(&cfg); err != nil {
		return Config{}, err
	}
	if err := normalizeFaults(&cfg); err != nil {
		return Config{}, err
	}
	// Every sampled run needs a positive message budget. Validating here
	// keeps the error uniformly ErrBadConfig instead of leaking
	// backend-internal vocabularies (montecarlo used to report its own
	// "trials = 0", and only the testbed checked at all).
	sampled := cfg.Backend == BackendMonteCarlo || cfg.Backend == BackendTestbed ||
		(cfg.Backend == BackendExact && cfg.Workload.degradation())
	if sampled && cfg.Workload.Messages <= 0 {
		return Config{}, fmt.Errorf("%w: %s backend needs Workload.Messages > 0 (got %d)",
			ErrBadConfig, cfg.Backend, cfg.Workload.Messages)
	}
	return cfg, nil
}

// engine returns the shared exact engine of n nodes with count of them
// compromised, under the engine options the scenario's Adversary derives
// and then extra. The options gather in a stack buffer, so a resident
// engine costs no allocation.
func (c *Config) engine(n, count int, extra ...events.Option) (*events.Engine, error) {
	var buf [3]events.Option
	opts := buf[:0]
	if c.Adversary.UncompromisedReceiver {
		opts = append(opts, events.WithUncompromisedReceiver())
	}
	if c.Adversary.NoSenderSelfReport {
		opts = append(opts, events.WithoutSenderSelfReport())
	}
	return Engine(n, count, append(opts, extra...)...)
}
