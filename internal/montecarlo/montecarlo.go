// Package montecarlo estimates the anonymity degree by sampling: it draws
// rerouting paths from a strategy, classifies each path straight against
// the compromised set (adversary.Analyst.PathEntropy and
// Accumulator.ObservePath count what the compromised nodes' reports would
// reveal without writing them), runs the exact posterior inference on
// each, and averages the posterior entropies. Traces are still synthesized
// where a report stream is what gets analyzed: the partial traces of
// failed delivery attempts, and SynthesizeInto's output for callers such
// as the scenario layer's phased sessions and the tests that hold the path
// route to the trace route. Because each sampled event's entropy is
// computed exactly (only the event itself is sampled), the estimator is
// unbiased with low variance; it exists to validate the closed-form engine
// and to extend the analysis to configurations the exact enumeration does
// not cover (for example more compromised nodes than the class space
// allows).
//
// The trial loops run on a zero-allocation fast path: every trial derives
// its own counter-based RNG stream (stats.NewStream(Seed, trial)), draws
// paths through a per-worker alias-table sampler (pathsel.Sampler), and
// analyzes them through per-worker scratch arenas (adversary.Scratch plus
// reusable accumulators). Trials are scheduled in fixed batches whose
// partial Welford summaries merge in batch order, so the estimate is a
// pure function of (Seed, Trials) — the worker count only sets the
// parallelism.
package montecarlo

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"anonmix/internal/adversary"
	"anonmix/internal/dist"
	"anonmix/internal/events"
	"anonmix/internal/faults"
	"anonmix/internal/pathsel"
	"anonmix/internal/pool"
	"anonmix/internal/scenario/capability"
	"anonmix/internal/stats"
	"anonmix/internal/trace"
)

// Errors returned by the estimator.
var (
	// ErrBadConfig reports an inconsistent estimator configuration.
	ErrBadConfig = errors.New("montecarlo: invalid configuration")
	// ErrComplicatedPaths reports a strategy with cyclic routes, which the
	// simple-path posterior model does not cover; use package crowds for
	// the predecessor analysis of cyclic routes, or the testbed backend.
	//
	// It is an alias of the scenario layer's canonical capability sentinel
	// (see internal/scenario/capability), so errors.Is treats it, core's
	// ErrComplicated, and capability.ErrComplicatedPaths as one error.
	ErrComplicatedPaths = capability.ErrComplicatedPaths
)

// trialBatchSize is the work-stealing granule of the estimators: trials
// [b·64, (b+1)·64) form batch b. Each batch's partial statistics are
// computed from that batch's per-trial streams alone and merged in batch
// order, so results are invariant to how batches land on workers.
const trialBatchSize = 64

// Config parameterizes an estimation run.
type Config struct {
	// N is the number of system nodes.
	N int
	// Compromised lists the adversary's nodes (the receiver is always
	// compromised in addition).
	Compromised []trace.NodeID
	// Strategy is the path-selection policy to evaluate (simple paths).
	Strategy pathsel.Strategy
	// Trials is the number of sampled messages (Rounds ≤ 1) or sampled
	// repeated-communication sessions (Rounds > 1).
	Trials int
	// Rounds is the number of messages each sampled session sends from one
	// fixed sender (the repeated-communication attack of Wright et al.).
	// Zero or one means the classical single-shot estimate; larger values
	// fold every session's per-round posteriors through an
	// adversary.Accumulator and report the degradation curve H_1..H_k.
	Rounds int
	// Confidence, when in (0,1), tracks identification: a session counts as
	// identified at the first round where the accumulated posterior's top
	// node is the true sender with at least this mass.
	Confidence float64
	// FixedSender pins every trial's (or session's) initiator to Sender
	// instead of drawing senders uniformly.
	FixedSender bool
	// Sender is the pinned initiator when FixedSender is set.
	Sender trace.NodeID
	// Seed makes the run reproducible.
	Seed int64
	// Workers sets the number of sampling goroutines; it defaults to the
	// shared pool width (pool.Workers()) so sampling saturates the machine.
	// Every trial draws from its own counter-based stream, so the estimate
	// is a pure function of (Seed, Trials) alone — Workers only controls
	// how fast it is computed.
	Workers int
	// EngineOptions are forwarded to the exact engine (inference mode,
	// receiver assumptions).
	EngineOptions []events.Option
	// Engine, when non-nil, is used instead of constructing a fresh
	// engine; the scenario layer passes its process-shared engine here so
	// estimator runs hit warm posterior caches. It must match N,
	// len(Compromised), and EngineOptions.
	Engine *events.Engine
	// LinkLoss is the per-link, per-attempt transmission loss probability
	// of the sampled delivery process. Positive loss (or a retry Policy)
	// switches the estimator to loss-aware sampling: each trial simulates
	// the delivery process, H averages over delivered trials only, and the
	// Result carries DeliveryRate, MeanAttempts, and the retry-degraded
	// HDegraded. Loss-aware sampling is single-shot (Rounds ≤ 1, no
	// Confidence tracking).
	LinkLoss float64
	// Policy is the delivery-reliability reaction to a lost transmission:
	// drop (faults.PolicyNone, default), per-link retransmission
	// (PolicyRetransmit), or end-to-end rerouting over fresh paths
	// (PolicyReroute).
	Policy faults.Policy
	// MaxAttempts bounds transmissions per link (PolicyRetransmit) or path
	// attempts per message (PolicyReroute); 0 means
	// faults.DefaultMaxAttempts.
	MaxAttempts int
	// Cancel, when non-nil, aborts the run early: workers poll the channel
	// between trial batches, and once it fires the estimator returns an
	// error wrapping context.Canceled instead of a partial result. A nil
	// channel never fires (the default: runs are not cancelable). Because
	// the check sits on batch boundaries, cancellation never perturbs the
	// per-trial streams — a run that completes is bit-identical whether or
	// not a cancel channel was armed.
	Cancel <-chan struct{}
	// Progress, when non-nil, is called after every completed trial batch
	// with the cumulative completed-trial count and the total budget. It
	// may be called concurrently from worker goroutines (cumulative counts
	// can therefore arrive out of order) and must return quickly.
	Progress func(done, total int)
}

// Result summarizes an estimation run.
type Result struct {
	// H is the estimated anonymity degree (mean posterior entropy).
	H float64
	// StdErr is the standard error of H.
	StdErr float64
	// CI95 is the 95% confidence half-width.
	CI95 float64
	// Trials is the number of samples taken.
	Trials int
	// CompromisedSenderShare is the fraction of trials whose sender was a
	// compromised node (those contribute zero entropy, the C/N branch).
	CompromisedSenderShare float64
	// HRounds is the degradation curve of a multi-round run: HRounds[r] is
	// the mean accumulated posterior entropy after round r+1, averaged over
	// sessions (nil for single-shot runs). H, StdErr, and CI95 describe the
	// final round.
	HRounds []float64
	// IdentifiedShare is the fraction of sessions identified within Rounds
	// at the configured Confidence (0 when Confidence is unset).
	IdentifiedShare float64
	// MeanRoundsToIdentify is the mean identification round among
	// identified sessions (0 when none were identified).
	MeanRoundsToIdentify float64
	// DeliveryRate is the fraction of trials delivered end to end (1 for
	// lossless runs). H, StdErr, and CI95 describe delivered trials only.
	DeliveryRate float64
	// MeanAttempts is the mean number of transmission attempts per trial:
	// 1 under PolicyNone, 1 plus the mean retransmission count under
	// PolicyRetransmit, the mean path-attempt count under PolicyReroute.
	MeanAttempts float64
	// HDegraded is the retry-degraded anonymity degree: the mean entropy
	// after the adversary folds the partial-trace evidence leaked by
	// retransmissions and failed rerouting attempts into each delivered
	// trial's posterior. Equal to H for lossless runs.
	HDegraded float64
}

// numBatches returns the batch count for a trial budget.
func numBatches(trials int) int {
	return (trials + trialBatchSize - 1) / trialBatchSize
}

// batchBounds returns the half-open trial range of batch b.
func batchBounds(b, trials int) (lo, hi int) {
	lo = b * trialBatchSize
	hi = lo + trialBatchSize
	if hi > trials {
		hi = trials
	}
	return lo, hi
}

// canceled polls a cancellation channel without blocking; a nil channel
// never fires.
func canceled(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// errCanceled is the estimators' cancellation error: it wraps
// context.Canceled so callers classify it with errors.Is rather than by
// message.
func errCanceled(done, total int) error {
	return fmt.Errorf("montecarlo: canceled after %d of %d trials: %w", done, total, context.Canceled)
}

// EstimateH runs the sampled estimation of H*(S).
func EstimateH(cfg Config) (Result, error) {
	if cfg.Trials <= 0 {
		return Result{}, fmt.Errorf("%w: trials = %d", ErrBadConfig, cfg.Trials)
	}
	if cfg.Rounds < 0 {
		return Result{}, fmt.Errorf("%w: rounds = %d", ErrBadConfig, cfg.Rounds)
	}
	if cfg.Rounds == 0 {
		cfg.Rounds = 1
	}
	if cfg.Confidence < 0 || cfg.Confidence >= 1 {
		return Result{}, fmt.Errorf("%w: confidence = %v", ErrBadConfig, cfg.Confidence)
	}
	if cfg.FixedSender && (int(cfg.Sender) < 0 || int(cfg.Sender) >= cfg.N) {
		return Result{}, fmt.Errorf("%w: fixed sender %v outside [0,%d)", ErrBadConfig, cfg.Sender, cfg.N)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = pool.Workers()
	}
	if cfg.Strategy.Kind == pathsel.Complicated {
		return Result{}, capability.Unsupported("montecarlo", ErrComplicatedPaths, cfg.Strategy.Name)
	}
	if cfg.LinkLoss < 0 || cfg.LinkLoss > 1 || cfg.LinkLoss != cfg.LinkLoss {
		return Result{}, fmt.Errorf("%w: link loss %v outside [0,1]", ErrBadConfig, cfg.LinkLoss)
	}
	if cfg.Policy > faults.PolicyReroute {
		return Result{}, fmt.Errorf("%w: reliability policy %v", ErrBadConfig, cfg.Policy)
	}
	if cfg.MaxAttempts < 0 {
		return Result{}, fmt.Errorf("%w: MaxAttempts %d", ErrBadConfig, cfg.MaxAttempts)
	}
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = faults.DefaultMaxAttempts
	}
	lossy := cfg.LinkLoss > 0 || cfg.Policy != faults.PolicyNone
	if lossy && (cfg.Rounds > 1 || cfg.Confidence > 0) {
		return Result{}, fmt.Errorf("%w: loss-aware sampling is single-shot (Rounds=%d, Confidence=%v)",
			ErrBadConfig, cfg.Rounds, cfg.Confidence)
	}
	// The reference engine the configuration describes. When the caller
	// injects a shared engine it must match the reference on every axis —
	// N, C, inference mode, receiver assumption, self-report — or the
	// estimate would silently run under a different adversary model.
	ref, err := events.New(cfg.N, len(cfg.Compromised), cfg.EngineOptions...)
	if err != nil {
		return Result{}, err
	}
	engine := cfg.Engine
	if engine == nil {
		engine = ref
	} else if engine.N() != ref.N() || engine.C() != ref.C() || engine.Mode() != ref.Mode() ||
		engine.ReceiverCompromised() != ref.ReceiverCompromised() ||
		engine.SenderSelfReport() != ref.SenderSelfReport() {
		return Result{}, fmt.Errorf("%w: supplied engine (N=%d, C=%d, %v, receiver=%v, selfReport=%v) does not match config (N=%d, C=%d, %v, receiver=%v, selfReport=%v)",
			ErrBadConfig,
			engine.N(), engine.C(), engine.Mode(), engine.ReceiverCompromised(), engine.SenderSelfReport(),
			ref.N(), ref.C(), ref.Mode(), ref.ReceiverCompromised(), ref.SenderSelfReport())
	}
	if !engine.SenderSelfReport() {
		// The sampling loop hardcodes the local-eavesdropper branch
		// (compromised senders contribute zero entropy); the
		// no-self-report ablation is exact-engine-only.
		return Result{}, capability.Unsupported("montecarlo", capability.ErrInference,
			"no-sender-self-report ablation is exact-only")
	}
	if err := dist.Validate(cfg.Strategy.Length); err != nil {
		return Result{}, err
	}
	selector, err := pathsel.NewSelector(cfg.N, cfg.Strategy)
	if err != nil {
		return Result{}, err
	}
	analyst, err := adversary.NewAnalyst(engine, cfg.Strategy.Length, cfg.Compromised)
	if err != nil {
		return Result{}, err
	}
	if cfg.Rounds > 1 || cfg.Confidence > 0 {
		return estimateRounds(cfg, analyst, selector)
	}
	if lossy {
		return estimateLossy(cfg, analyst, selector)
	}

	type part struct {
		sum        stats.Summary
		compSender int
		err        error
	}
	batches := numBatches(cfg.Trials)
	parts := make([]part, batches)
	compromised := analyst.Compromised

	// Workers steal whole batches from a shared counter; each batch's
	// partial summary depends only on its own trials' streams, and the
	// batch-ordered merge below makes the result scheduling-independent.
	var nextBatch, done atomic.Int64
	var aborted atomic.Bool
	workers := cfg.Workers
	if workers > batches {
		workers = batches
	}
	pool.ForEach(workers, func(int) {
		sp, err := selector.NewSampler()
		if err != nil {
			if b := int(nextBatch.Add(1)) - 1; b < batches {
				parts[b].err = err
			}
			return
		}
		for {
			if canceled(cfg.Cancel) {
				aborted.Store(true)
				return
			}
			b := int(nextBatch.Add(1)) - 1
			if b >= batches {
				return
			}
			p := &parts[b]
			lo, hi := batchBounds(b, cfg.Trials)
			for t := lo; t < hi; t++ {
				rng := stats.NewStream(cfg.Seed, int64(t))
				sender := cfg.Sender
				if !cfg.FixedSender {
					sender = trace.NodeID(rng.Intn(cfg.N))
				}
				if compromised(sender) {
					// Local-eavesdropper branch: sender identified.
					p.sum.Add(0)
					p.compSender++
					continue
				}
				path, err := sp.SelectPath(&rng, sender)
				if err != nil {
					p.err = err
					return
				}
				// PathEntropy classifies the path in one pass and skips
				// both the trace and the N-entry posterior vector, which is
				// what keeps million-node estimation linear in the path
				// length rather than in N.
				h, err := analyst.PathEntropy(sender, path)
				if err != nil {
					p.err = err
					return
				}
				p.sum.Add(h)
			}
			if d := int(done.Add(int64(hi - lo))); cfg.Progress != nil {
				cfg.Progress(d, cfg.Trials)
			}
		}
	})

	if aborted.Load() {
		return Result{}, errCanceled(int(done.Load()), cfg.Trials)
	}
	var total stats.Summary
	var compSenders int
	for i := range parts {
		if parts[i].err != nil {
			return Result{}, parts[i].err
		}
		total.Merge(parts[i].sum)
		compSenders += parts[i].compSender
	}
	return Result{
		H:                      total.Mean(),
		StdErr:                 total.StdErr(),
		CI95:                   total.CI95(),
		Trials:                 total.N(),
		CompromisedSenderShare: float64(compSenders) / float64(total.N()),
		DeliveryRate:           1,
		MeanAttempts:           1,
		HDegraded:              total.Mean(),
	}, nil
}

// SessionArena holds the reusable state of repeated-communication
// sessions: the path sampler, the witness scratch, the posterior
// accumulator, and the per-round entropy buffer. One arena serves any
// number of sequential sessions; it is not safe for concurrent use.
type SessionArena struct {
	sampler   *pathsel.Sampler
	acc       *adversary.Accumulator
	sc        adversary.Scratch
	entropies []float64
}

// NewSessionArena builds a session arena for `rounds`-message sessions
// analyzed by the analyst over paths from the selector. Sessions fold
// each path through Accumulator.ObservePath, which needs simple paths, so
// a selector for a Complicated strategy is refused.
func NewSessionArena(analyst *adversary.Analyst, sel *pathsel.Selector, rounds int) (*SessionArena, error) {
	if rounds < 1 {
		return nil, fmt.Errorf("%w: rounds = %d", ErrBadConfig, rounds)
	}
	if st := sel.Strategy(); st.Kind == pathsel.Complicated {
		return nil, capability.Unsupported("montecarlo", ErrComplicatedPaths, st.Name)
	}
	sp, err := sel.NewSampler()
	if err != nil {
		return nil, err
	}
	acc, err := adversary.NewAccumulator(analyst)
	if err != nil {
		return nil, err
	}
	return &SessionArena{
		sampler:   sp,
		acc:       acc,
		entropies: make([]float64, rounds),
	}, nil
}

// Session runs one repeated-communication session: the fixed sender sends
// the arena's round count of messages over fresh paths, each path's
// observation is folded into the accumulator (Accumulator.ObservePath,
// which needs no trace), and the accumulated posterior entropy after every
// round is returned (the slice is the arena's buffer, valid until the next
// call). When confidence ∈ (0,1), identifiedAt is the first round
// (1-based) at which the accumulated posterior put at least that mass on
// the true sender (0 when the threshold was never reached or tracking is
// off). The exact and Monte-Carlo scenario backends both fold their
// sessions through this method, so the two sampled degradation estimates
// share one definition of a round.
func (ar *SessionArena) Session(rng *stats.Stream, sender trace.NodeID, confidence float64) (entropies []float64, identifiedAt int, err error) {
	ar.acc.Reset()
	for r := range ar.entropies {
		path, err := ar.sampler.SelectPath(rng, sender)
		if err != nil {
			return nil, 0, err
		}
		if err := ar.acc.ObservePath(sender, path, &ar.sc); err != nil {
			return nil, 0, err
		}
		h, top, mass, err := ar.acc.SnapshotFast()
		if err != nil {
			return nil, 0, err
		}
		ar.entropies[r] = h
		if identifiedAt == 0 && confidence > 0 && top == sender && mass >= confidence {
			identifiedAt = r + 1
		}
	}
	return ar.entropies, identifiedAt, nil
}

// estimateRounds is the multi-round estimation path: each trial is one
// repeated-communication session, and the merged result carries the
// degradation curve next to the final-round summary. Like the single-shot
// path it is a pure function of (Seed, Trials).
func estimateRounds(cfg Config, analyst *adversary.Analyst, selector *pathsel.Selector) (Result, error) {
	type part struct {
		sum         stats.Summary
		entropySums []float64
		compSender  int
		identified  int
		roundsSum   int
		err         error
	}
	batches := numBatches(cfg.Trials)
	parts := make([]part, batches)

	var nextBatch, done atomic.Int64
	var aborted atomic.Bool
	workers := cfg.Workers
	if workers > batches {
		workers = batches
	}
	pool.ForEach(workers, func(int) {
		ar, err := NewSessionArena(analyst, selector, cfg.Rounds)
		if err != nil {
			if b := int(nextBatch.Add(1)) - 1; b < batches {
				parts[b].err = err
			}
			return
		}
		for {
			if canceled(cfg.Cancel) {
				aborted.Store(true)
				return
			}
			b := int(nextBatch.Add(1)) - 1
			if b >= batches {
				return
			}
			p := &parts[b]
			p.entropySums = make([]float64, cfg.Rounds)
			lo, hi := batchBounds(b, cfg.Trials)
			for t := lo; t < hi; t++ {
				rng := stats.NewStream(cfg.Seed, int64(t))
				sender := cfg.Sender
				if !cfg.FixedSender {
					sender = trace.NodeID(rng.Intn(cfg.N))
				}
				if analyst.Compromised(sender) {
					// Local-eavesdropper branch: the session is identified at
					// its first message and contributes zero entropy throughout.
					p.sum.Add(0)
					p.compSender++
					if cfg.Confidence > 0 {
						p.identified++
						p.roundsSum++
					}
					continue
				}
				entropies, identifiedAt, err := ar.Session(&rng, sender, cfg.Confidence)
				if err != nil {
					p.err = err
					return
				}
				for r, h := range entropies {
					p.entropySums[r] += h
				}
				p.sum.Add(entropies[cfg.Rounds-1])
				if identifiedAt > 0 {
					p.identified++
					p.roundsSum += identifiedAt
				}
			}
			if d := int(done.Add(int64(hi - lo))); cfg.Progress != nil {
				cfg.Progress(d, cfg.Trials)
			}
		}
	})

	if aborted.Load() {
		return Result{}, errCanceled(int(done.Load()), cfg.Trials)
	}
	var total stats.Summary
	var compSenders, identified, roundsSum int
	hRounds := make([]float64, cfg.Rounds)
	for i := range parts {
		if parts[i].err != nil {
			return Result{}, parts[i].err
		}
		total.Merge(parts[i].sum)
		compSenders += parts[i].compSender
		identified += parts[i].identified
		roundsSum += parts[i].roundsSum
		for r, s := range parts[i].entropySums {
			hRounds[r] += s
		}
	}
	for r := range hRounds {
		hRounds[r] /= float64(cfg.Trials)
	}
	res := Result{
		H:                      total.Mean(),
		StdErr:                 total.StdErr(),
		CI95:                   total.CI95(),
		Trials:                 total.N(),
		CompromisedSenderShare: float64(compSenders) / float64(total.N()),
		HRounds:                hRounds,
		IdentifiedShare:        float64(identified) / float64(total.N()),
		DeliveryRate:           1,
		MeanAttempts:           1,
		HDegraded:              total.Mean(),
	}
	if identified > 0 {
		res.MeanRoundsToIdentify = float64(roundsSum) / float64(identified)
	}
	return res, nil
}

// Synthesize constructs the message trace the adversary would collect for a
// concrete rerouting path, without running the network: one tuple per
// compromised intermediate (with logical times increasing along the path)
// plus the receiver's report. It is also used by tests to feed the analyst
// hand-built paths.
func Synthesize(msg trace.MessageID, sender trace.NodeID, path []trace.NodeID,
	compromised func(trace.NodeID) bool) *trace.MessageTrace {
	mt := &trace.MessageTrace{}
	SynthesizeInto(mt, msg, sender, path, compromised)
	return mt
}

// SynthesizeInto is Synthesize into a caller-owned trace, reusing its
// Reports buffer — the trial loops' zero-allocation entry point. Every
// field of mt is overwritten.
func SynthesizeInto(mt *trace.MessageTrace, msg trace.MessageID, sender trace.NodeID,
	path []trace.NodeID, compromised func(trace.NodeID) bool) {
	mt.Msg = msg
	mt.ReceiverSeen = true
	mt.Reports = mt.Reports[:0]
	prev := sender
	for i, hop := range path {
		if compromised(hop) {
			succ := trace.Receiver
			if i+1 < len(path) {
				succ = path[i+1]
			}
			mt.Reports = append(mt.Reports, trace.Tuple{
				Time:     uint64(i + 1),
				Observer: hop,
				Msg:      msg,
				Pred:     prev,
				Succ:     succ,
			})
		}
		prev = hop
	}
	mt.ReceiverPred = prev
}
