package scenario

// The exact backend: the closed-form counted-bucket engine of package
// events. Single-shot runs have no sampling and no error bars. Multi-round
// (Workload.Rounds > 1) runs keep the inference exact — every per-round
// posterior comes from the engine and rounds are accumulated by exact
// Bayesian log-posterior multiplication (adversary.Accumulator) — but the
// rerouting paths themselves are sampled, serially and deterministically
// from Workload.Seed, so the degradation curve carries a confidence
// interval like any sampled estimate. The backend refuses what the
// simple-path model cannot express.

import (
	"anonmix/internal/adversary"
	"anonmix/internal/entropy"
	"anonmix/internal/events"
	"anonmix/internal/faults"
	"anonmix/internal/montecarlo"
	"anonmix/internal/pathsel"
	"anonmix/internal/scenario/capability"
	"anonmix/internal/stats"
	"anonmix/internal/trace"
)

type exactBackend struct{}

func (exactBackend) Kind() BackendKind { return BackendExact }

func (exactBackend) Run(cfg Config) (Result, error) {
	if !analyticProtocol(cfg.Protocol) {
		return Result{}, capability.Unsupported(string(BackendExact),
			capability.ErrProtocol, cfg.Protocol.String())
	}
	if cfg.Strategy.Kind != pathsel.Simple {
		return Result{}, capability.Unsupported(string(BackendExact),
			capability.ErrComplicatedPaths, cfg.Strategy.Name)
	}
	deliveryRate := 1.0
	if cfg.Faults != nil {
		// The closed forms cover PolicyNone link loss exactly: conditioning
		// on delivery reweights the path-length prior to
		// P'(l) ∝ P(l)·(1−q)^(l+1), and the engine evaluates H under P'.
		// Retry policies and crash schedules leak timing evidence the
		// enumeration does not model — those run on the sampling backends.
		if cfg.Reliability.Policy != faults.PolicyNone {
			return Result{}, capability.Unsupported(string(BackendExact),
				capability.ErrFaults, "retry policies ("+cfg.Reliability.Policy.String()+") are sampled-backend-only; the closed form covers PolicyNone loss")
		}
		if len(cfg.Faults.Crashes) > 0 {
			return Result{}, capability.Unsupported(string(BackendExact),
				capability.ErrFaults, "crash schedules are sampled-backend-only")
		}
		eff, rate, err := faults.EffectiveLength(cfg.Strategy.Length, cfg.Faults.LinkLoss)
		if err != nil {
			return Result{}, err
		}
		if rate == 0 {
			// Total loss: nothing delivers, the adversary sees no completed
			// traffic, and H over delivered messages is vacuously zero.
			return Result{
				H: 0, HDegraded: 0, DeliveryRate: 0, MeanAttempts: 1,
				MaxH: entropy.Max(cfg.N),
			}, nil
		}
		cfg.Strategy.Length = eff
		deliveryRate = rate
	}
	if len(cfg.phases) > 0 {
		return runExactTimeline(cfg, deliveryRate)
	}
	e, err := Engine(cfg.N, len(cfg.Adversary.Compromised), engineOptions(cfg)...)
	if err != nil {
		return Result{}, err
	}
	if cfg.Workload.degradation() {
		return runExactRounds(cfg, e)
	}
	h, err := e.AnonymityDegree(cfg.Strategy.Length)
	if err != nil {
		return Result{}, err
	}
	compShare := float64(len(cfg.Adversary.Compromised)) / float64(cfg.N)
	if cfg.Workload.FixedSender {
		// H*(S) averages over a uniform sender including the C/N
		// local-eavesdropper branch, which contributes zero entropy; the
		// pinned sender is honest (normalize rejects compromised ones), so
		// its expected single-shot entropy is the honest-conditional value.
		// Under the no-self-report ablation the engine already conditions
		// on that branch being absent, so there is nothing to rescale.
		if e.SenderSelfReport() {
			h *= float64(cfg.N) / float64(cfg.N-len(cfg.Adversary.Compromised))
		}
		compShare = 0
	}
	res := Result{
		H:                      h,
		MaxH:                   e.MaxAnonymity(),
		Normalized:             entropy.Normalized(h, cfg.N),
		CompromisedSenderShare: compShare,
	}
	if cfg.Faults != nil {
		// PolicyNone drops on first loss: one attempt per message, and no
		// retry evidence — the degraded degree equals the lossless one.
		res.DeliveryRate = deliveryRate
		res.MeanAttempts = 1
		res.HDegraded = h
	}
	return res, nil
}

// runExactRounds executes the repeated-communication regime on the exact
// engine: Workload.Messages independent sessions, each sending
// Workload.Rounds messages from one sender over freshly drawn simple
// paths, with the adversary accumulating exact per-round posteriors. The
// loop is intentionally serial (Workers ignored) and draws every session
// from its own counter-based stream — the same per-trial streams the
// parallel Monte-Carlo backend consumes — so it is the reference
// implementation that backend is cross-validated against, and its output
// is a pure function of (Seed, Messages, Rounds) alone.
func runExactRounds(cfg Config, e *events.Engine) (Result, error) {
	if e.Mode() != events.InferenceStandard {
		return Result{}, capability.Unsupported(string(BackendExact),
			capability.ErrInference, "multi-round accumulation requires the standard inference mode")
	}
	if !e.SenderSelfReport() {
		// Sessions hardcode the local-eavesdropper branch (a compromised
		// sender is identified at its first message); accumulating under
		// the no-self-report ablation would silently bias H_k low.
		return Result{}, capability.Unsupported(string(BackendExact),
			capability.ErrInference, "no-sender-self-report ablation is single-shot-only")
	}
	analyst, err := adversary.NewAnalyst(e, cfg.Strategy.Length, cfg.Adversary.Compromised)
	if err != nil {
		return Result{}, err
	}
	sel, err := pathsel.NewSelector(cfg.N, cfg.Strategy)
	if err != nil {
		return Result{}, err
	}
	arena, err := montecarlo.NewSessionArena(analyst, sel, cfg.Workload.Rounds)
	if err != nil {
		return Result{}, err
	}
	var (
		rounds   = cfg.Workload.Rounds
		sessions = cfg.Workload.Messages
		hSums    = make([]float64, rounds)
		sum      stats.Summary
		comp     int
		deanon   int
		idCount  int
		idRounds int
		conf     = cfg.Workload.Confidence
	)
	for s := 0; s < sessions; s++ {
		// The serial reference loop checkpoints on the same 64-session
		// granule as the parallel batch loops, so cancellation latency is
		// comparable across backends.
		if s%sessionBatchSize == 0 {
			if err := cfg.checkCanceled(); err != nil {
				return Result{}, err
			}
		}
		rng := stats.NewStream(cfg.Workload.Seed, int64(s))
		sender := cfg.Workload.Sender
		if !cfg.Workload.FixedSender {
			sender = trace.NodeID(rng.Intn(cfg.N))
		}
		if analyst.Compromised(sender) {
			sum.Add(0)
			comp++
			deanon++
			if conf > 0 {
				idCount++
				idRounds++
			}
		} else {
			entropies, identifiedAt, err := arena.Session(&rng, sender, conf)
			if err != nil {
				return Result{}, err
			}
			for r, h := range entropies {
				hSums[r] += h
			}
			final := entropies[rounds-1]
			sum.Add(final)
			if final < 1e-9 {
				deanon++
			}
			if identifiedAt > 0 {
				idCount++
				idRounds += identifiedAt
			}
		}
		if done := s + 1; done == sessions || done%sessionBatchSize == 0 {
			cfg.emitProgress(done, sessions, nil)
		}
	}
	for r := range hSums {
		hSums[r] /= float64(sessions)
	}
	res := Result{
		H:                      sum.Mean(),
		StdErr:                 sum.StdErr(),
		CI95:                   sum.CI95(),
		Estimated:              true,
		Trials:                 sessions,
		MaxH:                   e.MaxAnonymity(),
		Normalized:             entropy.Normalized(sum.Mean(), cfg.N),
		CompromisedSenderShare: float64(comp) / float64(sessions),
		Deanonymized:           deanon,
		HRounds:                hSums,
		IdentifiedShare:        float64(idCount) / float64(sessions),
	}
	if idCount > 0 {
		res.MeanRoundsToIdentify = float64(idRounds) / float64(idCount)
	}
	return res, nil
}

// runExactTimeline executes a dynamic-population scenario on the exact
// engine. A single-shot (Messages) timeline stays fully closed-form: every
// phase's H*(S_e) comes exactly from the shared engine cache and the
// result is the traffic-weighted mixture Σ w_e·H_e. A degradation (Rounds)
// timeline feeds the union-space accumulator across the phase boundaries
// with exact per-round posteriors, serially from one RNG stream — the
// reference the parallel Monte-Carlo timeline is cross-validated against.
func runExactTimeline(cfg Config, deliveryRate float64) (Result, error) {
	if timelineRounds(cfg.phases) {
		return runPhasedRounds(cfg, string(BackendExact), 1)
	}
	weights := timelineWeights(cfg.phases)
	res := Result{MaxH: timelineMaxH(cfg.phases)}
	for i := range cfg.phases {
		p := &cfg.phases[i]
		if err := cfg.checkCanceled(); err != nil {
			return Result{}, err
		}
		if p.epoch.Messages == 0 {
			// A phase without traffic only moves the population: zero
			// weight in the mixture and, like the sampled backends, no
			// per-epoch H (EpochResult.H is defined as the entropy of the
			// phase's analyzed traffic).
			er := EpochResult{Index: i, N: p.n, C: p.c}
			res.Epochs = append(res.Epochs, er)
			cfg.emitProgress(i+1, len(cfg.phases), &er)
			continue
		}
		e, err := Engine(p.n, p.c, engineOptions(cfg)...)
		if err != nil {
			return Result{}, err
		}
		h, err := e.AnonymityDegree(cfg.Strategy.Length)
		if err != nil {
			return Result{}, err
		}
		compShare := float64(p.c) / float64(p.n)
		if cfg.Workload.FixedSender {
			// The per-phase honest-conditional rescale of the static model
			// (see Run above); normalizeTimeline guarantees the pinned
			// sender is an honest member of every phase.
			if e.SenderSelfReport() {
				h *= float64(p.n) / float64(p.n-p.c)
			}
			compShare = 0
		}
		res.H += weights[i] * h
		res.CompromisedSenderShare += weights[i] * compShare
		er := EpochResult{Index: i, N: p.n, C: p.c, Messages: p.epoch.Messages, H: h}
		res.Epochs = append(res.Epochs, er)
		cfg.emitProgress(i+1, len(cfg.phases), &er)
	}
	res.Normalized = res.H / res.MaxH
	if cfg.Faults != nil {
		// The loss rate is population-independent (it depends only on the
		// shared length distribution), so the per-phase delivery rates
		// coincide and the blend is the caller's single rate.
		res.DeliveryRate = deliveryRate
		res.MeanAttempts = 1
		res.HDegraded = res.H
	}
	return res, nil
}

func init() { Register(exactBackend{}) }
