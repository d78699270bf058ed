package scenario

// The exact backend: the closed-form counted-bucket engine of package
// events. Single-shot runs have no sampling and no error bars. The
// backend refuses what the simple-path model cannot express.
//
// Exact degradation sessions, static or across a Rounds timeline, are an
// alias of the Monte-Carlo session driver (runPhasedRounds) run with one
// worker. Every per-round posterior comes exactly from the engine and
// rounds accumulate by exact Bayesian log-posterior multiplication
// (adversary.Accumulator), but the rerouting paths are sampled from
// Workload.Seed, so the degradation curve carries a confidence interval
// and equals Monte-Carlo's bit for bit. The alias is kept rather than
// replaced by a capability refusal naming mc: callers ask the exact
// backend for degradation curves — the end-to-end benchmark's serve-mixed
// workload sends exact-backend /v1/degradation requests — and a refusal
// would fail those requests while removing no code.

import (
	"anonmix/internal/entropy"
	"anonmix/internal/faults"
	"anonmix/internal/pathsel"
	"anonmix/internal/scenario/capability"
)

// runExact runs a normalized config on the exact backend.
func runExact(cfg Config) (Result, error) {
	if !analyticProtocol(cfg.Protocol) {
		return Result{}, capability.Unsupported(string(BackendExact),
			capability.ErrProtocol, cfg.Protocol.String())
	}
	if cfg.Strategy.Kind != pathsel.Simple {
		return Result{}, capability.Unsupported(string(BackendExact),
			capability.ErrComplicatedPaths, cfg.Strategy.Name)
	}
	if cfg.sessions() {
		// normalize refuses fault plans on degradation runs.
		if err := sampledInference(cfg, string(BackendExact)); err != nil {
			return Result{}, err
		}
		return runPhasedRounds(cfg, 1)
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
	e, err := cfg.engine(cfg.N, cfg.Adversary.Count)
	if err != nil {
		return Result{}, err
	}
	h, err := e.AnonymityDegree(cfg.Strategy.Length)
	if err != nil {
		return Result{}, err
	}
	compShare := float64(cfg.Adversary.Count) / float64(cfg.N)
	if cfg.Workload.FixedSender {
		// H*(S) averages over a uniform sender including the C/N
		// local-eavesdropper branch, which contributes zero entropy; the
		// pinned sender is honest (normalize rejects compromised ones), so
		// its expected single-shot entropy is the honest-conditional value.
		// Under the no-self-report ablation the engine already conditions
		// on that branch being absent, so there is nothing to rescale.
		if e.SenderSelfReport() {
			h *= float64(cfg.N) / float64(cfg.N-cfg.Adversary.Count)
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

// runExactTimeline executes a single-shot (Messages) timeline on the
// exact engine, fully closed-form: every phase's H*(S_e) comes exactly
// from the shared engine cache and the result is the traffic-weighted
// mixture Σ w_e·H_e.
func runExactTimeline(cfg Config, deliveryRate float64) (Result, error) {
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
		e, err := cfg.engine(p.n, p.c)
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
