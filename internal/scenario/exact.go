package scenario

// The exact backend: the closed-form counted-bucket engine of package
// events. Single-shot runs have no sampling and no error bars. Run has
// refused what the simple-path model cannot express (refusal).
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

import "anonmix/internal/faults"

// runExact runs a normalized config on the exact backend. A single-shot
// run is closed-form: every phase's H*(S_e) comes exactly from the shared
// engine cache, and the result is the traffic-weighted mixture Σ w_e·H_e.
// A static config is its one phase, of weight 1.
func runExact(cfg Config) (Result, error) {
	if cfg.sessions() {
		return runPhasedRounds(cfg, 1)
	}
	var res Result
	delivers := true
	if cfg.Faults != nil {
		// The closed forms cover PolicyNone link loss exactly: conditioning
		// on delivery reweights the path-length prior to
		// P'(l) ∝ P(l)·(1−q)^(l+1), and the engine evaluates H under P'.
		// The rate depends only on the length distribution, so every phase
		// shares it. PolicyNone drops on first loss: one attempt per
		// message, and no retry evidence — the degraded degree equals the
		// lossless one. Under total loss nothing delivers, the adversary
		// sees no completed traffic, and H over delivered messages is
		// vacuously zero.
		eff, rate, err := faults.EffectiveLength(cfg.Strategy.Length, cfg.Faults.LinkLoss)
		if err != nil {
			return Result{}, err
		}
		res.DeliveryRate, res.MeanAttempts = rate, 1
		cfg.Strategy.Length, delivers = eff, rate > 0
	}
	timeline := len(cfg.phases) > 0
	phases, weights := []phase{cfg.staticPhase()}, []float64{1}
	if timeline {
		phases, weights = cfg.phases, timelineWeights(cfg.phases)
	}
	for i := range phases {
		p := &phases[i]
		if err := cfg.checkCanceled(); err != nil {
			return Result{}, err
		}
		// A phase without traffic only moves the population: zero weight
		// in the mixture and, like the sampled backends, no per-epoch H
		// (EpochResult.H is the entropy of the phase's analyzed traffic).
		var h float64
		if weights[i] > 0 && delivers {
			e, err := cfg.engine(p.n, p.c)
			if err != nil {
				return Result{}, err
			}
			if h, err = e.AnonymityDegree(cfg.Strategy.Length); err != nil {
				return Result{}, err
			}
			compShare := float64(p.c) / float64(p.n)
			if cfg.Workload.FixedSender {
				// H*(S) averages over a uniform sender including the C/N
				// local-eavesdropper branch, which contributes zero entropy;
				// the pinned sender is an honest member of every phase
				// (normalize checks), so its expected single-shot entropy is
				// the honest-conditional value. Under the no-self-report
				// ablation the engine already conditions on that branch being
				// absent, so there is nothing to rescale.
				if e.SenderSelfReport() {
					h *= float64(p.n) / float64(p.n-p.c)
				}
				compShare = 0
			}
			res.H += weights[i] * h
			res.CompromisedSenderShare += weights[i] * compShare
		}
		if timeline {
			er := EpochResult{Index: i, N: p.n, C: p.c, Messages: p.epoch.Messages, H: h}
			res.Epochs = append(res.Epochs, er)
			cfg.emitProgress(i+1, len(phases), &er)
		}
	}
	if cfg.Faults != nil {
		res.HDegraded = res.H
	}
	return res, nil
}
