package scenario

// The Monte-Carlo backend: the sampling estimator of package montecarlo,
// which draws concrete paths, classifies what the adversary observes of
// each, and averages exactly-computed posterior entropies (unbiased, low
// variance). Degradation runs go through the session driver the exact
// backend shares (runPhasedRounds), in parallel.

import (
	"math"

	"anonmix/internal/entropy"
	"anonmix/internal/montecarlo"
	"anonmix/internal/pool"
	"anonmix/internal/scenario/capability"
	"anonmix/internal/trace"
)

type mcBackend struct{}

func (mcBackend) Kind() BackendKind { return BackendMonteCarlo }

func (mcBackend) Run(cfg Config) (Result, error) {
	if !analyticProtocol(cfg.Protocol) {
		return Result{}, capability.Unsupported(string(BackendMonteCarlo),
			capability.ErrProtocol, cfg.Protocol.String())
	}
	if cfg.Faults != nil && len(cfg.Faults.Crashes) > 0 {
		// Crash outages are timing phenomena of the event kernel; the
		// timing-free sampler has no clock to schedule them on.
		return Result{}, capability.Unsupported(string(BackendMonteCarlo),
			capability.ErrFaults, "crash schedules are testbed-only")
	}
	if err := sampledInference(cfg, "montecarlo"); err != nil {
		return Result{}, err
	}
	if cfg.sessions() {
		workers := cfg.Workload.Workers
		if workers <= 0 {
			workers = pool.Workers()
		}
		return runPhasedRounds(cfg, "montecarlo", workers)
	}
	if len(cfg.phases) > 0 {
		return runMCTimeline(cfg)
	}
	engine, err := Engine(cfg.N, len(cfg.Adversary.Compromised), engineOptions(cfg)...)
	if err != nil {
		return Result{}, err
	}
	mcCfg := montecarlo.Config{
		N:             cfg.N,
		Compromised:   cfg.Adversary.Compromised,
		Strategy:      cfg.Strategy,
		Trials:        cfg.Workload.Messages,
		FixedSender:   cfg.Workload.FixedSender,
		Sender:        cfg.Workload.Sender,
		Seed:          cfg.Workload.Seed,
		Workers:       cfg.Workload.Workers,
		EngineOptions: engineOptions(cfg),
		Engine:        engine,
		Cancel:        cfg.cancelChan(),
	}
	applyFaults(&mcCfg, cfg)
	if cfg.Progress != nil {
		mcCfg.Progress = func(done, total int) { cfg.emitProgress(done, total, nil) }
	}
	res, err := montecarlo.EstimateH(mcCfg)
	if err != nil {
		return Result{}, err
	}
	return Result{
		H:                      res.H,
		StdErr:                 res.StdErr,
		CI95:                   res.CI95,
		Estimated:              true,
		Trials:                 res.Trials,
		MaxH:                   entropy.Max(cfg.N),
		Normalized:             entropy.Normalized(res.H, cfg.N),
		CompromisedSenderShare: res.CompromisedSenderShare,
		Deanonymized:           res.Deanonymized,
		DeliveryRate:           res.DeliveryRate,
		MeanAttempts:           res.MeanAttempts,
		HDegraded:              res.HDegraded,
	}, nil
}

// applyFaults threads a scenario fault plan into an estimator config
// (loss probability and retry policy; jitter is timing-only and crashes
// were rejected above).
func applyFaults(mcCfg *montecarlo.Config, cfg Config) {
	if cfg.Faults == nil {
		return
	}
	mcCfg.LinkLoss = cfg.Faults.LinkLoss
	mcCfg.Policy = cfg.Reliability.Policy
	mcCfg.MaxAttempts = cfg.Reliability.MaxAttempts
}

// runMCTimeline samples a single-shot (Messages) timeline stratified:
// every phase runs the static estimator in its own dense population with
// its own budget and deterministic derived seed, and the strata blend by
// their traffic weights — the same mixture the exact backend computes in
// closed form, with the variance of each stratum combining in quadrature.
func runMCTimeline(cfg Config) (Result, error) {
	weights := timelineWeights(cfg.phases)
	res := Result{
		Estimated: true,
		MaxH:      timelineMaxH(cfg.phases),
	}
	var totalMsgs int
	for i := range cfg.phases {
		totalMsgs += cfg.phases[i].epoch.Messages
	}
	var variance float64
	var doneMsgs int
	for i, p := range cfg.members() {
		er := EpochResult{Index: i, N: p.n, C: p.c, Messages: p.epoch.Messages}
		if p.epoch.Messages == 0 {
			// A phase without traffic only moves the population.
			res.Epochs = append(res.Epochs, er)
			cfg.emitProgress(doneMsgs, totalMsgs, &er)
			continue
		}
		if err := cfg.checkCanceled(); err != nil {
			return Result{}, err
		}
		engine, err := Engine(p.n, p.c, engineOptions(cfg)...)
		if err != nil {
			return Result{}, err
		}
		mcCfg := montecarlo.Config{
			N:             p.n,
			Compromised:   p.denseComp,
			Strategy:      cfg.Strategy,
			Trials:        p.epoch.Messages,
			Seed:          phaseSeed(cfg.Workload.Seed, i),
			Workers:       cfg.Workload.Workers,
			EngineOptions: engineOptions(cfg),
			Engine:        engine,
			Cancel:        cfg.cancelChan(),
		}
		applyFaults(&mcCfg, cfg)
		if cfg.Progress != nil {
			base := doneMsgs
			mcCfg.Progress = func(done, total int) { cfg.emitProgress(base+done, totalMsgs, nil) }
		}
		if cfg.Workload.FixedSender {
			mcCfg.FixedSender = true
			d, _ := p.dense(cfg.Workload.Sender)
			mcCfg.Sender = trace.NodeID(d)
		}
		pr, err := montecarlo.EstimateH(mcCfg)
		if err != nil {
			return Result{}, err
		}
		w := weights[i]
		res.H += w * pr.H
		variance += w * w * pr.StdErr * pr.StdErr
		res.Trials += pr.Trials
		res.Deanonymized += pr.Deanonymized
		res.CompromisedSenderShare += w * pr.CompromisedSenderShare
		res.DeliveryRate += w * pr.DeliveryRate
		res.MeanAttempts += w * pr.MeanAttempts
		res.HDegraded += w * pr.HDegraded
		er.H = pr.H
		res.Epochs = append(res.Epochs, er)
		doneMsgs += p.epoch.Messages
		cfg.emitProgress(doneMsgs, totalMsgs, &er)
	}
	res.StdErr = math.Sqrt(variance)
	res.CI95 = 1.96 * res.StdErr
	res.Normalized = res.H / res.MaxH
	return res, nil
}

func init() { Register(mcBackend{}) }
