package scenario

// The Monte-Carlo backend: it draws concrete paths, classifies what the
// adversary observes of each straight against the compromised set
// (adversary.Analyst.PathEntropy), and averages exactly-computed posterior
// entropies, unbiased and with low variance. It has two drivers over one
// batch runner:
//
//   - runTrials, the single-shot driver here. It walks the identity view:
//     a static config is its one identity phase, seeded with
//     Workload.Seed, and timeline phase i samples its own budget in its
//     dense population under phaseSeed(Seed, i). Under a fault plan each
//     trial also simulates the delivery process, and the retry evidence
//     folds into HDegraded.
//   - runPhasedRounds, the session driver of every degradation run
//     (timeline.go), which the exact backend shares with one worker.
//
// runBatches is the runner both drivers use. Items (trials or sessions)
// form batches of 64, taken by the workers from an atomic counter; each
// worker builds one arena, polls cancellation and reports progress once
// per batch, and the per-batch parts merge in batch order. Every item
// draws from its own counter-based stream, so a result is a pure function
// of the config whatever Workload.Workers is.

import (
	"cmp"
	"math"
	"sync/atomic"

	"anonmix/internal/adversary"
	"anonmix/internal/faults"
	"anonmix/internal/montecarlo"
	"anonmix/internal/pathsel"
	"anonmix/internal/pool"
	"anonmix/internal/stats"
	"anonmix/internal/trace"
)

// runMonteCarlo runs a normalized config on the Monte-Carlo backend.
func runMonteCarlo(cfg Config) (Result, error) {
	workers := cfg.Workload.Workers
	if workers <= 0 {
		workers = pool.Workers()
	}
	if cfg.sessions() {
		return runPhasedRounds(cfg, workers)
	}
	return runTrials(cfg, workers)
}

// batchSize is the work-stealing granule of runBatches and the testbed's
// cancellation checkpoints: items [b·64, (b+1)·64) form batch b.
const batchSize = 64

// runBatches is the deterministic batch runner of the sampling drivers. It
// runs items [0, n) on up to workers goroutines. Each worker builds one
// arena through newWorker, which returns the function that fills a
// batch's part from items [lo, hi); the worker then takes whole batches
// from an atomic counter, polls the run's cancellation before each and
// reports the cumulative count of finished items after each. merge
// receives the parts in batch order. The first error in batch order
// wins, and a canceled run fails with the context's error.
func runBatches[P any](cfg *Config, n, workers int, progress func(done int),
	newWorker func() (func(part *P, lo, hi int) error, error), merge func(part *P)) error {
	type slot struct {
		part P
		err  error
	}
	batches := (n + batchSize - 1) / batchSize
	slots := make([]slot, batches)
	var next, done atomic.Int64
	var aborted atomic.Bool
	cancel := cfg.cancelChan()
	pool.ForEach(min(workers, batches), func(int) {
		run, err := newWorker()
		for {
			if cancelRequested(cancel) {
				aborted.Store(true)
				return
			}
			b := int(next.Add(1)) - 1
			if b >= batches {
				return
			}
			if err != nil {
				slots[b].err = err
				return
			}
			lo, hi := b*batchSize, min((b+1)*batchSize, n)
			if slots[b].err = run(&slots[b].part, lo, hi); slots[b].err != nil {
				return
			}
			progress(int(done.Add(int64(hi - lo))))
		}
	})
	if aborted.Load() {
		// The cancel channel is the context's, so checkCanceled reports it.
		return cmp.Or(cfg.checkCanceled(), ErrCanceled)
	}
	for i := range slots {
		if slots[i].err != nil {
			return slots[i].err
		}
		merge(&slots[i].part)
	}
	return nil
}

// runTrials is the single-shot Monte-Carlo driver (see the file comment).
// A timeline's phases blend by their traffic weights, the mixture the
// exact backend computes in closed form, with the variance of each
// stratum combining in quadrature.
func runTrials(cfg Config, workers int) (Result, error) {
	static := len(cfg.phases) == 0
	res := Result{Estimated: true}
	weights := timelineWeights(cfg.phases)
	total := cfg.Workload.Messages
	var variance float64
	var done int
	ms := cfg.members()
	for i := range ms {
		p := &ms[i]
		trials, seed := p.epoch.Messages, cfg.Workload.Seed
		if !static {
			seed = phaseSeed(seed, i)
		}
		er := EpochResult{Index: i, N: p.n, C: p.c, Messages: trials}
		if trials == 0 {
			// A phase without traffic only moves the population.
			res.Epochs = append(res.Epochs, er)
			cfg.emitProgress(done, total, &er)
			continue
		}
		if err := cfg.checkCanceled(); err != nil {
			return Result{}, err
		}
		base := done
		pr, err := samplePhase(&cfg, ms[i:i+1], seed, trials, workers,
			func(d int) { cfg.emitProgress(base+d, total, nil) })
		if err != nil {
			return Result{}, err
		}
		if static {
			return pr, nil
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
		done += trials
		cfg.emitProgress(done, total, &er)
	}
	res.StdErr = math.Sqrt(variance)
	return res, nil
}

// trialTally accumulates the outcomes of one phase's trials.
type trialTally struct {
	sum        stats.Summary // delivered trials' entropies
	sumDeg     stats.Summary // their retry-degraded entropies (lossy runs)
	compSender int
	deanon     int
	attempts   uint64 // transmissions or path attempts (lossy runs)
}

func (t *trialTally) merge(o *trialTally) {
	t.sum.Merge(o.sum)
	t.sumDeg.Merge(o.sumDeg)
	t.compSender += o.compSender
	t.deanon += o.deanon
	t.attempts += o.attempts
}

// samplePhase estimates one phase from trials sampled trials: H over
// delivered trials (all of them on a lossless run), and under loss the
// delivery statistics over every trial and the retry-degraded HDegraded.
// A lossless trial draws no path for a compromised sender and no loss
// coins, and adds one entropy to one summary.
func samplePhase(cfg *Config, ph []members, seed int64, trials, workers int, progress func(int)) (Result, error) {
	analysts, sels, err := phasedMachinery(*cfg, ph)
	if err != nil {
		return Result{}, err
	}
	p, analyst := &ph[0], analysts[0]
	compromised := analyst.Compromised
	lossy := cfg.lossy()
	var analystU *adversary.Analyst
	if lossy {
		if analystU, err = honestReceiverAnalyst(cfg, p.n, p.denseComp); err != nil {
			return Result{}, err
		}
	}
	fixed, _ := p.dense(cfg.Workload.Sender)
	var tally trialTally
	err = runBatches(cfg, trials, workers, progress, func() (func(*trialTally, int, int) error, error) {
		ar := &trialArena{analyst: analyst, compromised: compromised, rel: cfg.Reliability, analystU: analystU}
		var err error
		if ar.sampler, err = sels[0].NewSampler(); err != nil {
			return nil, err
		}
		if lossy {
			ar.q = cfg.Faults.LinkLoss
			if ar.acc, err = adversary.NewAccumulator(analyst); err != nil {
				return nil, err
			}
		}
		return func(t *trialTally, lo, hi int) error {
			for i := lo; i < hi; i++ {
				rng := stats.NewStream(seed, int64(i))
				sender := trace.NodeID(fixed)
				if !cfg.Workload.FixedSender {
					sender = trace.NodeID(rng.Intn(p.n))
				}
				if lossy {
					if err := ar.lossyTrial(t, &rng, sender); err != nil {
						return err
					}
					continue
				}
				if compromised(sender) {
					// Local-eavesdropper branch: sender identified.
					t.sum.Add(0)
					t.compSender++
					t.deanon++
					continue
				}
				path, err := ar.sampler.SelectPath(&rng, sender)
				if err != nil {
					return err
				}
				h, err := analyst.PathEntropy(sender, path)
				if err != nil {
					return err
				}
				t.sum.Add(h)
				if h < 1e-9 {
					t.deanon++
				}
			}
			return nil
		}, nil
	}, func(t *trialTally) { tally.merge(t) })
	if err != nil {
		return Result{}, err
	}
	delivered := tally.sum.N()
	res := Result{
		Estimated:    true,
		Trials:       delivered,
		Deanonymized: tally.deanon,
		DeliveryRate: 1,
		MeanAttempts: 1,
	}
	if lossy {
		res.DeliveryRate = float64(delivered) / float64(trials)
		res.MeanAttempts = float64(tally.attempts) / float64(trials)
	}
	if delivered > 0 {
		res.H = tally.sum.Mean()
		res.StdErr = tally.sum.StdErr()
		res.HDegraded = res.H
		if lossy {
			res.HDegraded = tally.sumDeg.Mean()
		}
		res.CompromisedSenderShare = float64(tally.compSender) / float64(delivered)
	}
	return res, nil
}

// trialArena is one worker's scratch for a phase's trials: its sampler
// and analyst and, under loss, the loss process with the honest-receiver
// analyst, accumulator and buffers of the degraded fold.
type trialArena struct {
	sampler     *pathsel.Sampler
	analyst     *adversary.Analyst
	compromised func(trace.NodeID) bool
	q           float64 // per-link loss probability
	rel         faults.Reliability
	analystU    *adversary.Analyst
	acc         *adversary.Accumulator
	sc          adversary.Scratch
	pmt         trace.MessageTrace
	paths       pathArena
	partials    []partialAttempt
}

// lossyTrial runs one trial through the sampled loss process. An
// undelivered message enters the delivery statistics only; a delivered
// one adds its entropy to H and, with the evidence its retries leaked, to
// HDegraded.
func (ar *trialArena) lossyTrial(t *trialTally, rng *stats.Stream, sender trace.NodeID) error {
	trial, err := ar.simulateDelivery(rng, sender)
	if err != nil {
		return err
	}
	t.attempts += trial.attempts
	if !trial.delivered {
		return nil
	}
	if ar.compromised(sender) {
		// Identified outright; retries add nothing.
		t.sum.Add(0)
		t.sumDeg.Add(0)
		t.compSender++
		t.deanon++
		return nil
	}
	h, err := ar.analyst.PathEntropy(sender, trial.path)
	if err != nil {
		return err
	}
	t.sum.Add(h)
	if h < 1e-9 {
		t.deanon++
	}
	if len(trial.partials) > 0 {
		if h, err = ar.degradedEntropy(sender, trial.path, trial.partials); err != nil {
			return err
		}
	}
	t.sumDeg.Add(h)
	return nil
}

// partialAttempt records one failed or retried traversal: the path it
// rode and how many hops the packet reached before the loss (upto hops
// means nodes path[0..upto-1] processed it, and the transmitter of the
// lost link knew its target).
type partialAttempt struct {
	path []trace.NodeID
	upto int
}

// lossyOutcome is the outcome of one simulated delivery.
type lossyOutcome struct {
	delivered bool
	path      []trace.NodeID   // the delivering path (when delivered)
	attempts  uint64           // transmissions (retransmit) or path draws (reroute)
	partials  []partialAttempt // retry/failure evidence leaked to the adversary
}

// pathArena is a pool of reusable path snapshots for the reroute policy,
// where up to MaxAttempts failed paths must stay alive at once while the
// sampler's own buffer is redrawn.
type pathArena struct {
	bufs [][]trace.NodeID
	used int
}

// clone snapshots p into the next reusable buffer.
func (pa *pathArena) clone(p []trace.NodeID) []trace.NodeID {
	if pa.used == len(pa.bufs) {
		pa.bufs = append(pa.bufs, nil)
	}
	b := append(pa.bufs[pa.used][:0], p...)
	pa.bufs[pa.used] = b
	pa.used++
	return b
}

// simulateDelivery runs one message through the sampled loss process, so
// the estimator reproduces both faces of a faulted run draw for draw in
// distribution with the testbed. A path of l intermediates crosses l+1
// links; link k's transmitter is the sender for k = 0, path[k-1]
// otherwise. The partials returned match what the testbed kernel's
// adversary accounting collects: under retransmit, one prefix per
// non-terminal lost attempt whose transmitter is a compromised
// intermediate (an honest or injecting transmitter leaks nothing); under
// reroute, every failed end-to-end attempt truncated at its first lost
// link. Returned paths and partials live in the arena and are valid until
// its sampler or path buffers are reused.
func (ar *trialArena) simulateDelivery(rng *stats.Stream, sender trace.NodeID) (lossyOutcome, error) {
	ar.paths.used = 0
	ar.partials = ar.partials[:0]
	q := ar.q
	switch ar.rel.Policy {
	case faults.PolicyRetransmit:
		// One path per trial: the partial prefixes can reference the
		// sampler's buffer directly, it is not redrawn before analysis.
		path, err := ar.sampler.SelectPath(rng, sender)
		if err != nil {
			return lossyOutcome{}, err
		}
		out := lossyOutcome{delivered: true, path: path, attempts: 1}
		for k := 0; k <= len(path); k++ {
			for a := 0; ; a++ {
				if rng.Float64() >= q {
					break // transmitted
				}
				if a+1 >= ar.rel.MaxAttempts {
					out.delivered = false
					break
				}
				out.attempts++
				if k >= 1 && ar.compromised(path[k-1]) {
					ar.partials = append(ar.partials, partialAttempt{path: path, upto: k})
				}
			}
			if !out.delivered {
				break
			}
		}
		out.partials = ar.partials
		return out, nil
	case faults.PolicyReroute:
		var out lossyOutcome
		for a := 0; a < ar.rel.MaxAttempts && !out.delivered; a++ {
			path, err := ar.sampler.SelectPath(rng, sender)
			if err != nil {
				return lossyOutcome{}, err
			}
			out.attempts++
			lostAt := -1
			for k := 0; k <= len(path); k++ {
				if rng.Float64() < q {
					lostAt = k
					break
				}
			}
			if lostAt < 0 {
				out.delivered = true
				out.path = path
			} else {
				// The sampler buffer is redrawn on the next attempt, so a
				// failed path is snapshotted into the arena.
				ar.partials = append(ar.partials, partialAttempt{path: ar.paths.clone(path), upto: lostAt})
			}
		}
		out.partials = ar.partials
		return out, nil
	default: // PolicyNone: drop on first loss
		path, err := ar.sampler.SelectPath(rng, sender)
		if err != nil {
			return lossyOutcome{}, err
		}
		out := lossyOutcome{delivered: true, path: path, attempts: 1}
		for k := 0; k <= len(path); k++ {
			if rng.Float64() < q {
				out.delivered = false
				break
			}
		}
		return out, nil
	}
}

// degradedEntropy folds a delivered trial's full posterior, straight from
// its path, together with the partial-trace evidence its retries leaked,
// through the honest-receiver analyst under foldPartial's rule.
func (ar *trialArena) degradedEntropy(sender trace.NodeID, path []trace.NodeID,
	partials []partialAttempt) (float64, error) {
	ar.acc.Reset()
	if err := ar.acc.ObservePath(sender, path, &ar.sc); err != nil {
		return 0, err
	}
	for _, pa := range partials {
		montecarlo.SynthesizePartialInto(&ar.pmt, 1, sender, pa.path, pa.upto, ar.compromised)
		if err := foldPartial(ar.acc, ar.analystU, &ar.pmt, &ar.sc); err != nil {
			return 0, err
		}
	}
	h, _, _, err := ar.acc.SnapshotFast()
	return h, err
}
