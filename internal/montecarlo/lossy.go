package montecarlo

// Loss-aware sampling: each trial simulates the delivery process — link
// losses, retransmissions, rerouting — alongside the path draw, so the
// estimator reproduces both faces of a faulted run. The lossless face is
// H over delivered trials (the quantity the exact backend computes in
// closed form via the effective-delivery length distribution); the
// degraded face folds the partial-trace evidence every retry leaks into
// the delivered trial's posterior, mirroring the testbed's
// retry-observation accounting draw for draw in distribution.

import (
	"errors"
	"fmt"
	"sync/atomic"

	"anonmix/internal/adversary"
	"anonmix/internal/events"
	"anonmix/internal/faults"
	"anonmix/internal/pathsel"
	"anonmix/internal/pool"
	"anonmix/internal/stats"
	"anonmix/internal/trace"
)

// partialAttempt records one failed or retried traversal: the path it
// rode and how many hops the packet reached before the loss (upto hops
// means nodes path[0..upto-1] processed it, and the transmitter of the
// lost link knew its target).
type partialAttempt struct {
	path []trace.NodeID
	upto int
}

// SynthesizePartial constructs the message trace the adversary holds for
// an incomplete traversal: the packet reached the first upto intermediates
// of path and was lost on the next link, so every compromised node among
// them reports its (pred, succ) tuple — the transmitter of the lost link
// included, since it knew the target it was sending to — and the receiver
// never reports. It is the failed-attempt counterpart of Synthesize.
func SynthesizePartial(msg trace.MessageID, sender trace.NodeID, path []trace.NodeID,
	upto int, compromised func(trace.NodeID) bool) *trace.MessageTrace {
	mt := &trace.MessageTrace{}
	SynthesizePartialInto(mt, msg, sender, path, upto, compromised)
	return mt
}

// SynthesizePartialInto is SynthesizePartial into a caller-owned trace,
// reusing its Reports buffer. Every field of mt is overwritten.
func SynthesizePartialInto(mt *trace.MessageTrace, msg trace.MessageID, sender trace.NodeID,
	path []trace.NodeID, upto int, compromised func(trace.NodeID) bool) {
	if upto > len(path) {
		upto = len(path)
	}
	mt.Msg = msg
	mt.ReceiverSeen = false
	mt.ReceiverPred = 0
	mt.Reports = mt.Reports[:0]
	prev := sender
	for i := 0; i < upto; i++ {
		hop := path[i]
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
}

// lossyTrial is the outcome of one simulated delivery.
type lossyTrial struct {
	delivered bool
	path      []trace.NodeID   // the delivering path (when delivered)
	attempts  uint64           // transmissions (retransmit) or path draws (reroute)
	partials  []partialAttempt // retry/failure evidence leaked to the adversary
}

// pathArena is a pool of reusable path snapshots for the reroute policy,
// where up to maxAttempts failed paths must stay alive at once while the
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

func (pa *pathArena) reset() { pa.used = 0 }

// lossyArena is the per-worker scratch of the loss-aware trial loop.
type lossyArena struct {
	sampler  *pathsel.Sampler
	sc       adversary.Scratch
	pmt      trace.MessageTrace
	acc      *adversary.Accumulator
	paths    pathArena
	partials []partialAttempt
}

// simulateDelivery runs one message through the sampled loss process. A
// path of l intermediates crosses l+1 links; link k's transmitter is the
// sender for k = 0, path[k-1] otherwise. The partials returned match what
// the testbed kernel's adversary accounting collects: under retransmit,
// one prefix per non-terminal lost attempt whose transmitter is a
// compromised intermediate (an honest or injecting transmitter leaks
// nothing); under reroute, every failed end-to-end attempt truncated at
// its first lost link. Returned paths and partials live in the arena and
// are valid until its sampler or path buffers are reused.
func simulateDelivery(rng *stats.Stream, ar *lossyArena, sender trace.NodeID,
	q float64, policy faults.Policy, maxAttempts int,
	compromised func(trace.NodeID) bool) (lossyTrial, error) {
	ar.paths.reset()
	ar.partials = ar.partials[:0]
	switch policy {
	case faults.PolicyRetransmit:
		// One path per trial: the partial prefixes can reference the
		// sampler's buffer directly, it is not redrawn before analysis.
		path, err := ar.sampler.SelectPath(rng, sender)
		if err != nil {
			return lossyTrial{}, err
		}
		out := lossyTrial{delivered: true, path: path, attempts: 1}
		for k := 0; k <= len(path); k++ {
			for a := 0; ; a++ {
				if rng.Float64() >= q {
					break // transmitted
				}
				if a+1 >= maxAttempts {
					out.delivered = false
					break
				}
				out.attempts++
				if k >= 1 && compromised(path[k-1]) {
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
		var out lossyTrial
		for a := 0; a < maxAttempts && !out.delivered; a++ {
			path, err := ar.sampler.SelectPath(rng, sender)
			if err != nil {
				return lossyTrial{}, err
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
			return lossyTrial{}, err
		}
		out := lossyTrial{delivered: true, path: path, attempts: 1}
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
// under the uncompromised-receiver analysis (a failed attempt never
// produced a receiver report). Partial traces the analyst cannot classify
// (ErrCorruptTrace, ErrModelMismatch) are skipped — the conservative
// adversary discards evidence it cannot fit to its model rather than
// guessing; any other fold error is returned.
func degradedEntropy(ar *lossyArena, analystU *adversary.Analyst,
	sender trace.NodeID, path []trace.NodeID, partials []partialAttempt,
	compromised func(trace.NodeID) bool) (float64, error) {
	ar.acc.Reset()
	if err := ar.acc.ObservePath(sender, path, &ar.sc); err != nil {
		return 0, err
	}
	for _, pa := range partials {
		p := pa.path
		if p == nil {
			p = path
		}
		SynthesizePartialInto(&ar.pmt, 1, sender, p, pa.upto, compromised)
		err := ar.acc.FoldObservation(analystU, &ar.pmt, &ar.sc)
		if err != nil && !errors.Is(err, adversary.ErrCorruptTrace) && !errors.Is(err, adversary.ErrModelMismatch) {
			return 0, fmt.Errorf("montecarlo: partial trace: %w", err)
		}
	}
	h, _, _, err := ar.acc.SnapshotFast()
	return h, err
}

// estimateLossy is the single-shot loss-aware estimation path. H averages
// over delivered trials only (matching the exact backend's
// effective-delivery conditioning), HDegraded additionally folds retry
// evidence, and the delivery statistics aggregate over every trial. Like
// the lossless paths it is a pure function of (Seed, Trials).
func estimateLossy(cfg Config, analyst *adversary.Analyst, selector *pathsel.Selector) (Result, error) {
	uOpts := append(append([]events.Option{}, cfg.EngineOptions...), events.WithUncompromisedReceiver())
	engineU, err := events.New(cfg.N, len(cfg.Compromised), uOpts...)
	if err != nil {
		return Result{}, err
	}
	analystU, err := adversary.NewAnalyst(engineU, cfg.Strategy.Length, cfg.Compromised)
	if err != nil {
		return Result{}, err
	}

	newArena := func() (*lossyArena, error) {
		sp, err := selector.NewSampler()
		if err != nil {
			return nil, err
		}
		acc, err := adversary.NewAccumulator(analyst)
		if err != nil {
			return nil, err
		}
		return &lossyArena{sampler: sp, acc: acc}, nil
	}

	type part struct {
		sum, sumDeg stats.Summary
		compSender  int
		deanon      int
		attempts    uint64
		injected    int
		err         error
	}
	batches := numBatches(cfg.Trials)
	parts := make([]part, batches)
	compromised := analyst.Compromised

	var nextBatch, done atomic.Int64
	var aborted atomic.Bool
	workers := cfg.Workers
	if workers > batches {
		workers = batches
	}
	pool.ForEach(workers, func(int) {
		ar, err := newArena()
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
				trial, err := simulateDelivery(&rng, ar, sender, cfg.LinkLoss, cfg.Policy, cfg.MaxAttempts, compromised)
				if err != nil {
					p.err = err
					return
				}
				p.injected++
				p.attempts += trial.attempts
				if !trial.delivered {
					// Undelivered messages carry no receiver-side event; they
					// enter the delivery statistics but not the H average.
					continue
				}
				if compromised(sender) {
					// Local-eavesdropper branch: identified outright, retries
					// add nothing.
					p.sum.Add(0)
					p.sumDeg.Add(0)
					p.compSender++
					p.deanon++
					continue
				}
				h, err := analyst.PathEntropy(sender, trial.path)
				if err != nil {
					p.err = err
					return
				}
				p.sum.Add(h)
				if h < deanonymizedBits {
					p.deanon++
				}
				if len(trial.partials) == 0 {
					p.sumDeg.Add(h)
					continue
				}
				hd, err := degradedEntropy(ar, analystU, sender, trial.path, trial.partials, compromised)
				if err != nil {
					p.err = err
					return
				}
				p.sumDeg.Add(hd)
			}
			if d := int(done.Add(int64(hi - lo))); cfg.Progress != nil {
				cfg.Progress(d, cfg.Trials)
			}
		}
	})

	if aborted.Load() {
		return Result{}, errCanceled(int(done.Load()), cfg.Trials)
	}
	var sum, sumDeg stats.Summary
	var compSenders, deanon, injected int
	var attempts uint64
	for i := range parts {
		if parts[i].err != nil {
			return Result{}, parts[i].err
		}
		sum.Merge(parts[i].sum)
		sumDeg.Merge(parts[i].sumDeg)
		compSenders += parts[i].compSender
		deanon += parts[i].deanon
		injected += parts[i].injected
		attempts += parts[i].attempts
	}
	res := Result{
		Trials:       sum.N(),
		Deanonymized: deanon,
		DeliveryRate: float64(sum.N()) / float64(injected),
		MeanAttempts: float64(attempts) / float64(injected),
	}
	if sum.N() > 0 {
		res.H = sum.Mean()
		res.StdErr = sum.StdErr()
		res.CI95 = sum.CI95()
		res.HDegraded = sumDeg.Mean()
		res.CompromisedSenderShare = float64(compSenders) / float64(sum.N())
	}
	return res, nil
}
