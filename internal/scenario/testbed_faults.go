package scenario

// Fault-injected testbed execution. The kernel does the dropping,
// retransmitting, and crash handling (simnet with a faults.Plan wired into
// its config); this file owns the driver and the analysis on top:
//
//   - PolicyReroute's wave loop: settle, drain the kernel's failure
//     handoffs (TakeFailed), re-inject each failed message from its
//     original sender over a freshly drawn path, and repeat until
//     everything delivered or the attempt budget is spent.
//   - The two-faced measurement: H over delivered messages (the quantity
//     the exact backend computes via the effective-delivery length
//     distribution) next to the retry-degraded HDegraded, which folds the
//     evidence every retransmission and failed attempt leaked to
//     compromised observers — partial traces analyzed under the
//     uncompromised-receiver model, since a failed attempt never produced
//     a receiver report.

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"anonmix/internal/adversary"
	"anonmix/internal/entropy"
	"anonmix/internal/events"
	"anonmix/internal/faults"
	"anonmix/internal/pathsel"
	"anonmix/internal/simnet"
	"anonmix/internal/stats"
	"anonmix/internal/trace"
)

// faultNetConfig applies the scenario's fault plan to a kernel config.
// The plan's jitter adds to the workload's hop delay; everything else maps
// field for field.
func faultNetConfig(nwCfg *simnet.Config, cfg *Config) {
	if cfg.Faults == nil {
		return
	}
	nwCfg.LinkLoss = cfg.Faults.LinkLoss
	nwCfg.Crashes = cfg.Faults.Crashes
	nwCfg.Policy = cfg.Reliability.Policy
	nwCfg.MaxAttempts = cfg.Reliability.MaxAttempts
	nwCfg.RetryBackoff = cfg.Reliability.RetryBackoff
	nwCfg.MaxHopDelay += cfg.Faults.Jitter
}

// checkUnexpectedDrops fails the run on drop causes fault injection does
// not explain: loss and crash drops are the configured fault process, but
// a bad hop, a forwarder error, or an absent node is a real defect that
// must not hide behind the loss statistics.
func checkUnexpectedDrops(nw *simnet.Network) error {
	ds := nw.DropStats()
	// Sweep causes in sorted order so the same defect always surfaces
	// the same error, whatever the map iteration order.
	causes := make([]string, 0, len(ds.ByCause))
	for cause := range ds.ByCause {
		causes = append(causes, cause)
	}
	sort.Strings(causes)
	for _, cause := range causes {
		if n := ds.ByCause[cause]; n > 0 && cause != simnet.DropLoss && cause != simnet.DropCrash {
			return fmt.Errorf("scenario: testbed dropped %d packets with unexpected cause %q (samples: %v)",
				n, cause, ds.Samples)
		}
	}
	return nil
}

// sortedRetryObservations groups the kernel's retransmission observations
// by message, ordered by (time, observer) within each — a deterministic
// fold order under any shard interleaving.
func sortedRetryObservations(nw *simnet.Network) map[trace.MessageID][]trace.Tuple {
	obs := nw.RetryObservations()
	sort.Slice(obs, func(i, j int) bool {
		a, b := obs[i], obs[j]
		if a.Msg != b.Msg {
			return a.Msg < b.Msg
		}
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		return a.Observer < b.Observer
	})
	out := make(map[trace.MessageID][]trace.Tuple)
	for _, t := range obs {
		out[t.Msg] = append(out[t.Msg], t)
	}
	return out
}

// truncateAtObserver returns the prefix of a delivered trace up to and
// including the named observer's report, with the receiver's report
// removed — the evidence state a retransmission at that observer leaked.
// Nil when the observer never reported (it should have: retry
// observations only come from compromised nodes that processed the
// packet).
func truncateAtObserver(mt *trace.MessageTrace, obs trace.NodeID) *trace.MessageTrace {
	for i, r := range mt.Reports {
		if r.Observer == obs {
			return &trace.MessageTrace{
				Msg:     mt.Msg,
				Reports: append([]trace.Tuple(nil), mt.Reports[:i+1]...),
			}
		}
	}
	return nil
}

// honestReceiverAnalyst builds the analyst of a population of n nodes
// with the dense compromised set comp under the uncompromised-receiver
// model, on an engine from the shared cache: the model leaked partial
// traces are analyzed under, since a failed attempt never produced a
// receiver report.
func honestReceiverAnalyst(cfg *Config, n int, comp []trace.NodeID) (*adversary.Analyst, error) {
	e, err := Engine(n, len(comp), append(engineOptions(*cfg), events.WithUncompromisedReceiver())...)
	if err != nil {
		return nil, err
	}
	return adversary.NewAnalyst(e, cfg.Strategy.Length, comp)
}

// foldPartial is the partial-evidence rule of both sampling backends: it
// folds one leaked partial trace into acc through the
// uncompromised-receiver analyst. Partials the model cannot classify
// (ErrCorruptTrace or ErrModelMismatch, e.g. a lossy link whose target is
// itself compromised, breaking the witnessed-set arithmetic) are skipped —
// the conservative adversary discards what it cannot fit. Any other error,
// such as an analyst that does not match the accumulator, fails the fold.
func foldPartial(acc *adversary.Accumulator, analystU *adversary.Analyst,
	pmt *trace.MessageTrace, sc *adversary.Scratch) error {
	err := acc.FoldObservation(analystU, pmt, sc)
	if err != nil && !errors.Is(err, adversary.ErrCorruptTrace) && !errors.Is(err, adversary.ErrModelMismatch) {
		return fmt.Errorf("scenario: partial trace: %w", err)
	}
	return nil
}

// foldDegraded accumulates one delivered message's retry-degraded
// posterior into the caller's reusable accumulator (reset here): the full
// delivered trace through the accumulator's own analyst, then every
// leaked partial trace under foldPartial's rule.
func foldDegraded(acc *adversary.Accumulator, analystU *adversary.Analyst,
	mt *trace.MessageTrace, partials []*trace.MessageTrace,
	sc *adversary.Scratch) (float64, error) {
	acc.Reset()
	if err := acc.ObserveScratch(mt, sc); err != nil {
		return 0, err
	}
	for _, pmt := range partials {
		if pmt == nil {
			continue
		}
		if err := foldPartial(acc, analystU, pmt, sc); err != nil {
			return 0, err
		}
	}
	h, _, _, err := acc.SnapshotFast()
	return h, err
}

// runRoutedFaulty executes a fault-injected single-shot scenario on the
// routed substrates (plain, onion, mix).
func runRoutedFaulty(cfg Config) (Result, error) {
	engine, err := Engine(cfg.N, len(cfg.Adversary.Compromised), engineOptions(cfg)...)
	if err != nil {
		return Result{}, err
	}
	analyst, err := adversary.NewAnalyst(engine, cfg.Strategy.Length, cfg.Adversary.Compromised)
	if err != nil {
		return Result{}, err
	}
	analystU, err := honestReceiverAnalyst(&cfg, cfg.N, cfg.Adversary.Compromised)
	if err != nil {
		return Result{}, err
	}
	sel, err := pathsel.NewSelector(cfg.N, cfg.Strategy)
	if err != nil {
		return Result{}, err
	}

	baseGoroutines := runtime.NumGoroutine()
	nw, inject, err := startRouted(&cfg, simnet.Config{N: cfg.N, Compromised: cfg.Adversary.Compromised})
	if err != nil {
		return Result{}, err
	}
	defer nw.Close()

	sessions := cfg.Workload.Messages
	start := time.Now() //anonlint:allow detrand(wall-clock metrics only, never flows into Result)
	// One counter-based stream per session, so a reroute wave's redraws
	// come from the failed session's own stream — deterministic regardless
	// of which sessions fail or in what order the waves return them. The
	// sampler's path buffer is reused (see startRouted).
	sp, err := sel.NewSampler()
	if err != nil {
		return Result{}, err
	}
	var (
		senders  = make([]trace.NodeID, sessions)
		strs     = make([]stats.Stream, sessions)
		lastID   = make([]trace.MessageID, sessions)
		attempts = make([]int, sessions)
		failed   = make([][]trace.MessageID, sessions)
		originOf = make(map[trace.MessageID]int, sessions)
	)
	for s := 0; s < sessions; s++ {
		if s%batchSize == 0 {
			if err := cfg.checkCanceled(); err != nil {
				return Result{}, err
			}
		}
		strs[s] = stats.NewStream(cfg.Workload.Seed, int64(s))
		sender := cfg.Workload.Sender
		if !cfg.Workload.FixedSender {
			sender = trace.NodeID(strs[s].Intn(cfg.N))
		}
		path, err := sp.SelectPath(&strs[s], sender)
		if err != nil {
			return Result{}, err
		}
		id, err := inject(sender, path)
		if err != nil {
			return Result{}, err
		}
		senders[s], lastID[s], attempts[s] = sender, id, 1
		originOf[id] = s
	}
	goroutines := max(runtime.NumGoroutine()-baseGoroutines, 0)
	if err := nw.Settle(settleTimeout); err != nil {
		return Result{}, err
	}

	if cfg.Reliability.Policy == faults.PolicyReroute {
		// Rerouting waves: each failed message retries end to end from its
		// original sender over a fresh path drawn from the live selector.
		// TakeFailed returns message-sorted batches, so the wave's path
		// draws — and with them the whole run — are deterministic under any
		// shard interleaving.
		for {
			// One checkpoint per rerouting wave.
			if err := cfg.checkCanceled(); err != nil {
				return Result{}, err
			}
			reinjected := false
			for _, f := range nw.TakeFailed() {
				s, ok := originOf[f.Msg]
				if !ok {
					return Result{}, fmt.Errorf("scenario: kernel handed back unknown message %d", f.Msg)
				}
				failed[s] = append(failed[s], f.Msg)
				if attempts[s] >= cfg.Reliability.MaxAttempts {
					continue // budget spent: the message stays undelivered
				}
				path, err := sp.SelectPath(&strs[s], senders[s])
				if err != nil {
					return Result{}, err
				}
				id, err := inject(senders[s], path)
				if err != nil {
					return Result{}, err
				}
				attempts[s]++
				lastID[s] = id
				originOf[id] = s
				reinjected = true
			}
			if !reinjected {
				break
			}
			if err := nw.Settle(settleTimeout); err != nil {
				return Result{}, err
			}
		}
	}
	elapsed := time.Since(start)
	if err := checkUnexpectedDrops(nw); err != nil {
		return Result{}, err
	}

	deliveredSet := make(map[trace.MessageID]bool)
	for _, d := range nw.Deliveries() {
		deliveredSet[d.Msg] = true
	}
	traces := trace.Collate(nw.Tuples())
	retryByMsg := sortedRetryObservations(nw)

	acc, err := adversary.NewAccumulator(analyst)
	if err != nil {
		return Result{}, err
	}
	var (
		sum, sumDeg stats.Summary
		comp        int
		deanon      int
		sc          adversary.Scratch
		partials    []*trace.MessageTrace
	)
	for s := 0; s < sessions; s++ {
		id := lastID[s]
		if !deliveredSet[id] {
			continue // undelivered: no receiver-side event, excluded from H
		}
		sender := senders[s]
		if analyst.Compromised(sender) {
			sum.Add(0)
			sumDeg.Add(0)
			comp++
			deanon++
			continue
		}
		mt := traces[id]
		if mt == nil {
			return Result{}, fmt.Errorf("scenario: message %d has no trace", id)
		}
		h, err := analyst.EntropyScratch(mt, &sc)
		if err != nil {
			return Result{}, fmt.Errorf("scenario: message %d: %w", id, err)
		}
		if h < 1e-9 {
			deanon++
		}
		sum.Add(h)
		partials = partials[:0]
		for _, fid := range failed[s] {
			pmt := traces[fid]
			if pmt == nil {
				// The attempt was lost on the first link: no compromised
				// node processed it, and the adversary holds an empty trace.
				pmt = &trace.MessageTrace{Msg: fid}
			}
			partials = append(partials, pmt)
		}
		for _, rt := range retryByMsg[id] {
			partials = append(partials, truncateAtObserver(mt, rt.Observer))
		}
		if len(partials) == 0 {
			sumDeg.Add(h)
			continue
		}
		hd, err := foldDegraded(acc, analystU, mt, partials, &sc)
		if err != nil {
			return Result{}, fmt.Errorf("scenario: message %d degraded fold: %w", id, err)
		}
		sumDeg.Add(hd)
	}

	res := Result{
		Estimated:    true,
		Trials:       sum.N(),
		Deanonymized: deanon,
		MaxH:         entropy.Max(cfg.N),
		DeliveryRate: float64(sum.N()) / float64(sessions),
		MeanAttempts: meanAttempts(cfg, nw, attempts, sessions),
		Kernel:       kernelStats(nw, goroutines, elapsed),
	}
	if sum.N() > 0 {
		res.H = sum.Mean()
		res.StdErr = sum.StdErr()
		res.CI95 = sum.CI95()
		res.HDegraded = sumDeg.Mean()
		res.CompromisedSenderShare = float64(comp) / float64(sum.N())
	}
	res.Normalized = entropy.Normalized(res.H, cfg.N)
	return res, nil
}

// faultAnalysis carries the kernel-side fault evidence a timeline
// analysis needs: which messages delivered, which retransmissions leaked
// to compromised observers, and the per-phase uncompromised-receiver
// analysts the degraded folds run through. Timeline faults are restricted
// to PolicyNone and PolicyRetransmit (normalizeFaults rejects reroute +
// timeline: a rerouting wave could straddle a phase boundary).
type faultAnalysis struct {
	delivered map[trace.MessageID]bool
	retries   map[trace.MessageID][]trace.Tuple
	analystsU []*adversary.Analyst
	retryN    uint64
}

// meanAttempts converts the kernel's retransmission count into the
// per-message attempt statistic (1 under PolicyNone, where retryN is 0).
func (fa *faultAnalysis) meanAttempts(injected int) float64 {
	if injected == 0 {
		return 1
	}
	return 1 + float64(fa.retryN)/float64(injected)
}

// newTimelineFaultAnalysis snapshots a settled network's fault evidence
// and builds the per-phase uncompromised-receiver analysts.
func newTimelineFaultAnalysis(cfg Config, phases []members, nw *simnet.Network) (*faultAnalysis, error) {
	fa := &faultAnalysis{
		delivered: make(map[trace.MessageID]bool),
		retries:   sortedRetryObservations(nw),
		analystsU: make([]*adversary.Analyst, len(phases)),
		retryN:    nw.Metrics().Retries,
	}
	for _, d := range nw.Deliveries() {
		fa.delivered[d.Msg] = true
	}
	for i := range phases {
		var err error
		if fa.analystsU[i], err = honestReceiverAnalyst(&cfg, phases[i].n, phases[i].denseComp); err != nil {
			return nil, err
		}
	}
	return fa, nil
}

// meanAttempts derives the per-message attempt statistic of a faulted
// run: retransmit counts extra link transmissions, reroute counts
// end-to-end path attempts, PolicyNone always takes exactly one.
func meanAttempts(cfg Config, nw *simnet.Network, attempts []int, injected int) float64 {
	switch cfg.Reliability.Policy {
	case faults.PolicyRetransmit:
		return 1 + float64(nw.Metrics().Retries)/float64(injected)
	case faults.PolicyReroute:
		var total int
		for _, a := range attempts {
			total += a
		}
		return float64(total) / float64(injected)
	default:
		return 1
	}
}
