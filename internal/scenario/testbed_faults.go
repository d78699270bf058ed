package scenario

// Fault-injected testbed execution. The kernel does the dropping,
// retransmitting, and crash handling (simnet with a faults.Plan wired into
// its config); runRouted drives every faulted run, static or across a
// Messages timeline, and this file owns the fault-specific parts on top:
//
//   - PolicyReroute's wave loop (rerouteWaves), which runs inside each
//     phase after it settles: drain the kernel's failure handoffs,
//     re-inject each failed message from its original sender over a freshly
//     drawn path, and repeat until everything delivered or the attempt
//     budget is spent. A reroute phase's window is MaxAttempts windows wide
//     (phaseWindows), so the waves cannot cross into the next phase.
//   - The two-faced measurement's evidence rules: H covers the delivered
//     messages (the quantity the exact backend computes via the
//     effective-delivery length distribution), while the retry-degraded
//     HDegraded folds the evidence every retransmission and failed attempt
//     leaked to compromised observers — partial traces analysed under the
//     uncompromised-receiver model, since a failed attempt never produced
//     a receiver report.

import (
	"errors"
	"fmt"
	"sort"

	"anonmix/internal/adversary"
	"anonmix/internal/events"
	"anonmix/internal/faults"
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

// rerouteWaves runs PolicyReroute's waves over a settled phase of a
// single-shot run: it drains the kernel's failure handoffs (TakeFailed),
// re-injects each failed message from its original sender over a path
// drawn from the message's own stream, settles, and repeats until no
// message is re-injected. A message whose attempts have spent the budget
// stays undelivered. TakeFailed returns message-sorted batches, so the
// waves' path draws — and with them the whole run — are deterministic
// under any shard interleaving. originOf maps every attempt of the
// phase's messages to the message's index in rp, and the waves extend it.
// It returns the number of re-injections.
func rerouteWaves(cfg *Config, nw *simnet.Network, rp *routedPhase, originOf map[trace.MessageID]int,
	inject func(rng *stats.Stream, sender trace.NodeID) (trace.MessageID, error)) (int, error) {
	total := 0
	for {
		// One checkpoint per rerouting wave.
		if err := cfg.checkCanceled(); err != nil {
			return 0, err
		}
		wave := 0
		for _, f := range nw.TakeFailed() {
			i, ok := originOf[f.Msg]
			if !ok {
				return 0, fmt.Errorf("scenario: kernel handed back unknown message %d", f.Msg)
			}
			rp.failed[i] = append(rp.failed[i], f.Msg)
			if len(rp.failed[i]) >= cfg.Reliability.MaxAttempts {
				continue // budget spent: the message stays undelivered
			}
			id, err := inject(&rp.strs[i], rp.senders[i])
			if err != nil {
				return 0, err
			}
			rp.ids[i] = id
			originOf[id] = i
			wave++
		}
		if wave == 0 {
			return total, nil
		}
		total += wave
		if err := nw.Settle(settleTimeout); err != nil {
			return 0, err
		}
	}
}

// attemptsPerMessage is the per-message attempt statistic of a faulted
// run of injected messages: retransmit counts the kernel's extra link
// transmissions (retries), reroute the end-to-end path attempts
// (attempts, first ones included), and PolicyNone always takes exactly
// one.
func attemptsPerMessage(cfg *Config, retries uint64, attempts, injected int) float64 {
	switch cfg.Reliability.Policy {
	case faults.PolicyRetransmit:
		return 1 + float64(retries)/float64(injected)
	case faults.PolicyReroute:
		return float64(attempts) / float64(injected)
	default:
		return 1
	}
}
