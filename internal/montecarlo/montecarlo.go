// Package montecarlo synthesizes the message traces the §4 adversary
// collects for a concrete rerouting path: one report per compromised
// intermediate and the receiver's report for a delivered message
// (Synthesize), or the reports of an attempt lost part-way
// (SynthesizePartial). The Monte-Carlo estimator itself is the scenario
// layer's mc backend: it classifies sampled paths without writing traces
// and synthesizes only the partial traces of failed delivery attempts.
// The package keeps its name because the benchmark module under bench/
// imports SynthesizeInto to time the trace route against the path route.
package montecarlo

import "anonmix/internal/trace"

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
// Reports buffer. Every field of mt is overwritten.
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
