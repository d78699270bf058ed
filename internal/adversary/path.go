package adversary

// The path route: the sampling backends know each message's rerouting
// path, so they need not write the trace the compromised nodes would file
// and read it back. One pass over the path against the compromised bitset
// counts the view the trace route (scratch.go) would read from that trace
// — the compromised hops, the one-node and wider junctions between their
// runs, the tail gap, and the witnessed identities — and the statistics
// table serves the class's shape from those counts, as it does for the
// trace route. Every sampled session folds this way, in the dense node
// space of the accumulator's selected phase.

import (
	"anonmix/internal/events"
	"anonmix/internal/trace"
)

// witness counts id as witnessed and, when sc is non-nil, appends it to
// sc.witnessed.
func (v *view) witness(sc *Scratch, id trace.NodeID) {
	v.witnesses++
	if sc != nil {
		sc.witnessed = append(sc.witnessed, id)
	}
}

// walkPath reads the view of the message sender sends over path in one
// pass. The path must be simple and must not contain the sender; the
// witnesses are then distinct and, unless the view is identified, honest,
// and it yields the view classify yields for the path's synthesized trace.
// IDs outside [0, N) count as honest, as Compromised reports them. When sc
// is non-nil the witnesses are appended to sc.witnessed in classify's
// order — junction witnesses along the path, then tail witnesses, then
// the candidate — which the fold's elimination order depends on.
func (a *Analyst) walkPath(sender trace.NodeID, path []trace.NodeID, sc *Scratch) (v view) {
	if sc != nil {
		sc.witnessed = sc.witnessed[:0]
	}
	first, last := -1, -1
	for i, hop := range path {
		if !a.Compromised(hop) {
			continue
		}
		v.k++
		switch gap := i - last - 1; {
		case last < 0:
			first = i
		case gap == 1:
			v.one++
			v.witness(sc, path[i-1])
		case gap > 1:
			v.wide++
			v.witness(sc, path[last+1])
			v.witness(sc, path[i-1])
		}
		last = i
	}
	receiver := a.engine.ReceiverCompromised()
	if v.k == 0 {
		if !receiver {
			// Nothing is observed and nobody carries a spike.
			v.candidate = trace.Receiver
			return v
		}
		// The receiver's predecessor is the only identity observed.
		v.candidate = sender
		if len(path) > 0 {
			v.candidate = path[len(path)-1]
		}
		v.witness(sc, v.candidate)
		v.identified = a.Compromised(v.candidate)
		return v
	}
	v.candidate = sender
	if first > 0 {
		v.candidate = path[first-1]
	}
	switch tail := len(path) - 1 - last; {
	case tail == 0:
		v.tail = events.TailZero
	case !receiver:
		v.tail = events.TailUnobserved
		v.witness(sc, path[last+1])
	case tail == 1:
		v.tail = events.TailOne
		v.witness(sc, path[last+1])
	default:
		v.tail = events.TailWide
		v.witness(sc, path[last+1])
		v.witness(sc, path[len(path)-1])
	}
	v.witness(sc, v.candidate)
	v.identified = a.Compromised(v.candidate)
	return v
}

// PathEntropy is EntropyScratch for the trace that sender's message over
// path would produce, computed from the path without building the trace.
// The path must be simple and must not contain the sender:
// pathsel guarantees both for Simple strategies, and the scenario layer's
// Monte-Carlo drivers refuse Complicated ones. On such
// a path the result and the error class are EntropyScratch's bit for bit,
// and the slab count is cross-checked against the witnesses as there. IDs
// outside [0, N) count as honest, as they do under SynthesizeInto's
// compromised callback.
func (a *Analyst) PathEntropy(sender trace.NodeID, path []trace.NodeID) (float64, error) {
	v := a.walkPath(sender, path, nil)
	if v.identified {
		return 0, nil
	}
	_, rest, h, err := a.stats.ShapeStats(v.k, v.one, v.wide, v.tail)
	if err != nil {
		return 0, err
	}
	if r := a.engine.N() - a.engine.C() - v.witnesses; r != rest {
		return 0, slabMismatch(r, rest)
	}
	return h, nil
}

// ObservePath is ObserveScratch for the trace that sender's message over
// path would produce, folded from the path without building the trace;
// sender and path are in the selected phase's dense node space, and sc
// holds the witnessed identities. Its contract is PathEntropy's: on a
// simple path without the sender the accumulator ends in the state
// ObserveScratch would leave, bit for bit, and on error it is unchanged.
func (acc *Accumulator) ObservePath(sender trace.NodeID, path []trace.NodeID, sc *Scratch) error {
	v := acc.analyst.walkPath(sender, path, sc)
	return acc.fold(acc.analyst, &v, sc)
}
