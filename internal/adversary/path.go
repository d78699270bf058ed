package adversary

// The path route: the sampling backends know each message's rerouting
// path, so they need not write the trace the compromised nodes would file
// and walk it back into a Class. One pass over the path against the
// compromised bitset counts what ClassifyScratch would reconstruct from
// that trace — the compromised hops, the one-node and wider junctions
// between their runs, the tail gap, and the witnessed identities — and
// the statistics table serves the class's shape from those counts. Every
// sampled session folds this way, in the dense node space of the
// accumulator's selected phase. The trace route stays for everything that
// starts from reports: the testbed's collected traces and the partial
// traces of failed deliveries.

import (
	"fmt"

	"anonmix/internal/events"
	"anonmix/internal/trace"
)

// pathView is ClassifyScratch's view of the trace a path would produce,
// counted from the path itself.
type pathView struct {
	k, one, wide int // compromised hops, one-node and wider junctions
	tail         events.TailFlag
	witnesses    int // witnessed identities, the candidate included
	candidate    trace.NodeID
	identified   bool
}

// witness counts id as witnessed and, when sc is non-nil, appends it to
// sc.witnessed.
func (v *pathView) witness(sc *Scratch, id trace.NodeID) {
	v.witnesses++
	if sc != nil {
		sc.witnessed = append(sc.witnessed, id)
	}
}

// walkPath classifies the message sender sends over path in one pass.
// The path must be simple and must not contain the sender; the witnesses
// are then distinct, and it yields the candidate, identification, counts
// and witnesses that ClassifyScratch yields for the path's synthesized
// trace. IDs outside [0, N) count as honest, as Compromised reports them.
// When sc is non-nil the witnesses are appended to sc.witnessed in
// ClassifyScratch's order — junction witnesses along the path, then tail
// witnesses, then the candidate — which the fold's elimination order
// depends on.
func (a *Analyst) walkPath(sender trace.NodeID, path []trace.NodeID, sc *Scratch) (v pathView) {
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
// path would produce, computed from the path without building the trace
// or its Class. The path must be simple and must not contain the sender:
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
		return 0, fmt.Errorf("%w: %d slab candidates reconstructed, engine expects %d",
			ErrCorruptTrace, r, rest)
	}
	return h, nil
}

// ObservePath is ObserveScratch for the trace that sender's message over
// path would produce, folded from the path without building the trace or
// its Class; sender and path are in the selected phase's dense node
// space, and sc holds the witnessed identities. Its contract is
// PathEntropy's: on a simple path without the sender the accumulator ends
// in the state ObserveScratch would leave, bit for bit, and on error it is
// unchanged.
func (acc *Accumulator) ObservePath(sender trace.NodeID, path []trace.NodeID, sc *Scratch) error {
	a := acc.analyst
	v := a.walkPath(sender, path, sc)
	if v.identified {
		acc.identify(acc.union(v.candidate))
		return nil
	}
	alpha, rest, _, err := a.stats.ShapeStats(v.k, v.one, v.wide, v.tail)
	if err != nil {
		return err
	}
	return acc.fold(a, v.candidate, sc.witnessed, alpha, rest)
}
