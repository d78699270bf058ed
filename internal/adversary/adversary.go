// Package adversary implements the passive global adversary of the paper's
// threat model (§4). It reads each message into the shape of its
// observation class — the compromised hops, the one-node and wider
// junctions between their runs, and the tail gap to the receiver — either
// from the tuple reports its compromised nodes filed (package trace; the
// trace route, scratch.go) or straight from its rerouting path when a
// sampling backend knows it (the path route, path.go). The exact Bayesian
// engine's statistics table (package events) serves the posterior
// probability that each node is the true sender (the paper's Formula 3)
// from that shape, and the Accumulator multiplies those posteriors across
// the rounds of a session.
package adversary

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"anonmix/internal/dist"
	"anonmix/internal/entropy"
	"anonmix/internal/events"
	"anonmix/internal/trace"
)

// Errors returned by the analyst.
var (
	// ErrBadConfig reports an inconsistent analyst configuration.
	ErrBadConfig = errors.New("adversary: invalid configuration")
	// ErrCorruptTrace reports tuple sequences that no simple rerouting
	// path can produce (e.g. a gap in the middle of what should be a run).
	ErrCorruptTrace = errors.New("adversary: inconsistent message trace")
	// ErrModelMismatch reports an observation outside the simple-path
	// model, e.g. a node observed twice because the route had cycles.
	ErrModelMismatch = errors.New("adversary: observation outside the simple-path model")
)

// Analyst turns collected traces into sender posteriors. It owns the static
// (off-line) information of §4: the system size, the identities of the
// compromised nodes, and the path-length distribution of the strategy in
// use.
type Analyst struct {
	engine *events.Engine
	stats  *events.StatsTable
	// compromised lists the adversary's nodes in the caller's order, and
	// compBits holds the same set as a bitset over [0, N).
	compromised []trace.NodeID
	compBits    []uint64
}

// NewAnalyst returns an analyst for the given exact engine, strategy
// length distribution, and compromised node set. The compromised set size
// must match the engine's C. The engine validates d here, once for every
// trace the analyst will analyze, so a distribution it rejects fails
// NewAnalyst with events.ErrSupportTooLong (support beyond N−1) or
// dist.ErrInvalid, not the first analysis.
func NewAnalyst(e *events.Engine, d dist.Length, compromised []trace.NodeID) (*Analyst, error) {
	if e == nil {
		return nil, fmt.Errorf("%w: nil engine", ErrBadConfig)
	}
	if e.Mode() != events.InferenceStandard {
		// The classifiers reconstruct the standard flag-based classes;
		// pairing them with a stronger-inference engine would understate
		// what that adversary knows.
		return nil, fmt.Errorf("%w: analyst requires the standard inference mode, engine uses %v",
			ErrBadConfig, e.Mode())
	}
	if d == nil {
		return nil, fmt.Errorf("%w: nil length distribution", ErrBadConfig)
	}
	if len(compromised) != e.C() {
		return nil, fmt.Errorf("%w: %d compromised nodes, engine expects %d",
			ErrBadConfig, len(compromised), e.C())
	}
	a := &Analyst{
		engine:      e,
		compromised: append([]trace.NodeID(nil), compromised...),
		compBits:    make([]uint64, (e.N()+63)/64),
	}
	for _, id := range compromised {
		if int(id) < 0 || int(id) >= e.N() {
			return nil, fmt.Errorf("%w: compromised node %v outside system", ErrBadConfig, id)
		}
		if a.Compromised(id) {
			return nil, fmt.Errorf("%w: duplicate compromised node %v", ErrBadConfig, id)
		}
		a.compBits[id/64] |= 1 << (id % 64)
	}
	stats, err := e.StatsTable(d)
	if err != nil {
		return nil, err
	}
	a.stats = stats
	return a, nil
}

// view is what the adversary reads off one message, by either route: the
// shape of its observation class — compromised hops, one-node and wider
// junctions between their runs, and the tail — which is all its statistics
// depend on, the number of distinct honest identities it witnessed, the
// spike candidate, and whether the sender is identified outright. The
// witnessed identities themselves go to a Scratch.
type view struct {
	k, one, wide int // compromised hops, one-node and wider junctions
	tail         events.TailFlag
	witnesses    int // distinct honest witnessed identities, the candidate included
	// candidate carries the posterior spike: the predecessor of the first
	// observed run, or the receiver's predecessor when no compromised node
	// was on the path.
	candidate trace.NodeID
	// identified marks outright deanonymization: the first observed
	// predecessor is one of the adversary's own nodes that filed no relay
	// report for this message, so it must be the originator (on a simple
	// path a compromised *relay* would have reported). This is how the
	// paper's local-eavesdropper case surfaces in the trace stream.
	identified bool
}

// Posterior is the adversary's belief about the sender of one message.
type Posterior struct {
	// P maps each node (by index) to its posterior sender probability —
	// the paper's P(a0 = i | E = e).
	P []float64
	// H is the Shannon entropy of P in bits (Formula 4).
	H float64
	// Alpha is the spike mass on Candidate.
	Alpha float64
	// Candidate is the spike carrier.
	Candidate trace.NodeID
}

// Posterior runs the full inference pipeline for one message trace and
// materializes the N-entry posterior vector. EntropyScratch returns its H
// in O(reports) without the vector.
func (a *Analyst) Posterior(mt *trace.MessageTrace) (Posterior, error) {
	var sc Scratch
	v, err := a.classify(mt, &sc)
	if err != nil {
		return Posterior{}, err
	}
	n := a.engine.N()
	post := Posterior{P: make([]float64, n), Candidate: v.candidate}
	if v.identified {
		post.Alpha = 1
		post.P[v.candidate] = 1
		return post, nil
	}
	alpha, rest, _, err := a.stats.ShapeStats(v.k, v.one, v.wide, v.tail)
	if err != nil {
		return Posterior{}, err
	}
	// Slab candidates: nodes that are neither compromised, nor witnessed,
	// nor the spike candidate.
	var slab []trace.NodeID
	for i := 0; i < n; i++ {
		id := trace.NodeID(i)
		if a.Compromised(id) || id == v.candidate || slices.Contains(sc.witnessed, id) {
			continue
		}
		slab = append(slab, id)
	}
	if len(slab) != rest {
		return Posterior{}, slabMismatch(len(slab), rest)
	}
	post.Alpha = alpha
	if int(v.candidate) >= 0 && int(v.candidate) < n {
		post.P[v.candidate] = alpha
	}
	if len(slab) > 0 {
		share := (1 - alpha) / float64(len(slab))
		for _, id := range slab {
			post.P[id] = share
		}
	}
	post.H = entropy.Bits(post.P)
	return post, nil
}

// AnalyzeAll collates a raw tuple stream (as collected from a live network
// or the testbed) and returns the sender posterior for every message whose
// trace is complete. Messages without a receiver report (still in flight,
// or dropped) are skipped and listed in the second return value.
func (a *Analyst) AnalyzeAll(tuples []trace.Tuple) (map[trace.MessageID]Posterior, []trace.MessageID, error) {
	// Analyze in message-ID order: the incomplete list's order and which
	// corrupt trace surfaces its error first must not depend on map
	// iteration order.
	collated := trace.Collate(tuples)
	ids := make([]trace.MessageID, 0, len(collated))
	for id := range collated {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make(map[trace.MessageID]Posterior)
	var incomplete []trace.MessageID
	for _, id := range ids {
		mt := collated[id]
		if !mt.ReceiverSeen {
			incomplete = append(incomplete, id)
			continue
		}
		post, err := a.Posterior(mt)
		if err != nil {
			return nil, nil, fmt.Errorf("adversary: message %d: %w", id, err)
		}
		out[id] = post
	}
	return out, incomplete, nil
}

// Compromised reports whether the analyst controls the given node.
func (a *Analyst) Compromised(id trace.NodeID) bool {
	i := uint(id) / 64
	return i < uint(len(a.compBits)) && a.compBits[i]&(1<<(uint(id)%64)) != 0
}

// Engine exposes the underlying exact engine (read-only use).
func (a *Analyst) Engine() *events.Engine { return a.engine }
