// Package adversary implements the passive global adversary of the paper's
// threat model (§4). It consumes the tuple reports collected from
// compromised nodes (package trace), reconstructs the observable structure
// of each message's rerouting path — runs of adjacent compromised nodes,
// one-node junctions, and the tail gap to the receiver — and applies the
// exact Bayesian engine (package events) to produce the posterior
// probability that each node is the true sender (the paper's Formula 3).
package adversary

import (
	"errors"
	"fmt"
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
		// Classify reconstructs the standard flag-based classes; pairing
		// it with a stronger-inference engine would understate what that
		// adversary knows.
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

// Observation is the adversary's reconstructed view of one message.
type Observation struct {
	// Class is the structural signature fed to the Bayesian engine.
	Class events.Class
	// Candidate is the node carrying the posterior spike: the predecessor
	// of the first observed run, or the receiver's predecessor when no
	// compromised node was on the path.
	Candidate trace.NodeID
	// Witnessed is the set of uncompromised nodes whose identities the
	// adversary observed (junction and tail witnesses, the receiver's
	// predecessor) — excluded from the slab, except the Candidate itself.
	Witnessed map[trace.NodeID]bool
	// Identified marks outright deanonymization: the first observed
	// predecessor is one of the adversary's own nodes that filed no relay
	// report for this message, so it must be the originator (on a simple
	// path a compromised *relay* would have reported). This is how the
	// paper's local-eavesdropper case surfaces in the trace stream.
	Identified bool
}

// Classify reconstructs the observable class of a message trace. With a
// compromised receiver (the paper's default) traces missing the receiver
// report are rejected; with an uncompromised-receiver engine the receiver
// fields of the trace are ignored — the adversary does not have them — and
// the tail is classified from run-successor adjacency alone
// (events.TailUnobserved).
func (a *Analyst) Classify(mt *trace.MessageTrace) (Observation, error) {
	if mt == nil {
		return Observation{}, fmt.Errorf("%w: nil trace", ErrCorruptTrace)
	}
	receiver := a.engine.ReceiverCompromised()
	if receiver && !mt.ReceiverSeen {
		return Observation{}, trace.ErrNoReceiverReport
	}
	obs := Observation{Witnessed: make(map[trace.NodeID]bool)}
	if len(mt.Reports) == 0 {
		if !receiver {
			// No compromised node on the path and no receiver report: the
			// adversary observes nothing. The posterior is uniform over
			// the uncompromised nodes (the empty class of the
			// uncompromised-receiver engine); there is no candidate.
			obs.Candidate = trace.Receiver
			return obs, nil
		}
		obs.Candidate = mt.ReceiverPred
		obs.Witnessed[mt.ReceiverPred] = true
		if a.Compromised(mt.ReceiverPred) {
			// A compromised relay would have reported; a silent
			// compromised predecessor must be the sender (direct send by
			// one of the adversary's own nodes).
			obs.Identified = true
		}
		return obs, nil
	}

	seen := make(map[trace.NodeID]bool, len(mt.Reports))
	var runs []int
	var gaps []events.GapFlag
	for i, r := range mt.Reports {
		if !a.Compromised(r.Observer) {
			return Observation{}, fmt.Errorf("%w: report from unknown agent %v", ErrCorruptTrace, r.Observer)
		}
		if seen[r.Observer] {
			return Observation{}, fmt.Errorf("%w: node %v observed twice (cyclic route?)", ErrModelMismatch, r.Observer)
		}
		seen[r.Observer] = true
		if i == 0 {
			obs.Candidate = r.Pred
			runs = append(runs, 1)
			continue
		}
		prev := mt.Reports[i-1]
		switch {
		case prev.Succ == r.Observer:
			// Adjacent compromised nodes: the run continues. Cross-check
			// the complementary pointer.
			if r.Pred != prev.Observer {
				return Observation{}, fmt.Errorf("%w: run linkage broken between %v and %v",
					ErrCorruptTrace, prev.Observer, r.Observer)
			}
			runs[len(runs)-1]++
		case prev.Succ == r.Pred:
			// One uncompromised witness bridges the runs.
			runs = append(runs, 1)
			gaps = append(gaps, events.GapOne)
			obs.Witnessed[r.Pred] = true
		default:
			// At least two hidden nodes: both endpoints witnessed.
			runs = append(runs, 1)
			gaps = append(gaps, events.GapWide)
			obs.Witnessed[prev.Succ] = true
			obs.Witnessed[r.Pred] = true
		}
	}
	last := mt.Reports[len(mt.Reports)-1]
	var tail events.TailFlag
	switch {
	case last.Succ == trace.Receiver:
		tail = events.TailZero
	case !receiver:
		// Without the receiver's report only "last run forwarded straight
		// to the receiver" (TailZero above) is distinguishable; any other
		// tail collapses into TailUnobserved, with the run's successor as
		// its single witnessed identity.
		tail = events.TailUnobserved
		obs.Witnessed[last.Succ] = true
	case last.Succ == mt.ReceiverPred:
		tail = events.TailOne
		obs.Witnessed[last.Succ] = true
	default:
		tail = events.TailWide
		obs.Witnessed[last.Succ] = true
		obs.Witnessed[mt.ReceiverPred] = true
	}
	obs.Witnessed[obs.Candidate] = true
	obs.Class = events.Class{Runs: runs, Gaps: gaps, Tail: tail}
	if a.Compromised(obs.Candidate) {
		// The predecessor of the first run is one of the adversary's own
		// nodes yet it filed no relay report for this message: it must be
		// the originator (local-eavesdropper case).
		obs.Identified = true
	}
	return obs, nil
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
	// Class is the structural signature used for inference.
	Class events.Class
}

// Posterior runs the full inference pipeline for one message trace.
func (a *Analyst) Posterior(mt *trace.MessageTrace) (Posterior, error) {
	obs, err := a.Classify(mt)
	if err != nil {
		return Posterior{}, err
	}
	n := a.engine.N()
	if obs.Identified {
		post := Posterior{
			P:         make([]float64, n),
			Alpha:     1,
			Candidate: obs.Candidate,
			Class:     obs.Class,
		}
		post.P[obs.Candidate] = 1
		return post, nil
	}
	st, err := a.stats.StatsFor(obs.Class)
	if err != nil {
		return Posterior{}, err
	}
	// Slab candidates: nodes that are neither compromised, nor witnessed,
	// nor the spike candidate.
	var slab []trace.NodeID
	for v := 0; v < n; v++ {
		id := trace.NodeID(v)
		if a.Compromised(id) || obs.Witnessed[id] || id == obs.Candidate {
			continue
		}
		slab = append(slab, id)
	}
	if len(slab) != st.Rest {
		return Posterior{}, fmt.Errorf("%w: %d slab candidates reconstructed, engine expects %d",
			ErrCorruptTrace, len(slab), st.Rest)
	}
	post := Posterior{
		P:         make([]float64, n),
		Alpha:     st.Alpha,
		Candidate: obs.Candidate,
		Class:     obs.Class,
	}
	if int(obs.Candidate) >= 0 && int(obs.Candidate) < n {
		post.P[obs.Candidate] = st.Alpha
	}
	if len(slab) > 0 {
		share := (1 - st.Alpha) / float64(len(slab))
		for _, id := range slab {
			post.P[id] = share
		}
	}
	post.H = entropy.Bits(post.P)
	return post, nil
}

// Entropy returns the posterior entropy (bits) of one message trace
// without materializing the N-entry posterior vector: it classifies the
// trace, looks up the class statistics, and cross-checks the slab count
// arithmetically. Cost is O(reports) rather than O(N), which is what makes
// adversarial analysis of million-node testbed runs affordable. The value
// equals Posterior(mt).H up to floating-point association order.
func (a *Analyst) Entropy(mt *trace.MessageTrace) (float64, error) {
	obs, err := a.Classify(mt)
	if err != nil {
		return 0, err
	}
	if obs.Identified {
		return 0, nil
	}
	st, err := a.stats.StatsFor(obs.Class)
	if err != nil {
		return 0, err
	}
	// Witnessed holds the observed identities (the candidate included),
	// which together with the compromised set are exactly the nodes
	// Posterior excludes from the slab — so the expected slab size follows
	// by counting. A partial trace's lost-link target can itself be
	// compromised, so only honest witnesses shrink the slab further. The
	// bitset is indexed inline: a call inside a map range would make the
	// loop order-sensitive to anonlint's detrand.
	w := 0
	for id := range obs.Witnessed {
		if i := uint(id) / 64; i >= uint(len(a.compBits)) || a.compBits[i]&(1<<(uint(id)%64)) == 0 {
			w++
		}
	}
	if rest := a.engine.N() - a.engine.C() - w; rest != st.Rest {
		return 0, fmt.Errorf("%w: %d slab candidates reconstructed, engine expects %d",
			ErrCorruptTrace, rest, st.Rest)
	}
	return st.H, nil
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
