package adversary

// The accumulation attack of Wright, Adler, Levine and Shields (NDSS
// 2002), cited as [23] by Guan et al.: when one initiator talks to one
// receiver over many rounds, each round's rerouting path leaks a little,
// and the adversary multiplies the per-round posteriors. The Accumulator
// below is the engine-exact version of that attack; the scenario layer
// drives it from every backend (the exact engine replays synthesized
// traces, the Monte-Carlo estimator folds sampled sessions, the testbed
// feeds it collected tuple streams), and package degrade re-exports it for
// compatibility.

import (
	"errors"
	"fmt"
	"math"

	"anonmix/internal/entropy"
	"anonmix/internal/trace"
)

// ErrNoObservations reports a query on an accumulator that has seen
// nothing yet.
var ErrNoObservations = errors.New("adversary: no observations accumulated")

// Accumulator combines per-message sender posteriors across rounds.
// It is not safe for concurrent use.
//
// Every round's posterior is a spike on one candidate plus a uniform slab
// over the remaining honest nodes, so the joint log-posterior is one
// shared value plus a few exceptions, and the accumulator stores it in
// that form: base is the log value of every slab node, the compromised
// set leaves the slab through the single compElim flag, and each node
// that a fold eliminated or made a spike carrier has a mark byte, a place
// in touched, and (while its value is finite) an entry in cands. A fold,
// a snapshot, and a Reset therefore cost O(witnesses + candidates)
// whatever N is. Each node's log value is the same IEEE sum the dense
// vector held; only the snapshot's sums associate differently.
type Accumulator struct {
	analyst *Analyst
	// checked is the last foreign analyst FoldObservation verified to
	// share the accumulator's compromised set.
	checked *Analyst
	rounds  int

	mark    []uint8        // per node: markComp, plus markDead or markCand
	touched []trace.NodeID // nodes with markDead or markCand set
	cands   []candidate    // nodes with markCand: their own finite values

	base        float64 // log value shared by every slab node
	slab        int     // nodes whose value is base
	compElim    bool    // the compromised set is eliminated (−∞)
	compTouched int     // compromised nodes with markDead or markCand set
	compPrefix  int     // length of the compromised prefix [0, compPrefix)
	first       int     // no slab node has a lower index

	// Initial backing of cands and touched, so the first sessions of a
	// fresh accumulator do not grow them.
	candBuf  [16]candidate
	touchBuf [32]trace.NodeID
}

// candidate is a node whose log value left the shared slab value.
type candidate struct {
	id trace.NodeID
	lp float64
}

// Mark bits. markComp is static (set at construction); the session bits
// are cleared by Reset through the touched list.
const (
	markComp uint8 = 1 << iota // compromised under the accumulator's analyst
	markDead                   // eliminated: log value −∞
	markCand                   // own value, held in cands
)

// NewAccumulator returns an accumulator over the analyst's system.
func NewAccumulator(a *Analyst) (*Accumulator, error) {
	if a == nil {
		return nil, fmt.Errorf("%w: nil analyst", ErrBadConfig)
	}
	acc := &Accumulator{analyst: a, mark: make([]uint8, a.engine.N())}
	for _, id := range a.compromised {
		acc.mark[id] = markComp
	}
	for acc.compPrefix < len(acc.mark) && acc.mark[acc.compPrefix] == markComp {
		acc.compPrefix++
	}
	acc.cands = acc.candBuf[:0]
	acc.touched = acc.touchBuf[:0]
	acc.Reset()
	return acc, nil
}

// Observe folds one message trace into the running posterior. Because the
// per-round prior is uniform, multiplying round posteriors (adding logs)
// yields the correct joint posterior up to normalization. It is
// ObserveScratch with a throwaway Scratch.
func (acc *Accumulator) Observe(mt *trace.MessageTrace) error {
	var sc Scratch
	return acc.ObserveScratch(mt, &sc)
}

// Rounds returns the number of observations folded in.
func (acc *Accumulator) Rounds() int { return acc.rounds }

// Posterior returns the normalized joint posterior over the N nodes.
func (acc *Accumulator) Posterior() ([]float64, error) {
	if acc.rounds == 0 {
		return nil, ErrNoObservations
	}
	out := make([]float64, len(acc.mark))
	for i, m := range acc.mark {
		if m&markDead != 0 || (acc.compElim && m&(markComp|markCand) == markComp) {
			out[i] = math.Inf(-1)
		} else {
			out[i] = acc.base
		}
	}
	for _, c := range acc.cands {
		out[c.id] = c.lp
	}
	if err := normalizeLog(out, out); err != nil {
		return nil, err
	}
	return out, nil
}

// normalizeLog exponentiates and normalizes a log-posterior into out
// (max-subtracted for stability; out may alias logPost). Shared by the
// static and the phased accumulator.
func normalizeLog(logPost, out []float64) error {
	maxLog := math.Inf(-1)
	for _, lp := range logPost {
		if lp > maxLog {
			maxLog = lp
		}
	}
	if math.IsInf(maxLog, -1) {
		return fmt.Errorf("%w: joint posterior vanished (inconsistent observations)", ErrCorruptTrace)
	}
	var sum float64
	for i, lp := range logPost {
		out[i] = math.Exp(lp - maxLog)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return nil
}

// Entropy returns the Shannon entropy (bits) of the joint posterior —
// the sender's remaining anonymity after Rounds messages.
func (acc *Accumulator) Entropy() (float64, error) {
	p, err := acc.Posterior()
	if err != nil {
		return 0, err
	}
	return entropy.Bits(p), nil
}

// Top returns the argmax node of the joint posterior and its probability.
func (acc *Accumulator) Top() (trace.NodeID, float64, error) {
	p, err := acc.Posterior()
	if err != nil {
		return 0, 0, err
	}
	best, arg := -1.0, 0
	for i, v := range p {
		if v > best {
			best, arg = v, i
		}
	}
	return trace.NodeID(arg), best, nil
}

// Snapshot returns the joint posterior's entropy, argmax node, and argmax
// mass in one pass — the per-round query of a degradation session, which
// would otherwise normalize the posterior twice (Entropy + Top).
func (acc *Accumulator) Snapshot() (h float64, top trace.NodeID, mass float64, err error) {
	p, err := acc.Posterior()
	if err != nil {
		return 0, 0, 0, err
	}
	best, arg := -1.0, 0
	for i, v := range p {
		if v > best {
			best, arg = v, i
		}
	}
	return entropy.Bits(p), trace.NodeID(arg), best, nil
}

// logValue returns node id's current joint log value.
func (acc *Accumulator) logValue(id trace.NodeID) float64 {
	m := acc.mark[id]
	switch {
	case m&markDead != 0:
		return math.Inf(-1)
	case m&markCand != 0:
		return acc.cands[acc.candIndex(id)].lp
	case m&markComp != 0 && acc.compElim:
		return math.Inf(-1)
	}
	return acc.base
}

// candIndex returns id's position in cands; id must carry markCand.
func (acc *Accumulator) candIndex(id trace.NodeID) int {
	i := 0
	for acc.cands[i].id != id {
		i++
	}
	return i
}

// detach takes a node in the slab state (mark m, no session bit) out of
// the slab count and records it for Reset.
func (acc *Accumulator) detach(id trace.NodeID, m uint8) {
	if m&markComp == 0 || !acc.compElim {
		acc.slab--
	}
	if m&markComp != 0 {
		acc.compTouched++
	}
	acc.touched = append(acc.touched, id)
}

// kill sets node id's log value to −∞.
func (acc *Accumulator) kill(id trace.NodeID) {
	m := acc.mark[id]
	switch {
	case m&markDead != 0:
		return
	case m&markCand != 0:
		i, last := acc.candIndex(id), len(acc.cands)-1
		acc.cands[i] = acc.cands[last]
		acc.cands = acc.cands[:last]
	default:
		acc.detach(id, m)
	}
	acc.mark[id] = m&markComp | markDead
}

// setValue sets node id's log value to lp.
func (acc *Accumulator) setValue(id trace.NodeID, lp float64) {
	if math.IsInf(lp, -1) {
		acc.kill(id)
		return
	}
	m := acc.mark[id]
	if m&markCand != 0 {
		acc.cands[acc.candIndex(id)].lp = lp
		return
	}
	if m&markDead == 0 {
		acc.detach(id, m)
	}
	acc.mark[id] = m&markComp | markCand
	acc.cands = append(acc.cands, candidate{id: id, lp: lp})
}

// addAll adds logShare to every node's log value (−∞ eliminates all).
func (acc *Accumulator) addAll(logShare float64) {
	if math.IsInf(logShare, -1) {
		acc.base = logShare
		for _, c := range acc.cands {
			acc.mark[c.id] = acc.mark[c.id]&markComp | markDead
		}
		acc.cands = acc.cands[:0]
		return
	}
	acc.base += logShare
	for i := range acc.cands {
		acc.cands[i].lp += logShare
	}
}

// eliminateCompromised sets every compromised node's log value to −∞: the
// slab's through the flag, and any compromised spike carrier's (one an
// identifying fold kept) directly.
func (acc *Accumulator) eliminateCompromised() {
	if !acc.compElim {
		acc.compElim = true
		acc.slab -= len(acc.analyst.compromised) - acc.compTouched
	}
	for i := len(acc.cands) - 1; i >= 0; i-- {
		if id := acc.cands[i].id; acc.mark[id]&markComp != 0 {
			acc.kill(id)
		}
	}
}

// identify keeps node id's log value and eliminates every other node.
func (acc *Accumulator) identify(id trace.NodeID) {
	lp := acc.logValue(id)
	acc.addAll(math.Inf(-1))
	acc.setValue(id, lp)
}

// firstSlab returns the lowest-index slab node; the slab must be
// non-empty. Nodes only ever leave the slab between Resets, so the
// cursor only moves forward and the scan is O(1) amortized.
func (acc *Accumulator) firstSlab() trace.NodeID {
	out := markDead | markCand
	if acc.compElim {
		out |= markComp
		acc.first = max(acc.first, acc.compPrefix)
	}
	for acc.mark[acc.first]&out != 0 {
		acc.first++
	}
	return trace.NodeID(acc.first)
}
