package adversary

// The accumulation attack of Wright, Adler, Levine and Shields (NDSS
// 2002), cited as [23] by Guan et al.: when one initiator talks to one
// receiver over many rounds, each round's rerouting path leaks a little,
// and the adversary multiplies the per-round posteriors. The Accumulator
// below is the engine-exact version of that attack. The scenario layer's
// session driver folds every degradation session through it: the exact
// and Monte-Carlo backends fold each sampled path (ObservePath), the
// testbed folds collected traces (ObserveScratch), and the reliability
// layer folds partial traces of failed deliveries (FoldObservation).
//
// A session may span the phases of a dynamic population (node churn,
// time-phased compromise), whose rounds each live over that phase's
// population. The accumulator then works over a union identity space:
// every node that exists in any phase has one stable union identity, each
// phase maps its analyst's dense node space onto those identities, and a
// union member absent during an observed round is eliminated outright —
// the adversary knows the session's sender was a live member whenever it
// sent. A static population is one phase whose mapping is the identity.

import (
	"errors"
	"fmt"
	"math"
	"slices"

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
// that form: base is the log value of every slab node; a node absent or
// compromised during a phase leaves the slab when the session's first
// round in that phase folds (the phase is then entered); and each node
// that a fold eliminated or made a spike carrier has a mark byte, a place
// in touched, and (while its value is finite) an entry in cands. A fold,
// entering a phase, a snapshot, and a Reset therefore cost
// O(witnesses + candidates + touched) whatever the union's size. Each
// node's log value is the same IEEE sum a dense vector would hold; only
// the snapshot's sums associate differently.
type Accumulator struct {
	phases []phaseView
	// phase is the selected phase; analyst and live are its fields.
	phase   int
	analyst *Analyst
	live    []trace.NodeID
	// checked is the last foreign analyst FoldObservation verified to
	// share the selected phase's compromised set.
	checked     *Analyst
	rounds      int
	phaseRounds int // rounds folded since the phase was selected

	mark    []uint8        // per union node: markOut, plus markDead or markCand
	outAt   []int32        // per markOut node: its out phase; nil with one phase
	touched []trace.NodeID // nodes with markDead or markCand set
	cands   []candidate    // nodes with markCand: their own finite values

	base    float64 // log value shared by every slab node
	slab    int     // nodes whose value is base
	entered int     // index of the phase last entered (−1: none)
	first   int     // no slab node has a lower index

	// Initial backing of cands, touched and phases, so a fresh
	// accumulator's first sessions do not grow them and a one-phase
	// accumulator allocates only its mark bytes.
	candBuf  [16]candidate
	touchBuf [32]trace.NodeID
	phaseBuf [1]phaseView
}

// phaseView is one phase of an accumulator's session. A node's out phase
// is the first phase in which it is absent or compromised; the node is
// eliminated when that phase is entered.
type phaseView struct {
	analyst *Analyst
	// live[i] is the union identity of the analyst's dense node i; nil
	// for the identity.
	live []trace.NodeID
	// out counts the nodes whose out phase this is; the union's first
	// prefix nodes all have out phases up to this one.
	out, prefix int
	// touched counts, within a session, this phase's out nodes that left
	// the slab before it was entered.
	touched int
}

// candidate is a node whose log value left the shared slab value.
type candidate struct {
	id trace.NodeID
	lp float64
}

// Mark bits. markOut is static (set at construction); the session bits
// are cleared by Reset through the touched list.
const (
	markOut  uint8 = 1 << iota // absent or compromised in some phase
	markDead                   // eliminated: log value −∞
	markCand                   // own value, held in cands
)

// NewAccumulator returns an accumulator over the analyst's system: a
// static population, one phase whose mapping is the identity.
func NewAccumulator(a *Analyst) (*Accumulator, error) {
	if a == nil {
		return nil, fmt.Errorf("%w: nil analyst", ErrBadConfig)
	}
	return NewTimelineAccumulator(a.engine.N(), []*Analyst{a}, [][]trace.NodeID{nil})
}

// NewTimelineAccumulator returns an accumulator for sessions spanning the
// given phases over a union identity space of the given size. Phase p's
// rounds are analyzed by analysts[p] in its dense node space, and live[p]
// lists the union identities of that space's nodes in ascending order
// (nil for the identity, which needs the analyst to span the union). The
// phases are the ones a session folds rounds in: it starts in phase 0 and
// moves on with SetPhase.
func NewTimelineAccumulator(union int, analysts []*Analyst, live [][]trace.NodeID) (*Accumulator, error) {
	if union < 1 || len(analysts) == 0 || len(live) != len(analysts) {
		return nil, fmt.Errorf("%w: %d phases with %d live lists over a union of %d",
			ErrBadConfig, len(analysts), len(live), union)
	}
	acc := &Accumulator{mark: make([]uint8, union)}
	acc.phases = acc.phaseBuf[:0]
	if len(analysts) > 1 {
		acc.phases = make([]phaseView, 0, len(analysts))
		acc.outAt = make([]int32, union)
	}
	out := func(g trace.NodeID, p int) {
		if acc.mark[g] == 0 {
			acc.mark[g] = markOut
			acc.phases[p].out++
			if acc.outAt != nil {
				acc.outAt[g] = int32(p)
			}
		}
	}
	for p, a := range analysts {
		if a == nil {
			return nil, fmt.Errorf("%w: nil analyst for phase %d", ErrBadConfig, p)
		}
		l, n := live[p], a.engine.N()
		acc.phases = append(acc.phases, phaseView{analyst: a, live: l})
		if l == nil {
			if n != union {
				return nil, fmt.Errorf("%w: identity phase %d over %d nodes in a union of %d",
					ErrBadConfig, p, n, union)
			}
			for _, id := range a.compromised {
				out(id, p)
			}
		} else {
			if len(l) != n {
				return nil, fmt.Errorf("%w: %d live identities for an analyst over %d nodes",
					ErrBadConfig, len(l), n)
			}
			next := trace.NodeID(0) // every union node below next is accounted for
			for _, g := range l {
				if g < next || int(g) >= union {
					return nil, fmt.Errorf("%w: live identity %v of phase %d out of order or outside a union of %d",
						ErrBadConfig, g, p, union)
				}
				for ; next < g; next++ {
					out(next, p)
				}
				next = g + 1
			}
			for ; int(next) < union; next++ {
				out(next, p)
			}
			for _, d := range a.compromised {
				out(l[d], p)
			}
		}
	}
	k := 0
	for p := range acc.phases {
		for k < union && acc.mark[k]&markOut != 0 && acc.outPhase(trace.NodeID(k)) <= p {
			k++
		}
		acc.phases[p].prefix = k
	}
	acc.cands = acc.candBuf[:0]
	acc.touched = acc.touchBuf[:0]
	acc.Reset()
	return acc, nil
}

// SetPhase selects the phase the following rounds are folded in. A
// session moves through its phases in order, one at a time, and folds at
// least one round in each before moving on; Reset returns it to phase 0.
func (acc *Accumulator) SetPhase(p int) error {
	switch {
	case p == acc.phase:
		return nil
	case p != acc.phase+1 || p >= len(acc.phases):
		return fmt.Errorf("%w: phase %d selected after phase %d of %d", ErrBadConfig, p, acc.phase, len(acc.phases))
	case acc.phaseRounds == 0:
		return fmt.Errorf("%w: phase %d selected before phase %d folded a round", ErrBadConfig, p, acc.phase)
	}
	acc.selectPhase(p)
	return nil
}

// selectPhase makes phase p the one folds read.
func (acc *Accumulator) selectPhase(p int) {
	if p != acc.phase {
		acc.checked = nil // verified against another phase's compromised set
	}
	acc.phase = p
	acc.analyst = acc.phases[p].analyst
	acc.live = acc.phases[p].live
	acc.phaseRounds = 0
}

// outPhase returns node g's out phase, or len(phases) when it has none.
func (acc *Accumulator) outPhase(g trace.NodeID) int {
	switch {
	case acc.mark[g]&markOut == 0:
		return len(acc.phases)
	case acc.outAt == nil:
		return 0
	}
	return int(acc.outAt[g])
}

// gone reports whether node g, in the slab state with mark m, left the
// slab when its out phase was entered.
func (acc *Accumulator) gone(g trace.NodeID, m uint8) bool {
	return m&markOut != 0 && acc.outPhase(g) <= acc.entered
}

// union maps dense node d of the selected phase to its union identity.
func (acc *Accumulator) union(d trace.NodeID) trace.NodeID {
	if acc.live == nil {
		return d
	}
	return acc.live[d]
}

// outNow reports whether union node g is absent or compromised in the
// selected phase.
func (acc *Accumulator) outNow(g trace.NodeID) bool {
	if acc.outPhase(g) > acc.phase {
		return false
	}
	d := g
	if acc.live != nil {
		i, ok := slices.BinarySearch(acc.live, g)
		if !ok {
			return true
		}
		d = trace.NodeID(i)
	}
	return acc.analyst.Compromised(d)
}

// Rounds returns the number of observations folded in.
func (acc *Accumulator) Rounds() int { return acc.rounds }

// Posterior returns the normalized joint posterior over the union's
// nodes: the per-node view a test compares with a dense reference fold.
// A session's per-round query is SnapshotFast, which materializes nothing.
func (acc *Accumulator) Posterior() ([]float64, error) {
	if acc.rounds == 0 {
		return nil, ErrNoObservations
	}
	out := make([]float64, len(acc.mark))
	for i, m := range acc.mark {
		if m&markDead != 0 || (m&markCand == 0 && acc.gone(trace.NodeID(i), m)) {
			out[i] = math.Inf(-1)
		} else {
			out[i] = acc.base
		}
	}
	for _, c := range acc.cands {
		out[c.id] = c.lp
	}
	maxLog := math.Inf(-1)
	for _, lp := range out {
		maxLog = max(maxLog, lp)
	}
	if math.IsInf(maxLog, -1) {
		return nil, fmt.Errorf("%w: joint posterior vanished (inconsistent observations)", ErrCorruptTrace)
	}
	var sum float64
	for i, lp := range out {
		out[i] = math.Exp(lp - maxLog)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out, nil
}

// logValue returns union node g's current joint log value.
func (acc *Accumulator) logValue(g trace.NodeID) float64 {
	m := acc.mark[g]
	switch {
	case m&markDead != 0:
		return math.Inf(-1)
	case m&markCand != 0:
		return acc.cands[acc.candIndex(g)].lp
	case acc.gone(g, m):
		return math.Inf(-1)
	}
	return acc.base
}

// candIndex returns g's position in cands; g must carry markCand.
func (acc *Accumulator) candIndex(g trace.NodeID) int {
	i := 0
	for acc.cands[i].id != g {
		i++
	}
	return i
}

// detach takes a node in the slab state (mark m, no session bit) out of
// the slab count and records it for Reset.
func (acc *Accumulator) detach(g trace.NodeID, m uint8) {
	if m&markOut == 0 {
		acc.slab--
	} else if p := acc.outPhase(g); p > acc.entered {
		acc.slab--
		acc.phases[p].touched++
	}
	acc.touched = append(acc.touched, g)
}

// kill sets union node g's log value to −∞.
func (acc *Accumulator) kill(g trace.NodeID) {
	m := acc.mark[g]
	switch {
	case m&markDead != 0:
		return
	case m&markCand != 0:
		i, last := acc.candIndex(g), len(acc.cands)-1
		acc.cands[i] = acc.cands[last]
		acc.cands = acc.cands[:last]
	default:
		acc.detach(g, m)
	}
	acc.mark[g] = m&markOut | markDead
}

// setValue sets union node g's log value to lp.
func (acc *Accumulator) setValue(g trace.NodeID, lp float64) {
	if math.IsInf(lp, -1) {
		acc.kill(g)
		return
	}
	m := acc.mark[g]
	if m&markCand != 0 {
		acc.cands[acc.candIndex(g)].lp = lp
		return
	}
	if m&markDead == 0 {
		acc.detach(g, m)
	}
	acc.mark[g] = m&markOut | markCand
	acc.cands = append(acc.cands, candidate{id: g, lp: lp})
}

// addAll adds logShare to every node's log value (−∞ eliminates all).
func (acc *Accumulator) addAll(logShare float64) {
	if math.IsInf(logShare, -1) {
		acc.base = logShare
		for _, c := range acc.cands {
			acc.mark[c.id] = acc.mark[c.id]&markOut | markDead
		}
		acc.cands = acc.cands[:0]
		return
	}
	acc.base += logShare
	for i := range acc.cands {
		acc.cands[i].lp += logShare
	}
}

// enter eliminates every node absent or compromised in the selected
// phase: the slab's by entering the phases up to it, and any spike
// carrier's directly.
func (acc *Accumulator) enter() {
	for acc.entered < acc.phase {
		acc.entered++
		ph := &acc.phases[acc.entered]
		acc.slab -= ph.out - ph.touched
	}
	for i := len(acc.cands) - 1; i >= 0; i-- {
		if g := acc.cands[i].id; acc.mark[g]&markOut != 0 && acc.outNow(g) {
			acc.kill(g)
		}
	}
}

// identify folds a round that identified union node g: it keeps g's log
// value and eliminates every other node.
func (acc *Accumulator) identify(g trace.NodeID) {
	lp := acc.logValue(g)
	acc.addAll(math.Inf(-1))
	acc.setValue(g, lp)
	acc.rounds++
	acc.phaseRounds++
}

// firstSlab returns the lowest-index slab node; the slab must be
// non-empty. Nodes only ever leave the slab between Resets, so the
// cursor only moves forward and the scan is O(1) amortized.
func (acc *Accumulator) firstSlab() trace.NodeID {
	if acc.entered >= 0 {
		acc.first = max(acc.first, acc.phases[acc.entered].prefix)
	}
	for {
		g := trace.NodeID(acc.first)
		if m := acc.mark[g]; m&(markDead|markCand) == 0 && !acc.gone(g, m) {
			return g
		}
		acc.first++
	}
}
