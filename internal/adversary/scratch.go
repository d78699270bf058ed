package adversary

// The trace route: everything that starts from reports — the testbed's
// collected traces and the partial traces of failed deliveries — reads
// them here into the view the path route (path.go) counts straight from a
// path, and looks the class's shape up in the analyst's statistics table
// like it. Both routes fold through one step, Accumulator.fold, into
// reusable buffers: the Scratch below holds the witnessed identities and
// the observers seen so far, so the steady state allocates nothing. Each
// worker goroutine owns one Scratch; none of this is safe for concurrent
// use.

import (
	"fmt"
	"math"
	"slices"

	"anonmix/internal/events"
	"anonmix/internal/trace"
)

// Scratch holds the reusable buffers of one worker's analysis loop.
type Scratch struct {
	// witnessed lists the distinct identities the last view witnessed, in
	// the order the fold eliminates them.
	witnessed []trace.NodeID
	observers []trace.NodeID
}

// addWitness appends id to the witnessed list unless it is already there;
// the list is at most a few entries (junction and tail witnesses), so a
// linear scan beats any hashed structure.
func (sc *Scratch) addWitness(id trace.NodeID) {
	if !slices.Contains(sc.witnessed, id) {
		sc.witnessed = append(sc.witnessed, id)
	}
}

// classify reads one message trace into its view, with the distinct
// witnesses in sc.witnessed in walkPath's order — junction witnesses in
// report order, then tail witnesses, then the candidate — which the
// fold's elimination order depends on. With a compromised receiver (the
// paper's default) traces missing the receiver report are rejected; with
// an uncompromised-receiver engine the receiver fields of the trace are
// ignored — the adversary does not have them — and the tail is classified
// from run-successor adjacency alone (events.TailUnobserved).
func (a *Analyst) classify(mt *trace.MessageTrace, sc *Scratch) (view, error) {
	if mt == nil {
		return view{}, fmt.Errorf("%w: nil trace", ErrCorruptTrace)
	}
	receiver := a.engine.ReceiverCompromised()
	if receiver && !mt.ReceiverSeen {
		return view{}, trace.ErrNoReceiverReport
	}
	sc.witnessed = sc.witnessed[:0]
	sc.observers = sc.observers[:0]
	var v view
	if len(mt.Reports) == 0 {
		if !receiver {
			// No compromised node on the path and no receiver report: the
			// adversary observes nothing. The posterior is uniform over
			// the uncompromised nodes (the empty class of the
			// uncompromised-receiver engine); there is no candidate.
			v.candidate = trace.Receiver
			return v, nil
		}
		// A compromised relay would have reported; a silent compromised
		// predecessor must be the sender (direct send by one of the
		// adversary's own nodes).
		v.candidate = mt.ReceiverPred
		sc.addWitness(mt.ReceiverPred)
	} else {
		for i := range mt.Reports {
			r := &mt.Reports[i]
			if !a.Compromised(r.Observer) {
				return view{}, fmt.Errorf("%w: report from unknown agent %v", ErrCorruptTrace, r.Observer)
			}
			if slices.Contains(sc.observers, r.Observer) {
				return view{}, fmt.Errorf("%w: node %v observed twice (cyclic route?)", ErrModelMismatch, r.Observer)
			}
			sc.observers = append(sc.observers, r.Observer)
			v.k++
			if i == 0 {
				v.candidate = r.Pred
				continue
			}
			prev := &mt.Reports[i-1]
			switch {
			case prev.Succ == r.Observer:
				// Adjacent compromised nodes: the run continues.
				// Cross-check the complementary pointer.
				if r.Pred != prev.Observer {
					return view{}, fmt.Errorf("%w: run linkage broken between %v and %v",
						ErrCorruptTrace, prev.Observer, r.Observer)
				}
			case prev.Succ == r.Pred:
				// One uncompromised witness bridges the runs.
				v.one++
				sc.addWitness(r.Pred)
			default:
				// At least two hidden nodes: both endpoints witnessed.
				v.wide++
				sc.addWitness(prev.Succ)
				sc.addWitness(r.Pred)
			}
		}
		last := &mt.Reports[len(mt.Reports)-1]
		switch {
		case last.Succ == trace.Receiver:
			v.tail = events.TailZero
		case !receiver:
			// Without the receiver's report only "last run forwarded
			// straight to the receiver" (TailZero above) is
			// distinguishable; any other tail collapses into
			// TailUnobserved, with the run's successor as its single
			// witnessed identity.
			v.tail = events.TailUnobserved
			sc.addWitness(last.Succ)
		case last.Succ == mt.ReceiverPred:
			v.tail = events.TailOne
			sc.addWitness(last.Succ)
		default:
			v.tail = events.TailWide
			sc.addWitness(last.Succ)
			sc.addWitness(mt.ReceiverPred)
		}
		sc.addWitness(v.candidate)
	}
	// Only honest witnesses shrink the slab beyond the adversary's own
	// nodes. A complete trace never witnesses a compromised node (it would
	// have filed a report), but a partial trace's lost-link target can be
	// compromised: the transmitter names the node it was sending toward
	// when the message was dropped. Posterior's set-difference slab
	// handles the overlap implicitly; the arithmetic cross-checks of the
	// slab count discount it here.
	for _, id := range sc.witnessed {
		if !a.Compromised(id) {
			v.witnesses++
		}
	}
	v.identified = a.Compromised(v.candidate)
	return v, nil
}

// EntropyScratch returns the posterior entropy (bits) of one message trace
// without materializing the N-entry posterior vector: it classifies the
// trace into sc's buffers, looks its shape up, and cross-checks the slab
// count against the honest witnesses arithmetically. Cost is O(reports)
// rather than O(N), which is what makes adversarial analysis of
// million-node testbed runs affordable. The value equals Posterior(mt).H
// up to floating-point association order.
func (a *Analyst) EntropyScratch(mt *trace.MessageTrace, sc *Scratch) (float64, error) {
	v, err := a.classify(mt, sc)
	if err != nil {
		return 0, err
	}
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

// slabMismatch reports a view whose witnesses leave r slab nodes where the
// class's statistics expect rest.
func slabMismatch(r, rest int) error {
	return fmt.Errorf("%w: %d slab candidates reconstructed, engine expects %d", ErrCorruptTrace, r, rest)
}

// Reset rewinds the accumulator to the uniform prior, in phase 0, so
// session loops can reuse one allocation across sessions. It costs
// O(nodes touched since the last Reset).
func (acc *Accumulator) Reset() {
	for _, g := range acc.touched {
		acc.mark[g] &= markOut
	}
	for p := range acc.phases {
		acc.phases[p].touched = 0
	}
	acc.touched = acc.touched[:0]
	acc.cands = acc.cands[:0]
	acc.base = 0
	acc.slab = len(acc.mark)
	acc.entered = -1
	acc.first = 0
	acc.rounds = 0
	acc.selectPhase(0)
}

// ObserveScratch folds one message trace, in the selected phase's dense
// node space, into the running posterior without materializing the
// intermediate Posterior vector. The fold is term-for-term the one the
// per-round Posterior implies: the spike candidate accumulates log α,
// slab members log((1−α)/rest), and compromised, witnessed, and
// zero-mass nodes are eliminated, as is every node absent from the
// phase. On error the accumulator is unchanged.
func (acc *Accumulator) ObserveScratch(mt *trace.MessageTrace, sc *Scratch) error {
	return acc.foldObservation(acc.analyst, mt, sc)
}

// FoldObservation folds the posterior a second analyst derives from mt,
// used by the reliability layer to fold the uncompromised-receiver
// analysis of failed delivery attempts. The analyst must span the
// selected phase's nodes and share its compromised set (checked once per
// analyst); otherwise the fold fails with ErrBadConfig.
func (acc *Accumulator) FoldObservation(a *Analyst, mt *trace.MessageTrace, sc *Scratch) error {
	if a == nil {
		return fmt.Errorf("%w: nil analyst", ErrBadConfig)
	}
	if n := acc.analyst.engine.N(); a.engine.N() != n {
		return fmt.Errorf("%w: analyst over %d nodes, accumulator over %d",
			ErrBadConfig, a.engine.N(), n)
	}
	if a != acc.analyst && a != acc.checked {
		if !acc.sharesCompromised(a) {
			return fmt.Errorf("%w: analyst's compromised set differs from the accumulator's", ErrBadConfig)
		}
		acc.checked = a
	}
	return acc.foldObservation(a, mt, sc)
}

// sharesCompromised reports whether a's compromised set is the selected
// phase's.
func (acc *Accumulator) sharesCompromised(a *Analyst) bool {
	if len(a.compromised) != len(acc.analyst.compromised) {
		return false
	}
	for _, id := range a.compromised {
		if !acc.analyst.Compromised(id) {
			return false
		}
	}
	return true
}

// foldObservation classifies mt under analyst a and folds its view.
func (acc *Accumulator) foldObservation(a *Analyst, mt *trace.MessageTrace, sc *Scratch) error {
	v, err := a.classify(mt, sc)
	if err != nil {
		return err
	}
	return acc.fold(a, &v, sc)
}

// fold is the one fold step of both routes: it folds view v of one
// message under analyst a, with v's witnesses in sc.witnessed, into the
// joint log-posterior. An identifying view keeps only its candidate.
// Otherwise the shape's statistics give a spike/slab posterior — mass α
// on the candidate, the rest shared by the slab, in the selected phase's
// dense space — which folds in the order the dense fold applied it: every
// node adds the slab share, then the nodes absent or compromised in the
// phase and the witnessed nodes drop to −∞, then the candidate takes its
// old value plus log α. The witnesses are eliminated in list order. The
// slab count is cross-checked against v's honest witnesses first; on any
// error the accumulator is unchanged.
func (acc *Accumulator) fold(a *Analyst, v *view, sc *Scratch) error {
	if v.identified {
		acc.identify(acc.union(v.candidate))
		return nil
	}
	alpha, rest, _, err := a.stats.ShapeStats(v.k, v.one, v.wide, v.tail)
	if err != nil {
		return err
	}
	n := a.engine.N()
	if r := n - a.engine.C() - v.witnesses; r != rest {
		return slabMismatch(r, rest)
	}
	candidate := v.candidate
	candInRange := int(candidate) >= 0 && int(candidate) < n
	var cand trace.NodeID
	var candOld float64
	if candInRange {
		cand = acc.union(candidate)
		candOld = acc.logValue(cand)
	}
	logShare := math.Inf(-1)
	if rest > 0 {
		if share := (1 - alpha) / float64(rest); share > 0 {
			logShare = math.Log(share)
		}
	}
	acc.addAll(logShare)
	acc.enter()
	for _, w := range sc.witnessed {
		if w != candidate && int(w) >= 0 && int(w) < n {
			acc.kill(acc.union(w))
		}
	}
	if candInRange {
		if alpha > 0 {
			acc.setValue(cand, candOld+math.Log(alpha))
		} else {
			acc.kill(cand)
		}
	}
	acc.rounds++
	acc.phaseRounds++
	return nil
}

// SnapshotFast returns the joint posterior's entropy (bits), argmax node,
// and argmax mass without materializing the normalized vector. With
// m = max log-posterior, S = Σ exp(lᵢ−m), and W = Σ exp(lᵢ−m)·(lᵢ−m), the
// entropy is (ln S − W/S)/ln 2 and the argmax mass is 1/S; the slab's
// share of both sums is one term times its node count. The argmax is the
// lowest-index node of maximal value; the values agree with the entropy,
// argmax and mass of Posterior up to floating-point association order.
func (acc *Accumulator) SnapshotFast() (h float64, top trace.NodeID, mass float64, err error) {
	if acc.rounds == 0 {
		return 0, 0, 0, ErrNoObservations
	}
	slabLive := acc.slab > 0 && !math.IsInf(acc.base, -1)
	maxLog := math.Inf(-1)
	if slabLive {
		maxLog = acc.base
	}
	for _, c := range acc.cands {
		maxLog = max(maxLog, c.lp)
	}
	if math.IsInf(maxLog, -1) {
		return 0, 0, 0, fmt.Errorf("%w: joint posterior vanished (inconsistent observations)", ErrCorruptTrace)
	}
	var sum, wsum float64
	top = trace.Receiver
	if slabLive {
		d := acc.base - maxLog
		k := float64(acc.slab) * math.Exp(d)
		sum, wsum = k, k*d
		if d >= 0 {
			top = acc.firstSlab()
		}
	}
	for _, c := range acc.cands {
		d := c.lp - maxLog
		e := math.Exp(d)
		sum += e
		wsum += e * d
		if d >= 0 && (top == trace.Receiver || c.id < top) {
			top = c.id
		}
	}
	h = (math.Log(sum) - wsum/sum) / math.Ln2
	if h < 0 {
		h = 0 // rounding can push a point mass a few ulps negative
	}
	return h, top, 1 / sum, nil
}
