package adversary

// The zero-allocation analysis fast path. Classify and Posterior allocate
// a map, two class slices, and an N-vector per message — fine for
// one-off queries, ruinous inside the estimators' trial loops, which fold
// tens of thousands of rounds per benchmark op. The Scratch arena plus the
// *Scratch methods below compute the same classification, the same
// log-posterior fold, and the same snapshot quantities into reusable
// buffers. Each worker goroutine owns one Scratch; none of this is safe
// for concurrent use.

import (
	"fmt"
	"math"

	"anonmix/internal/events"
	"anonmix/internal/trace"
)

// Scratch holds the reusable buffers of one worker's analysis loop.
type Scratch struct {
	witnessed []trace.NodeID
	runs      []int
	gaps      []events.GapFlag
	observers []trace.NodeID
}

// ObservationView is the scratch-backed equivalent of Observation: the
// Witnessed set is a deduplicated slice and, like the Class slices, points
// into the Scratch — valid only until the next *Scratch call.
type ObservationView struct {
	// Class is the structural signature fed to the Bayesian engine.
	Class events.Class
	// Candidate is the node carrying the posterior spike.
	Candidate trace.NodeID
	// Witnessed lists the distinct observed uncompromised identities
	// (candidate included), matching the key set of Observation.Witnessed.
	Witnessed []trace.NodeID
	// Identified marks outright deanonymization.
	Identified bool
}

// witnessedHas reports membership in the deduplicated witnessed slice; the
// set is at most a few entries (junction and tail witnesses), so a linear
// scan beats any hashed structure.
func (sc *Scratch) witnessedHas(id trace.NodeID) bool {
	for _, w := range sc.witnessed {
		if w == id {
			return true
		}
	}
	return false
}

func (sc *Scratch) addWitness(id trace.NodeID) {
	if !sc.witnessedHas(id) {
		sc.witnessed = append(sc.witnessed, id)
	}
}

// ClassifyScratch is Classify without allocation: same validation, same
// class reconstruction, same witness set (as a slice), into sc's buffers.
func (a *Analyst) ClassifyScratch(mt *trace.MessageTrace, sc *Scratch) (ObservationView, error) {
	if mt == nil {
		return ObservationView{}, fmt.Errorf("%w: nil trace", ErrCorruptTrace)
	}
	receiver := a.engine.ReceiverCompromised()
	if receiver && !mt.ReceiverSeen {
		return ObservationView{}, trace.ErrNoReceiverReport
	}
	sc.witnessed = sc.witnessed[:0]
	sc.runs = sc.runs[:0]
	sc.gaps = sc.gaps[:0]
	sc.observers = sc.observers[:0]
	var obs ObservationView
	if len(mt.Reports) == 0 {
		if !receiver {
			obs.Candidate = trace.Receiver
			return obs, nil
		}
		obs.Candidate = mt.ReceiverPred
		sc.addWitness(mt.ReceiverPred)
		obs.Witnessed = sc.witnessed
		obs.Identified = a.Compromised(mt.ReceiverPred)
		return obs, nil
	}

	for i := range mt.Reports {
		r := &mt.Reports[i]
		if !a.Compromised(r.Observer) {
			return ObservationView{}, fmt.Errorf("%w: report from unknown agent %v", ErrCorruptTrace, r.Observer)
		}
		for _, o := range sc.observers {
			if o == r.Observer {
				return ObservationView{}, fmt.Errorf("%w: node %v observed twice (cyclic route?)", ErrModelMismatch, r.Observer)
			}
		}
		sc.observers = append(sc.observers, r.Observer)
		if i == 0 {
			obs.Candidate = r.Pred
			sc.runs = append(sc.runs, 1)
			continue
		}
		prev := &mt.Reports[i-1]
		switch {
		case prev.Succ == r.Observer:
			if r.Pred != prev.Observer {
				return ObservationView{}, fmt.Errorf("%w: run linkage broken between %v and %v",
					ErrCorruptTrace, prev.Observer, r.Observer)
			}
			sc.runs[len(sc.runs)-1]++
		case prev.Succ == r.Pred:
			sc.runs = append(sc.runs, 1)
			sc.gaps = append(sc.gaps, events.GapOne)
			sc.addWitness(r.Pred)
		default:
			sc.runs = append(sc.runs, 1)
			sc.gaps = append(sc.gaps, events.GapWide)
			sc.addWitness(prev.Succ)
			sc.addWitness(r.Pred)
		}
	}
	last := &mt.Reports[len(mt.Reports)-1]
	var tail events.TailFlag
	switch {
	case last.Succ == trace.Receiver:
		tail = events.TailZero
	case !receiver:
		tail = events.TailUnobserved
		sc.addWitness(last.Succ)
	case last.Succ == mt.ReceiverPred:
		tail = events.TailOne
		sc.addWitness(last.Succ)
	default:
		tail = events.TailWide
		sc.addWitness(last.Succ)
		sc.addWitness(mt.ReceiverPred)
	}
	sc.addWitness(obs.Candidate)
	obs.Witnessed = sc.witnessed
	obs.Class = events.Class{Runs: sc.runs, Gaps: sc.gaps, Tail: tail}
	obs.Identified = a.Compromised(obs.Candidate)
	return obs, nil
}

// EntropyScratch is Entropy without allocation: the O(reports) single-shot
// entropy of one message trace, via sc's buffers.
func (a *Analyst) EntropyScratch(mt *trace.MessageTrace, sc *Scratch) (float64, error) {
	obs, err := a.ClassifyScratch(mt, sc)
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
	if rest := a.engine.N() - a.engine.C() - a.honestWitnessed(obs.Witnessed); rest != st.Rest {
		return 0, fmt.Errorf("%w: %d slab candidates reconstructed, engine expects %d",
			ErrCorruptTrace, rest, st.Rest)
	}
	return st.H, nil
}

// honestWitnessed counts the witnessed identities outside the compromised
// set — the ones that shrink the slab beyond the adversary's own nodes. A
// complete trace never witnesses a compromised node (it would have filed a
// report), but a partial trace's lost-link target can be compromised: the
// transmitter names the node it was sending toward when the message was
// dropped. Posterior's set-difference slab construction handles the overlap
// implicitly; the arithmetic cross-checks must discount it explicitly.
func (a *Analyst) honestWitnessed(witnessed []trace.NodeID) int {
	w := 0
	for _, id := range witnessed {
		if !a.Compromised(id) {
			w++
		}
	}
	return w
}

// Reset rewinds the accumulator to the uniform prior so session loops can
// reuse one allocation across sessions. It costs O(nodes touched since the
// last Reset).
func (acc *Accumulator) Reset() {
	for _, id := range acc.touched {
		acc.mark[id] &= markComp
	}
	acc.touched = acc.touched[:0]
	acc.cands = acc.cands[:0]
	acc.base = 0
	acc.slab = len(acc.mark)
	acc.compElim = false
	acc.compTouched = 0
	acc.first = 0
	acc.rounds = 0
}

// ObserveScratch folds one message trace into the running posterior
// without materializing the intermediate Posterior vector. The fold is
// term-for-term the one the per-round Posterior implies: the spike
// candidate accumulates log α, slab members log((1−α)/rest), and
// compromised, witnessed, and zero-mass nodes are eliminated. On error the
// accumulator is unchanged.
func (acc *Accumulator) ObserveScratch(mt *trace.MessageTrace, sc *Scratch) error {
	return acc.foldObservation(acc.analyst, mt, sc)
}

// FoldObservation folds the posterior a second analyst derives from mt,
// used by the reliability layer to fold the uncompromised-receiver
// analysis of failed delivery attempts. The analyst must span the
// accumulator's N nodes and share its compromised set (checked once per
// analyst); otherwise the fold fails with ErrBadConfig.
func (acc *Accumulator) FoldObservation(a *Analyst, mt *trace.MessageTrace, sc *Scratch) error {
	if a == nil {
		return fmt.Errorf("%w: nil analyst", ErrBadConfig)
	}
	if a.engine.N() != len(acc.mark) {
		return fmt.Errorf("%w: analyst over %d nodes, accumulator over %d",
			ErrBadConfig, a.engine.N(), len(acc.mark))
	}
	if a != acc.analyst && a != acc.checked {
		if !acc.sharesCompromised(a) {
			return fmt.Errorf("%w: analyst's compromised set differs from the accumulator's", ErrBadConfig)
		}
		acc.checked = a
	}
	return acc.foldObservation(a, mt, sc)
}

// sharesCompromised reports whether a's compromised set is the
// accumulator's.
func (acc *Accumulator) sharesCompromised(a *Analyst) bool {
	if len(a.compromised) != len(acc.analyst.compromised) {
		return false
	}
	for _, id := range a.compromised {
		if acc.mark[id]&markComp == 0 {
			return false
		}
	}
	return true
}

// foldObservation classifies mt under analyst a and folds the resulting
// spike/slab posterior into the joint log-posterior.
func (acc *Accumulator) foldObservation(a *Analyst, mt *trace.MessageTrace, sc *Scratch) error {
	obs, err := a.ClassifyScratch(mt, sc)
	if err != nil {
		return err
	}
	if obs.Identified {
		acc.identify(obs.Candidate)
		acc.rounds++
		return nil
	}
	st, err := a.stats.StatsFor(obs.Class)
	if err != nil {
		return err
	}
	return acc.fold(a, obs.Candidate, obs.Witnessed, st.Alpha, st.Rest)
}

// fold folds one round's spike/slab posterior under analyst a — mass
// alpha on candidate, the rest shared by rest slab nodes — in the order
// the dense fold applied it: every node adds the slab share, then the
// compromised and witnessed nodes drop to −∞, then the candidate takes
// its old value plus log α. The witnesses are eliminated in list order.
// It first cross-checks rest against the witnesses and leaves the
// accumulator unchanged when they disagree.
func (acc *Accumulator) fold(a *Analyst, candidate trace.NodeID, witnessed []trace.NodeID, alpha float64, rest int) error {
	n := a.engine.N()
	if r := n - a.engine.C() - a.honestWitnessed(witnessed); r != rest {
		return fmt.Errorf("%w: %d slab candidates reconstructed, engine expects %d",
			ErrCorruptTrace, r, rest)
	}
	candInRange := int(candidate) >= 0 && int(candidate) < n
	var candOld float64
	if candInRange {
		candOld = acc.logValue(candidate)
	}
	logShare := math.Inf(-1)
	if rest > 0 {
		if share := (1 - alpha) / float64(rest); share > 0 {
			logShare = math.Log(share)
		}
	}
	acc.addAll(logShare)
	acc.eliminateCompromised()
	for _, w := range witnessed {
		if w != candidate && int(w) >= 0 && int(w) < n {
			acc.kill(w)
		}
	}
	if candInRange {
		if alpha > 0 {
			acc.setValue(candidate, candOld+math.Log(alpha))
		} else {
			acc.kill(candidate)
		}
	}
	acc.rounds++
	return nil
}

// SnapshotFast returns the joint posterior's entropy (bits), argmax node,
// and argmax mass without materializing the normalized vector. With
// m = max log-posterior, S = Σ exp(lᵢ−m), and W = Σ exp(lᵢ−m)·(lᵢ−m), the
// entropy is (ln S − W/S)/ln 2 and the argmax mass is 1/S; the slab's
// share of both sums is one term times its node count. The argmax is the
// lowest-index node of maximal value, as in Snapshot; the values agree
// with Snapshot up to floating-point association order.
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

// snapshotLog computes the entropy/argmax snapshot of an unnormalized
// log-posterior in two passes and zero allocations.
func snapshotLog(logPost []float64) (h float64, top trace.NodeID, mass float64, err error) {
	maxLog := math.Inf(-1)
	arg := 0
	for i, lp := range logPost {
		if lp > maxLog {
			maxLog, arg = lp, i
		}
	}
	if math.IsInf(maxLog, -1) {
		return 0, 0, 0, fmt.Errorf("%w: joint posterior vanished (inconsistent observations)", ErrCorruptTrace)
	}
	var sum, wsum float64
	for _, lp := range logPost {
		if math.IsInf(lp, -1) {
			continue // exp(−∞)·(−∞) would be 0·−∞ = NaN
		}
		e := math.Exp(lp - maxLog)
		sum += e
		wsum += e * (lp - maxLog)
	}
	h = (math.Log(sum) - wsum/sum) / math.Ln2
	if h < 0 {
		h = 0 // rounding can push a point mass a few ulps negative
	}
	return h, trace.NodeID(arg), 1 / sum, nil
}

// Reset rewinds the phased accumulator to the uniform prior over the union
// space.
func (pa *PhasedAccumulator) Reset() {
	for i := range pa.logPost {
		pa.logPost[i] = 0
	}
	pa.rounds = 0
}

// ObserveScratch is Observe without the intermediate Posterior allocation:
// it validates the live mapping first (so errors leave the accumulator
// unchanged), then applies the same spike/slab fold as the static
// ObserveScratch through the dense→union mapping, and eliminates union
// members absent this phase.
func (pa *PhasedAccumulator) ObserveScratch(a *Analyst, mt *trace.MessageTrace, live []trace.NodeID, sc *Scratch) error {
	if a == nil {
		return fmt.Errorf("%w: nil analyst", ErrBadConfig)
	}
	n := a.Engine().N()
	if len(live) != n {
		return fmt.Errorf("%w: %d live identities for an analyst over %d nodes",
			ErrBadConfig, len(live), n)
	}
	obs, err := a.ClassifyScratch(mt, sc)
	if err != nil {
		return err
	}
	lp := pa.logPost
	for i := range pa.mark {
		pa.mark[i] = false
	}
	for _, g := range live {
		if int(g) < 0 || int(g) >= len(lp) {
			return fmt.Errorf("%w: live identity %v outside union space of %d",
				ErrBadConfig, g, len(lp))
		}
		if pa.mark[g] {
			return fmt.Errorf("%w: union identity %v mapped twice", ErrBadConfig, g)
		}
		pa.mark[g] = true
	}
	candInRange := int(obs.Candidate) >= 0 && int(obs.Candidate) < n
	if obs.Identified {
		cand := live[obs.Candidate]
		for g := range lp {
			if trace.NodeID(g) != cand {
				lp[g] = math.Inf(-1)
			}
		}
		pa.rounds++
		return nil
	}
	st, err := a.stats.StatsFor(obs.Class)
	if err != nil {
		return err
	}
	if rest := n - a.Engine().C() - a.honestWitnessed(obs.Witnessed); rest != st.Rest {
		return fmt.Errorf("%w: %d slab candidates reconstructed, engine expects %d",
			ErrCorruptTrace, rest, st.Rest)
	}
	var candOld float64
	if candInRange {
		candOld = lp[live[obs.Candidate]]
	}
	logShare := math.Inf(-1)
	if st.Rest > 0 {
		if share := (1 - st.Alpha) / float64(st.Rest); share > 0 {
			logShare = math.Log(share)
		}
	}
	if math.IsInf(logShare, -1) {
		for _, g := range live {
			lp[g] = math.Inf(-1)
		}
	} else {
		for _, g := range live {
			lp[g] += logShare
		}
	}
	for _, id := range a.compromised {
		lp[live[id]] = math.Inf(-1)
	}
	for _, w := range obs.Witnessed {
		if w != obs.Candidate && int(w) >= 0 && int(w) < n {
			lp[live[w]] = math.Inf(-1)
		}
	}
	if candInRange {
		if st.Alpha > 0 {
			lp[live[obs.Candidate]] = candOld + math.Log(st.Alpha)
		} else {
			lp[live[obs.Candidate]] = math.Inf(-1)
		}
	}
	for g := range lp {
		if !pa.mark[g] {
			lp[g] = math.Inf(-1)
		}
	}
	pa.rounds++
	return nil
}

// SnapshotFast is Snapshot without materializing the normalized posterior.
func (pa *PhasedAccumulator) SnapshotFast() (h float64, top trace.NodeID, mass float64, err error) {
	if pa.rounds == 0 {
		return 0, 0, 0, ErrNoObservations
	}
	return snapshotLog(pa.logPost)
}
