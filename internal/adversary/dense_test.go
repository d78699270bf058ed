package adversary_test

import (
	"math"

	"anonmix/internal/adversary"
	"anonmix/internal/trace"
)

// denseAccumulator is the reference joint posterior the spike/slab
// Accumulator must reproduce: one log value per node of the union space,
// folded from each round's materialized Analyst.Posterior vector, and
// snapshotted by a two-pass sweep over all the values.
type denseAccumulator struct {
	logPost []float64
	rounds  int
}

func newDenseAccumulator(n int) *denseAccumulator {
	return &denseAccumulator{logPost: make([]float64, n)}
}

func (d *denseAccumulator) reset() {
	for i := range d.logPost {
		d.logPost[i] = 0
	}
	d.rounds = 0
}

// fold multiplies a posterior vector into the joint: zero mass eliminates
// a node outright.
func (d *denseAccumulator) fold(post []float64) {
	for i, p := range post {
		if p <= 0 {
			d.logPost[i] = math.Inf(-1)
			continue
		}
		d.logPost[i] += math.Log(p)
	}
	d.rounds++
}

// observe folds analyst a's posterior of mt; on error nothing is folded.
func (d *denseAccumulator) observe(a *adversary.Analyst, mt *trace.MessageTrace) error {
	return d.observePhase(a, mt, nil)
}

// observePhase is the dense phased fold: it folds analyst a's posterior
// of mt, recorded in a phase whose dense node i is union node live[i]
// (nil for the identity), and eliminates every union node absent from the
// phase. On error nothing is folded.
func (d *denseAccumulator) observePhase(a *adversary.Analyst, mt *trace.MessageTrace, live []trace.NodeID) error {
	post, err := a.Posterior(mt)
	if err != nil {
		return err
	}
	if live == nil {
		d.fold(post.P)
		return nil
	}
	union := make([]float64, len(d.logPost))
	for i, p := range post.P {
		union[live[i]] = p
	}
	d.fold(union)
	return nil
}

// posterior returns the normalized joint posterior.
func (d *denseAccumulator) posterior() ([]float64, error) {
	if d.rounds == 0 {
		return nil, adversary.ErrNoObservations
	}
	maxLog := math.Inf(-1)
	for _, lp := range d.logPost {
		maxLog = max(maxLog, lp)
	}
	if math.IsInf(maxLog, -1) {
		return nil, adversary.ErrCorruptTrace
	}
	out := make([]float64, len(d.logPost))
	var sum float64
	for i, lp := range d.logPost {
		out[i] = math.Exp(lp - maxLog)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out, nil
}

// snapshot returns the entropy (bits), lowest-index argmax, and argmax
// mass of the normalized joint.
func (d *denseAccumulator) snapshot() (h float64, top trace.NodeID, mass float64, err error) {
	if d.rounds == 0 {
		return 0, 0, 0, adversary.ErrNoObservations
	}
	maxLog := math.Inf(-1)
	arg := 0
	for i, lp := range d.logPost {
		if lp > maxLog {
			maxLog, arg = lp, i
		}
	}
	if math.IsInf(maxLog, -1) {
		return 0, 0, 0, adversary.ErrCorruptTrace
	}
	var sum, wsum float64
	for _, lp := range d.logPost {
		if math.IsInf(lp, -1) {
			continue
		}
		e := math.Exp(lp - maxLog)
		sum += e
		wsum += e * (lp - maxLog)
	}
	h = (math.Log(sum) - wsum/sum) / math.Ln2
	if h < 0 {
		h = 0
	}
	return h, trace.NodeID(arg), 1 / sum, nil
}
