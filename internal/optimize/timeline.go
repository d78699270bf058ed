package optimize

// Epoch-aware optimization: the §5.4 design problem lifted to a dynamic
// population. A timeline of epochs — each a (N_e, C_e) system carrying a
// share w_e of the traffic — admits two defender policies: per-epoch
// re-optimizes the length distribution whenever the population drifts;
// joint commits to one distribution maximizing the traffic-weighted blend
// Σ w_e·H*_e, a concave objective whose evaluator is the epochs' bucket
// lists concatenated. MaximizeTimeline solves both with Maximize's solver,
// each solve certified to 1e-9 bits, so per-epoch upper-bounds joint to
// within those gaps; figures.EpochOptimizerSweep charts both against the
// static baseline. The epochs' engines may come from scenario.Engine's
// delta cache, events.Engine.Neighbor chains or events.New alike: an
// engine's Weights depend only on its configuration.

import (
	"fmt"
	"math"

	"anonmix/internal/dist"
	"anonmix/internal/events"
)

// EpochProblem is one epoch of a TimelineProblem.
type EpochProblem struct {
	// Engine evaluates H*_e for the epoch's (N_e, C_e) system.
	Engine *events.Engine
	// Weight is the epoch's share of the timeline's traffic. Weights are
	// normalized to sum to 1; all-zero weights mean equal shares.
	Weight float64
}

// TimelineProblem describes the epoch-aware design problem: one support
// and optional mean constraint (shared by every epoch — the defender picks
// from one family of distributions), and the epochs to optimize over.
type TimelineProblem struct {
	// Epochs is the population trajectory with traffic weights.
	Epochs []EpochProblem
	// Lo and Hi bound the support (0 ≤ Lo ≤ Hi ≤ min_e N_e − 1).
	Lo, Hi int
	// Mean, when not NaN, constrains the expected path length.
	Mean float64
}

// TimelineResult is the outcome of a MaximizeTimeline run.
type TimelineResult struct {
	// PerEpoch holds each epoch's re-optimized distribution and its
	// epoch-local H*_e.
	PerEpoch []Result
	// PerEpochH is the traffic-weighted blend Σ w_e·PerEpoch[e].H — the
	// anonymity a defender re-optimizing every epoch achieves.
	PerEpochH float64
	// Joint is the single-distribution solution; Joint.H is its blended
	// objective Σ w_e·H*_e(Joint.Dist).
	Joint Result
}

// normalWeights validates the problem and returns the normalized epoch
// weights.
func (p TimelineProblem) normalWeights() ([]float64, error) {
	if len(p.Epochs) == 0 {
		return nil, fmt.Errorf("%w: timeline has no epochs", ErrBadProblem)
	}
	var sum float64
	for i, ep := range p.Epochs {
		if ep.Engine == nil {
			return nil, fmt.Errorf("%w: epoch %d has a nil engine", ErrBadProblem, i)
		}
		if ep.Weight < 0 || math.IsNaN(ep.Weight) || math.IsInf(ep.Weight, 0) {
			return nil, fmt.Errorf("%w: epoch %d has weight %v", ErrBadProblem, i, ep.Weight)
		}
		if err := p.epochProblem(i).validate(); err != nil {
			return nil, fmt.Errorf("epoch %d: %w", i, err)
		}
		sum += ep.Weight
	}
	w := make([]float64, len(p.Epochs))
	for i := range w {
		if sum > 0 {
			w[i] = p.Epochs[i].Weight / sum
		} else {
			w[i] = 1 / float64(len(w))
		}
	}
	return w, nil
}

// epochProblem is the static problem of one epoch.
func (p TimelineProblem) epochProblem(i int) Problem {
	return Problem{Engine: p.Epochs[i].Engine, Lo: p.Lo, Hi: p.Hi, Mean: p.Mean}
}

// MaximizeTimeline solves the per-epoch and joint design problems. The
// epochs share the support and the mean constraint, so epoch e > 0 starts
// from epoch e−1's optimum and the joint solve from the last epoch's; the
// joint evaluator scales each epoch's bucket counts by w_e. Every solve is
// serial, so results do not depend on the pool width.
func MaximizeTimeline(p TimelineProblem, opts ...Option) (TimelineResult, error) {
	w, err := p.normalWeights()
	if err != nil {
		return TimelineResult{}, err
	}
	cfg := newConfig(opts)
	res := TimelineResult{PerEpoch: make([]Result, len(p.Epochs))}
	var joint evaluator
	var warm []float64
	for i := range p.Epochs {
		ep := p.epochProblem(i)
		ev, err := newEvaluator(ep.Engine, p.Lo, p.Hi, 1)
		if err != nil {
			return TimelineResult{}, err
		}
		best, err := ep.solve(ev, warm, cfg)
		if err != nil {
			return TimelineResult{}, fmt.Errorf("epoch %d: %w", i, err)
		}
		res.PerEpoch[i] = best
		res.PerEpochH += w[i] * best.H
		warm = best.Dist.Mass
		if w[i] > 0 {
			for _, cw := range ev {
				cw.Count *= w[i]
				joint = append(joint, cw)
			}
		}
	}
	if res.Joint, err = p.epochProblem(0).solve(joint, warm, cfg); err != nil {
		return TimelineResult{}, fmt.Errorf("joint: %w", err)
	}
	return res, nil
}

// EvaluateTimeline returns the traffic-weighted blend Σ w_e·H*_e(d) of one
// distribution across the timeline's epochs — the yardstick that puts a
// static design, the joint optimum, and per-epoch re-optimization on one
// scale.
func EvaluateTimeline(p TimelineProblem, d dist.Length) (float64, error) {
	w, err := p.normalWeights()
	if err != nil {
		return 0, err
	}
	var h float64
	for i, ep := range p.Epochs {
		he, err := ep.Engine.AnonymityDegree(d)
		if err != nil {
			return 0, fmt.Errorf("epoch %d: %w", i, err)
		}
		h += w[i] * he
	}
	return h, nil
}
