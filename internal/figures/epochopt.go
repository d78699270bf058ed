package figures

// The epoch-optimizer figure: what re-optimizing the path-length
// distribution buys under a drifting population. For each canonical
// dynamic — grow (joins), shrink (leaves), creep (time-phased compromise)
// — a three-epoch Messages timeline is materialized, and three defender
// policies are compared per epoch:
//
//   - static: the optimal distribution for the base (N, C), designed
//     before the timeline starts and never changed;
//   - per-epoch: re-optimized at every epoch (warm-started — the
//     MaximizeTimeline fast path);
//   - joint: one distribution maximizing the traffic-weighted blend of
//     per-epoch H*.
//
// Every Y value is the epoch engine's exact H* of the policy's
// distribution, so the three curves share one scale. The gaps are the
// figure: static decays as the population drifts away from its design
// point (fastest under creep), joint sits between, and per-epoch is the
// upper envelope, to within each epoch's certified gap of 1e-9 bits. The epoch engines come from the scenario cache, so
// consecutive epochs are delta-derived family members.

import (
	"fmt"

	"anonmix/internal/optimize"
	"anonmix/internal/scenario"
)

// epochOptMessages is the per-epoch traffic budget of the canonical
// timelines (equal budgets: the blend weights epochs equally).
const epochOptMessages = 1000

// epochOptTimelines are the three canonical dynamics as single-shot
// Messages timelines, parameterized by the base population and adversary.
func epochOptTimelines(n, c int) []struct {
	name     string
	timeline []scenario.Epoch
} {
	return []struct {
		name     string
		timeline []scenario.Epoch
	}{
		{"grow", []scenario.Epoch{
			{Messages: epochOptMessages},
			{Messages: epochOptMessages, Join: n / 4},
			{Messages: epochOptMessages, Join: n / 4},
		}},
		{"shrink", []scenario.Epoch{
			{Messages: epochOptMessages},
			{Messages: epochOptMessages, Leave: n / 5},
			{Messages: epochOptMessages, Leave: n / 5},
		}},
		{"creep", []scenario.Epoch{
			{Messages: epochOptMessages},
			{Messages: epochOptMessages, Compromise: c},
			{Messages: epochOptMessages, Compromise: c},
		}},
	}
}

// EpochOptimizerSweep regenerates the epoch-optimizer figure: per-epoch
// H* of the static, per-epoch-optimal, and joint-optimal length
// distributions (support [0, hi], free mean) under the grow, shrink, and
// creep dynamics over a base (n, c) system. The output is deterministic at
// any pool width (every solve is serial).
func EpochOptimizerSweep(n, c, hi int) (Figure, error) {
	if hi < 1 {
		return Figure{}, fmt.Errorf("figures: epoch-optimizer support max %d < 1", hi)
	}
	fig := Figure{
		Name: "epoch-optimizer",
		Title: fmt.Sprintf(
			"Static vs per-epoch vs joint optimal path length distributions (N=%d, C=%d, support [0,%d])", n, c, hi),
		XLabel: "epoch",
	}
	// The static baseline: designed once for the base system.
	base, err := scenario.Engine(n, c)
	if err != nil {
		return Figure{}, err
	}
	static, err := optimize.Maximize(optimize.Problem{
		Engine: base, Lo: 0, Hi: hi, Mean: optimize.UnconstrainedMean(),
	})
	if err != nil {
		return Figure{}, fmt.Errorf("figures: epoch-optimizer static solve: %w", err)
	}
	for _, dyn := range epochOptTimelines(n, c) {
		states, err := scenario.TimelineStates(n, c, dyn.timeline)
		if err != nil {
			return Figure{}, fmt.Errorf("figures: epoch-optimizer %s: %w", dyn.name, err)
		}
		tp := optimize.TimelineProblem{Lo: 0, Hi: hi, Mean: optimize.UnconstrainedMean()}
		for _, st := range states {
			e, err := scenario.Engine(st.N, st.C)
			if err != nil {
				return Figure{}, err
			}
			tp.Epochs = append(tp.Epochs, optimize.EpochProblem{Engine: e, Weight: st.Weight})
		}
		res, err := optimize.MaximizeTimeline(tp)
		if err != nil {
			return Figure{}, fmt.Errorf("figures: epoch-optimizer %s: %w", dyn.name, err)
		}
		policies := []struct {
			label string
			h     func(e int) (float64, error)
		}{
			{"static", func(e int) (float64, error) {
				return tp.Epochs[e].Engine.AnonymityDegree(static.Dist)
			}},
			{"per-epoch", func(e int) (float64, error) {
				return tp.Epochs[e].Engine.AnonymityDegree(res.PerEpoch[e].Dist)
			}},
			{"joint", func(e int) (float64, error) {
				return tp.Epochs[e].Engine.AnonymityDegree(res.Joint.Dist)
			}},
		}
		for _, pol := range policies {
			s := Series{Label: pol.label + "/" + dyn.name}
			for e := range tp.Epochs {
				h, err := pol.h(e)
				if err != nil {
					return Figure{}, fmt.Errorf("figures: epoch-optimizer %s/%s: %w", pol.label, dyn.name, err)
				}
				s.X = append(s.X, float64(e))
				s.Y = append(s.Y, h)
			}
			fig.Series = append(fig.Series, s)
		}
	}
	return fig, nil
}

// EpochOptimizer regenerates the epoch-optimizer figure with the default
// configuration: a 40-node base system with 4 compromised nodes and
// support [0, 12] — small enough to solve nine optimizations exactly in
// well under a second, large enough that the three dynamics separate.
func EpochOptimizer() (Figure, error) {
	return EpochOptimizerSweep(40, 4, 12)
}
