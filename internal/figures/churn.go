package figures

// The churn-sweep figure: anonymity degradation across a dynamic
// population. Each curve is one strategy under one canonical population
// dynamic — grow (joins), shrink (leaves), or creep (time-phased
// compromise) — executed as a three-epoch Rounds timeline on the
// Monte-Carlo backend, so the H_k trajectory shows how the accumulation
// attack interacts with membership and adversary change: joins slow the
// decay (per-round observations leak less in a larger population, while
// the joiners themselves are eliminated as candidates — they were not
// members when the session started), leaves both concentrate the
// per-round posteriors and shrink the persistent sender pool, and
// creeping compromise collapses the curve fastest — every session whose
// sender the adversary swallows drops to zero outright.

import (
	"fmt"

	"anonmix/internal/scenario"
)

// DefaultChurnSpecs are the strategies of the churn sweep: a fixed-length
// preset and a parametric family with distinct single-shot degrees.
func DefaultChurnSpecs() []string {
	return []string{"freedom", "uniform:1,9"}
}

// churnRounds is the per-epoch round budget of the canonical timelines.
const churnRounds = 4

// churnTimelines are the three canonical dynamics, parameterized by the
// base population and adversary size.
func churnTimelines(n, c int) []struct {
	name     string
	timeline []scenario.Epoch
} {
	return []struct {
		name     string
		timeline []scenario.Epoch
	}{
		{"grow", []scenario.Epoch{
			{Rounds: churnRounds},
			{Rounds: churnRounds, Join: n / 2},
			{Rounds: churnRounds, Join: n / 2},
		}},
		{"shrink", []scenario.Epoch{
			{Rounds: churnRounds},
			{Rounds: churnRounds, Leave: n / 5},
			{Rounds: churnRounds, Leave: n / 5},
		}},
		{"creep", []scenario.Epoch{
			{Rounds: churnRounds},
			{Rounds: churnRounds, Compromise: c},
			{Rounds: churnRounds, Compromise: c},
		}},
	}
}

// ChurnSweep regenerates the churn figure: H_k vs round k for every spec ×
// dynamic, estimated from the given number of sessions per scenario on the
// Monte-Carlo backend. The sessions are a pure function of (seed,
// sessions): the output is the same at any parallelism.
func ChurnSweep(n, c, sessions int, seed int64, specs []string) (Figure, error) {
	if len(specs) == 0 {
		specs = DefaultChurnSpecs()
	}
	fig := Figure{
		Name:   "churn-sweep",
		Title:  fmt.Sprintf("Anonymity degradation under churn and time-phased compromise (%d sessions)", sessions),
		XLabel: "rounds k",
	}
	for _, dyn := range churnTimelines(n, c) {
		for _, spec := range specs {
			res, err := scenario.Run(scenario.Config{
				N:            n,
				Backend:      scenario.BackendMonteCarlo,
				StrategySpec: spec,
				Adversary:    scenario.Adversary{Count: c},
				Timeline:     dyn.timeline,
				Workload: scenario.Workload{
					Messages: sessions,
					Seed:     seed,
				},
			})
			if err != nil {
				return Figure{}, fmt.Errorf("figures: churn %s/%s: %w", dyn.name, spec, err)
			}
			s := Series{Label: spec + "/" + dyn.name}
			for k, h := range res.HRounds {
				s.X = append(s.X, float64(k+1))
				s.Y = append(s.Y, h)
			}
			fig.Series = append(fig.Series, s)
		}
	}
	return fig, nil
}

// Churn regenerates the churn figure with the default dynamic-population
// configuration: a 30-node system and 3 base compromised nodes.
func Churn() (Figure, error) {
	return ChurnSweep(30, 3, 2000, 1, nil)
}
