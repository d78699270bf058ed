package figures

// The degradation figure: anonymity under repeated communication. For
// each strategy and receiver mode, one multi-round scenario run yields the
// whole curve H_k vs k — the mean accumulated posterior entropy after the
// session's k-th message (Wright et al.'s attack family, [23] in Guan et
// al.). The Monte-Carlo backend samples the sessions; its per-round
// inference is exact, so the k = 1 column reproduces the single-shot
// figures and the curve's decay rate is the strategy's real-world message
// budget.

import (
	"fmt"

	"anonmix/internal/scenario"
)

// DefaultDegradationSpecs are the strategies of the degradation figure:
// two §2 presets and a parametric family with distinct single-shot
// anonymity degrees, so the figure shows whether single-shot ranking is
// preserved under accumulation.
func DefaultDegradationSpecs() []string {
	return []string{"freedom", "onionrouting1", "uniform:1,9"}
}

// DegradationRoundsSweep regenerates the degradation figure: H_k vs k for
// every spec × receiver mode, k = 1..rounds, estimated from the given
// number of sessions per scenario on the Monte-Carlo backend.
func DegradationRoundsSweep(n, c, sessions, rounds int, seed int64, specs []string) (Figure, error) {
	if len(specs) == 0 {
		specs = DefaultDegradationSpecs()
	}
	if rounds < 2 {
		return Figure{}, fmt.Errorf("figures: degradation needs rounds ≥ 2, got %d", rounds)
	}
	fig := Figure{
		Name:   "degradation-rounds",
		Title:  fmt.Sprintf("Anonymity degradation under repeated communication (%d sessions)", sessions),
		XLabel: "rounds k",
	}
	for _, mode := range []struct {
		suffix        string
		uncompromised bool
	}{
		{"", false},
		{" (recv honest)", true},
	} {
		for _, spec := range specs {
			res, err := scenario.Run(scenario.Config{
				N:            n,
				Backend:      scenario.BackendMonteCarlo,
				StrategySpec: spec,
				Adversary: scenario.Adversary{
					Count:                 c,
					UncompromisedReceiver: mode.uncompromised,
				},
				Workload: scenario.Workload{
					Messages: sessions,
					Rounds:   rounds,
					Seed:     seed,
				},
			})
			if err != nil {
				return Figure{}, fmt.Errorf("figures: degradation %s: %w", spec, err)
			}
			s := Series{Label: spec + mode.suffix}
			for k, h := range res.HRounds {
				s.X = append(s.X, float64(k+1))
				s.Y = append(s.Y, h)
			}
			fig.Series = append(fig.Series, s)
		}
	}
	return fig, nil
}

// DegradationRounds regenerates the degradation figure with the paper
// system scaled to a threat model where accumulation bites (C = 3) and a
// 16-round horizon.
func DegradationRounds() (Figure, error) {
	return DegradationRoundsSweep(PaperN, 3, 2000, 16, 1, nil)
}
