package figures

// The backend-ablation figure: the same scenarios evaluated on all three
// backends of the scenario layer. The exact, Monte-Carlo, and testbed
// curves must coincide within sampling error — this figure is the visual
// counterpart of the cross-backend agreement test in internal/scenario,
// and the template for future multi-backend comparison figures.

import (
	"fmt"

	"anonmix/internal/scenario"
)

// DefaultBackendSpecs are the strategies of the backend ablation: §2
// presets plus parametric families, chosen with distinct mean path lengths
// so each is one column of the figure.
func DefaultBackendSpecs() []string {
	return []string{"anonymizer", "freedom", "pipenet", "onionrouting1", "uniform:2,12", "fixed:9"}
}

// AblationBackendsSweep regenerates the backend comparison for the given
// system, message budget, and strategy specs (resolved through the pathsel
// registry). X is the strategy's mean path length; one series per backend.
func AblationBackendsSweep(n, c, messages int, seed int64, specs []string) (Figure, error) {
	if len(specs) == 0 {
		specs = DefaultBackendSpecs()
	}
	exact := Series{Label: "exact"}
	mc := Series{Label: fmt.Sprintf("mc(%d)", messages)}
	tb := Series{Label: fmt.Sprintf("testbed(%d)", messages)}
	seen := make(map[float64]string, len(specs))
	for _, spec := range specs {
		base := scenario.Config{
			N:            n,
			StrategySpec: spec,
			Adversary:    scenario.Adversary{Count: c},
		}
		ex := base
		ex.Backend = scenario.BackendExact
		exRes, err := scenario.Run(ex)
		if err != nil {
			return Figure{}, fmt.Errorf("figures: backends %s: %w", spec, err)
		}
		x := exRes.Strategy.Length.Mean()
		// The TSV is keyed by mean path length; a second spec at the same
		// mean would silently overwrite the first's row.
		if prev, dup := seen[x]; dup {
			return Figure{}, fmt.Errorf("figures: backends: specs %q and %q share mean path length %g; pick specs with distinct means",
				prev, spec, x)
		}
		seen[x] = spec

		mcCfg := base
		mcCfg.Backend = scenario.BackendMonteCarlo
		mcCfg.Workload = scenario.Workload{Messages: messages, Seed: seed}
		mcRes, err := scenario.Run(mcCfg)
		if err != nil {
			return Figure{}, fmt.Errorf("figures: backends %s: %w", spec, err)
		}

		tbCfg := base
		tbCfg.Backend = scenario.BackendTestbed
		tbCfg.Workload = scenario.Workload{Messages: messages, Seed: seed + 1}
		tbRes, err := scenario.Run(tbCfg)
		if err != nil {
			return Figure{}, fmt.Errorf("figures: backends %s: %w", spec, err)
		}

		exact.X = append(exact.X, x)
		exact.Y = append(exact.Y, exRes.H)
		mc.X = append(mc.X, x)
		mc.Y = append(mc.Y, mcRes.H)
		tb.X = append(tb.X, x)
		tb.Y = append(tb.Y, tbRes.H)
	}
	return Figure{
		Name:   "ablation-backends",
		Title:  "Anonymity degree by backend (exact vs Monte-Carlo vs testbed)",
		XLabel: "mean path length",
		Series: []Series{exact, mc, tb},
	}, nil
}

// AblationBackends regenerates the backend comparison with the paper
// configuration and the default strategy set.
func AblationBackends() (Figure, error) {
	return AblationBackendsSweep(PaperN, PaperC, 4000, 1, nil)
}
