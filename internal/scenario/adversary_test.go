package scenario_test

import (
	"strings"
	"testing"

	"anonmix/internal/scenario"
	"anonmix/internal/trace"
)

// prefix is the explicit form of a count adversary: nodes 0..c−1.
func prefix(c int) []trace.NodeID {
	out := make([]trace.NodeID, c)
	for i := range out {
		out[i] = trace.NodeID(i)
	}
	return out
}

// fieldDiff names the first field where two dumps differ.
func fieldDiff(got, want string) string {
	g, w := strings.Fields(got), strings.Fields(want)
	for i := 0; i < max(len(g), len(w)); i++ {
		var a, b string
		if i < len(g) {
			a = g[i]
		}
		if i < len(w) {
			b = w[i]
		}
		if a != b {
			return a + " vs " + b
		}
	}
	return ""
}

// runCold runs cfg from an empty engine cache, as the golden rows do, so
// two runs compared bit for bit build their engines the same way.
func runCold(t *testing.T, cfg scenario.Config) (scenario.Result, error) {
	t.Helper()
	scenario.ResetEngines()
	defer scenario.ResetEngines()
	return scenario.Run(cfg)
}

// TestCountMatchesExplicitPrefix pins that Adversary{Count: c} and the
// explicit list of its first c nodes are one adversary: every backend
// and regime gives byte-identical golden dumps for the two forms, the
// timelines' recoveries reaching into the base set included.
func TestCountMatchesExplicitPrefix(t *testing.T) {
	const c = 3
	base := func(backend scenario.BackendKind) scenario.Config {
		return scenario.Config{
			N:            18,
			Backend:      backend,
			StrategySpec: "uniform:1,5",
			Workload:     scenario.Workload{Messages: 300, Seed: 13, Workers: 3},
		}
	}
	messages := []scenario.Epoch{
		{Messages: 200},
		{Messages: 150, Join: 2, Recover: 2},
		{Messages: 150, Compromise: 2},
		{Messages: 100, Leave: 3, Recover: 3},
	}
	rounds := []scenario.Epoch{
		{Rounds: 2},
		{Rounds: 2, Join: 3, Recover: 2},
		{Rounds: 2, Compromise: 3},
		{Rounds: 2, Recover: 4},
	}
	cases := []struct {
		name string
		cfg  func() scenario.Config
	}{
		{"exact/static", func() scenario.Config { return base(scenario.BackendExact) }},
		{"exact/timeline", func() scenario.Config {
			cfg := base(scenario.BackendExact)
			cfg.Workload.Messages, cfg.Timeline = 0, messages
			return cfg
		}},
		{"mc/static", func() scenario.Config { return base(scenario.BackendMonteCarlo) }},
		{"mc/sessions", func() scenario.Config {
			cfg := base(scenario.BackendMonteCarlo)
			cfg.Workload.Messages, cfg.Workload.Rounds, cfg.Workload.Confidence = 120, 5, 0.9
			return cfg
		}},
		{"mc/rounds-timeline", func() scenario.Config {
			cfg := base(scenario.BackendMonteCarlo)
			cfg.Workload.Messages, cfg.Workload.Confidence, cfg.Timeline = 120, 0.8, rounds
			return cfg
		}},
		{"testbed/plain", func() scenario.Config { return base(scenario.BackendTestbed) }},
		{"testbed/mix", func() scenario.Config {
			cfg := base(scenario.BackendTestbed)
			cfg.Protocol = scenario.ProtocolMix
			return cfg
		}},
		{"testbed/crowds", func() scenario.Config {
			cfg := base(scenario.BackendTestbed)
			cfg.StrategySpec = "crowds:0.7"
			return cfg
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			count, explicit := tc.cfg(), tc.cfg()
			count.Adversary.Count = c
			explicit.Adversary.Compromised = prefix(c)
			a, err := runCold(t, count)
			if err != nil {
				t.Fatal(err)
			}
			b, err := runCold(t, explicit)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := dumpResult(a), dumpResult(b); got != want {
				t.Errorf("count and explicit prefix differ: %s", fieldDiff(got, want))
			}
		})
	}
}

// TestExplicitEmptyListWinsOverCount pins that an explicit empty list
// means no compromised node whatever Count says.
func TestExplicitEmptyListWinsOverCount(t *testing.T) {
	for _, backend := range []scenario.BackendKind{scenario.BackendExact, scenario.BackendMonteCarlo} {
		none := scenario.Config{
			N: 12, Backend: backend, StrategySpec: "fixed:3",
			Workload: scenario.Workload{Messages: 200, Seed: 3},
		}
		empty := none
		empty.Adversary = scenario.Adversary{Compromised: []trace.NodeID{}, Count: 5}
		a, err := runCold(t, none)
		if err != nil {
			t.Fatal(err)
		}
		b, err := runCold(t, empty)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := dumpResult(b), dumpResult(a); got != want {
			t.Errorf("%s: an explicit empty list with Count 5 differs from no adversary: %s", backend, fieldDiff(got, want))
		}
	}
}
