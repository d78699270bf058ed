package scenario_test

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"anonmix/internal/faults"
	"anonmix/internal/scenario"
	"anonmix/internal/scenario/capability"
	"anonmix/internal/trace"
)

// churnKinds are the three canonical dynamics of the acceptance matrix,
// all ≥ 3 epochs.
var churnKinds = []struct {
	name     string
	timeline func(n, c int) []scenario.Epoch
}{
	{"grow", func(n, c int) []scenario.Epoch {
		return []scenario.Epoch{{}, {Join: n / 2}, {Join: n / 2}}
	}},
	{"shrink", func(n, c int) []scenario.Epoch {
		return []scenario.Epoch{{}, {Leave: n / 5}, {Leave: n / 5}}
	}},
	{"creep", func(n, c int) []scenario.Epoch {
		return []scenario.Epoch{{}, {Compromise: c}, {Compromise: c}}
	}},
}

// withMessages fills a per-epoch single-shot budget into a churn timeline.
func withMessages(tl []scenario.Epoch, m int) []scenario.Epoch {
	out := append([]scenario.Epoch(nil), tl...)
	for i := range out {
		out[i].Messages = m
	}
	return out
}

// withRounds fills a per-epoch round budget into a churn timeline.
func withRounds(tl []scenario.Epoch, r int) []scenario.Epoch {
	out := append([]scenario.Epoch(nil), tl...)
	for i := range out {
		out[i].Rounds = r
	}
	return out
}

// TestCrossBackendTimelineAgreement is the dynamic-population counterpart
// of the single-shot agreement test: for ≥ 3 epochs × {grow, shrink,
// creeping-compromise} × both receiver modes, the exact mixture, the
// stratified Monte-Carlo estimate, and the testbed's churn-driven
// empirical measurement must coincide within the sampled backends'
// confidence intervals — and the per-epoch population trajectories must be
// identical across backends.
func TestCrossBackendTimelineAgreement(t *testing.T) {
	const n, c = 15, 3
	modes := []struct {
		name string
		adv  scenario.Adversary
	}{
		{"receiver-compromised", scenario.Adversary{Count: c}},
		{"receiver-uncompromised", scenario.Adversary{Count: c, UncompromisedReceiver: true}},
	}
	for _, mode := range modes {
		for _, kind := range churnKinds {
			t.Run(mode.name+"/"+kind.name, func(t *testing.T) {
				base := scenario.Config{
					N:            n,
					StrategySpec: "uniform:1,5",
					Adversary:    mode.adv,
					Timeline:     withMessages(kind.timeline(n, c), 6000),
				}

				exCfg := base
				exCfg.Backend = scenario.BackendExact
				ex, err := scenario.Run(exCfg)
				if err != nil {
					t.Fatal(err)
				}
				if ex.Estimated || ex.CI95 != 0 {
					t.Errorf("exact mixture carries sampling error: %+v", ex)
				}
				if len(ex.Epochs) != 3 {
					t.Fatalf("exact epochs = %+v", ex.Epochs)
				}

				mcCfg := base
				mcCfg.Backend = scenario.BackendMonteCarlo
				mcCfg.Workload = scenario.Workload{Seed: 7, Workers: 4}
				mc, err := scenario.Run(mcCfg)
				if err != nil {
					t.Fatal(err)
				}
				if d := math.Abs(mc.H - ex.H); d > 4*mc.StdErr+1e-3 {
					t.Errorf("MC H = %v ± %v, exact H = %v (Δ=%v)", mc.H, mc.StdErr, ex.H, d)
				}

				tbCfg := base
				tbCfg.Backend = scenario.BackendTestbed
				tbCfg.Workload = scenario.Workload{Seed: 11}
				tb, err := scenario.Run(tbCfg)
				if err != nil {
					t.Fatal(err)
				}
				if tb.Kernel == nil || tb.Kernel.Events == 0 {
					t.Errorf("testbed result lacks kernel stats: %+v", tb.Kernel)
				}
				if kind.name != "grow" && tb.Kernel.Churn == 0 {
					t.Errorf("testbed ran a %s timeline without churn events", kind.name)
				}
				if d := math.Abs(tb.H - ex.H); d > 4*tb.StdErr+1e-3 {
					t.Errorf("testbed H = %v ± %v, exact H = %v (Δ=%v)", tb.H, tb.StdErr, ex.H, d)
				}

				// The population trajectory (N_e, C_e) must be the same
				// deterministic schedule everywhere, and every sampled
				// phase must agree with its exact counterpart.
				for i := range ex.Epochs {
					for name, res := range map[string]scenario.Result{"mc": mc, "testbed": tb} {
						e := res.Epochs[i]
						if e.N != ex.Epochs[i].N || e.C != ex.Epochs[i].C {
							t.Errorf("%s epoch %d population (%d,%d) != exact (%d,%d)",
								name, i, e.N, e.C, ex.Epochs[i].N, ex.Epochs[i].C)
						}
						if d := math.Abs(e.H - ex.Epochs[i].H); d > 4*res.StdErr*math.Sqrt(3)+2e-2 {
							t.Errorf("%s epoch %d H = %v, exact %v (Δ=%v)", name, i, e.H, ex.Epochs[i].H, d)
						}
					}
				}
			})
		}
	}
}

// TestCrossBackendTimelineRounds: degradation across phase boundaries —
// the serial exact reference, the parallel Monte-Carlo estimate, and the
// testbed's churn execution agree on the blended curve, and the curves are
// non-increasing (accumulation never loses information; churn only changes
// how fast it gains).
func TestCrossBackendTimelineRounds(t *testing.T) {
	const n, c = 15, 3
	for _, kind := range churnKinds {
		t.Run(kind.name, func(t *testing.T) {
			base := scenario.Config{
				N:            n,
				StrategySpec: "uniform:1,5",
				Adversary:    scenario.Adversary{Count: c},
				Timeline:     withRounds(kind.timeline(n, c), 3),
			}
			exCfg := base
			exCfg.Backend = scenario.BackendExact
			exCfg.Workload = scenario.Workload{Messages: 2000, Seed: 5}
			ex, err := scenario.Run(exCfg)
			if err != nil {
				t.Fatal(err)
			}
			if !ex.Estimated || ex.Rounds != 9 || len(ex.HRounds) != 9 {
				t.Fatalf("exact rounds result: rounds=%d curve=%v", ex.Rounds, ex.HRounds)
			}
			for i := 1; i < len(ex.HRounds); i++ {
				if ex.HRounds[i] > ex.HRounds[i-1]+0.02 {
					t.Errorf("exact curve not non-increasing at %d: %v", i, ex.HRounds)
				}
			}

			mcCfg := base
			mcCfg.Backend = scenario.BackendMonteCarlo
			mcCfg.Workload = scenario.Workload{Messages: 3000, Seed: 9, Workers: 4}
			mc, err := scenario.Run(mcCfg)
			if err != nil {
				t.Fatal(err)
			}
			tbCfg := base
			tbCfg.Backend = scenario.BackendTestbed
			tbCfg.Workload = scenario.Workload{Messages: 1000, Seed: 13}
			tb, err := scenario.Run(tbCfg)
			if err != nil {
				t.Fatal(err)
			}
			for name, res := range map[string]scenario.Result{"mc": mc, "testbed": tb} {
				tol := 1.96*math.Sqrt(res.StdErr*res.StdErr+ex.StdErr*ex.StdErr) + 0.02
				if d := math.Abs(res.H - ex.H); d > tol {
					t.Errorf("%s final H = %v, exact %v (Δ=%v > %v)", name, res.H, ex.H, d, tol)
				}
				if len(res.HRounds) != 9 {
					t.Fatalf("%s curve length %d", name, len(res.HRounds))
				}
				// Pointwise agreement on the blended curve, with the same
				// tolerance shape the static degradation test uses.
				for r := range res.HRounds {
					if d := math.Abs(res.HRounds[r] - ex.HRounds[r]); d > 4*(res.StdErr+ex.StdErr)+0.1 {
						t.Errorf("%s H_%d = %v, exact %v (Δ=%v)", name, r+1, res.HRounds[r], ex.HRounds[r], d)
					}
				}
			}
		})
	}
}

// TestTimelineCreepIdentifiesSwallowedSenders: under creeping compromise a
// session whose sender the adversary swallows is identified from that
// phase on — its remaining entropy is zero and, with tracking enabled, it
// counts as identified.
func TestTimelineCreepIdentifiesSwallowedSenders(t *testing.T) {
	for _, kind := range []scenario.BackendKind{
		scenario.BackendExact, scenario.BackendMonteCarlo, scenario.BackendTestbed,
	} {
		cfg := scenario.Config{
			N:            10,
			Backend:      kind,
			StrategySpec: "fixed:3",
			Adversary:    scenario.Adversary{Count: 2},
			// Epoch 2 compromises 6 of the 8 honest members: most sessions
			// lose their sender to the adversary.
			Timeline: []scenario.Epoch{{Rounds: 2}, {Rounds: 2, Compromise: 6}},
			Workload: scenario.Workload{Messages: 600, Seed: 3, Workers: 2, Confidence: 0.9},
		}
		res, err := scenario.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		// 2/10 compromised at session start, 8/10 by the second phase: at
		// least the swallowed share must be identified and fully
		// deanonymized.
		if res.IdentifiedShare < 0.7 {
			t.Errorf("%s: identified share = %v, want ≥ 0.7 (swallowed senders)", kind, res.IdentifiedShare)
		}
		if float64(res.Deanonymized)/float64(res.Trials) < 0.7 {
			t.Errorf("%s: deanonymized = %d of %d", kind, res.Deanonymized, res.Trials)
		}
		if res.HRounds[3] > res.HRounds[1] {
			t.Errorf("%s: curve rose across the compromise boundary: %v", kind, res.HRounds)
		}
	}
}

// TestTimelineSeedDeterminism: timeline runs are bit-reproducible per seed
// on every backend, in both budget modes.
func TestTimelineSeedDeterminism(t *testing.T) {
	tl := []scenario.Epoch{{Messages: 800}, {Messages: 800, Join: 5, Compromise: 1}, {Messages: 800, Leave: 3}}
	rtl := []scenario.Epoch{{Rounds: 2}, {Rounds: 2, Join: 5, Compromise: 1}, {Rounds: 2, Leave: 3}}
	cases := []struct {
		name string
		cfg  scenario.Config
	}{
		{"mc-messages", scenario.Config{
			N: 16, Backend: scenario.BackendMonteCarlo, StrategySpec: "uniform:1,5",
			Adversary: scenario.Adversary{Count: 3}, Timeline: tl,
			Workload: scenario.Workload{Seed: 5, Workers: 4},
		}},
		{"mc-rounds", scenario.Config{
			N: 16, Backend: scenario.BackendMonteCarlo, StrategySpec: "uniform:1,5",
			Adversary: scenario.Adversary{Count: 3}, Timeline: rtl,
			Workload: scenario.Workload{Messages: 400, Seed: 5, Workers: 4},
		}},
		{"testbed-messages", scenario.Config{
			N: 16, Backend: scenario.BackendTestbed, StrategySpec: "uniform:1,5",
			Adversary: scenario.Adversary{Count: 3}, Timeline: tl,
			Workload: scenario.Workload{Seed: 9},
		}},
		{"testbed-rounds", scenario.Config{
			N: 16, Backend: scenario.BackendTestbed, StrategySpec: "uniform:1,5",
			Adversary: scenario.Adversary{Count: 3}, Timeline: rtl,
			Workload: scenario.Workload{Messages: 300, Seed: 9, Confidence: 0.9},
		}},
		{"testbed-mix-rounds", scenario.Config{
			N: 16, Backend: scenario.BackendTestbed, StrategySpec: "uniform:1,5",
			Protocol:  scenario.ProtocolMix,
			Adversary: scenario.Adversary{Count: 3}, Timeline: rtl,
			Workload: scenario.Workload{Messages: 300, Seed: 9},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, err := scenario.Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := scenario.Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if a.H != b.H || a.StdErr != b.StdErr {
				t.Errorf("H not bit-identical: %v ± %v vs %v ± %v", a.H, a.StdErr, b.H, b.StdErr)
			}
			if !reflect.DeepEqual(a.HRounds, b.HRounds) {
				t.Errorf("curves differ: %v vs %v", a.HRounds, b.HRounds)
			}
			if !reflect.DeepEqual(a.Epochs, b.Epochs) {
				t.Errorf("epoch results differ: %+v vs %+v", a.Epochs, b.Epochs)
			}
		})
	}
}

// TestExactTimelineMixture: the exact backend's blended H is exactly the
// traffic-weighted mixture of the per-phase static values.
func TestExactTimelineMixture(t *testing.T) {
	static := func(n, c int) float64 {
		res, err := scenario.Run(scenario.Config{
			N: n, Backend: scenario.BackendExact, StrategySpec: "uniform:1,5",
			Adversary: scenario.Adversary{Count: c},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.H
	}
	res, err := scenario.Run(scenario.Config{
		N:            14,
		Backend:      scenario.BackendExact,
		StrategySpec: "uniform:1,5",
		Adversary:    scenario.Adversary{Count: 2},
		Timeline:     []scenario.Epoch{{Messages: 1000}, {Messages: 3000, Join: 6, Compromise: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.25*static(14, 2) + 0.75*static(20, 4)
	if math.Abs(res.H-want) > 1e-12 {
		t.Errorf("mixture H = %v, want %v", res.H, want)
	}
	wantMax := 0.25*math.Log2(14) + 0.75*math.Log2(20)
	if math.Abs(res.MaxH-wantMax) > 1e-12 {
		t.Errorf("MaxH = %v, want %v", res.MaxH, wantMax)
	}
	if res.Epochs[0].H != static(14, 2) || res.Epochs[1].H != static(20, 4) {
		t.Errorf("per-epoch H = %+v", res.Epochs)
	}
	wantComp := 0.25*(2.0/14) + 0.75*(4.0/20)
	if math.Abs(res.CompromisedSenderShare-wantComp) > 1e-12 {
		t.Errorf("compromised share = %v, want %v", res.CompromisedSenderShare, wantComp)
	}
}

// TestTimelineValidation pins the scenario layer's timeline checks: every
// malformed schedule is rejected up front with ErrBadConfig, uniformly
// across backends.
func TestTimelineValidation(t *testing.T) {
	valid := scenario.Config{
		N:            12,
		StrategySpec: "fixed:3",
		Adversary:    scenario.Adversary{Count: 2},
		Timeline:     []scenario.Epoch{{Messages: 100}, {Messages: 100, Join: 2}},
	}
	cases := []struct {
		name string
		mut  func(*scenario.Config)
	}{
		{"negative epoch field", func(c *scenario.Config) { c.Timeline[1].Leave = -1 }},
		{"mixed budgets", func(c *scenario.Config) { c.Timeline[1].Rounds = 2 }},
		{"no traffic", func(c *scenario.Config) {
			c.Timeline = []scenario.Epoch{{Join: 2}, {Leave: 2}}
		}},
		{"messages timeline with Workload.Messages", func(c *scenario.Config) { c.Workload.Messages = 50 }},
		{"messages timeline with Workload.Rounds", func(c *scenario.Config) { c.Workload.Rounds = 4 }},
		{"messages timeline with confidence", func(c *scenario.Config) { c.Workload.Confidence = 0.9 }},
		{"rounds timeline with Workload.Rounds", func(c *scenario.Config) {
			c.Timeline = []scenario.Epoch{{Rounds: 2}, {Rounds: 2}}
			c.Workload.Rounds = 4
		}},
		{"rounds timeline without sessions", func(c *scenario.Config) {
			c.Timeline = []scenario.Epoch{{Rounds: 2}, {Rounds: 2}}
		}},
		{"population collapses", func(c *scenario.Config) {
			c.Timeline = []scenario.Epoch{{Messages: 10}, {Messages: 10, Leave: 9}}
		}},
		{"leave exceeds honest members", func(c *scenario.Config) {
			c.Timeline = []scenario.Epoch{{Messages: 10}, {Messages: 10, Leave: 11}}
		}},
		{"compromise exceeds honest members", func(c *scenario.Config) {
			c.Timeline = []scenario.Epoch{{Messages: 10}, {Messages: 10, Compromise: 11}}
		}},
		{"whole population compromised", func(c *scenario.Config) {
			c.Timeline = []scenario.Epoch{{Messages: 10}, {Messages: 10, Compromise: 10}}
		}},
		{"recover without compromised", func(c *scenario.Config) {
			c.Adversary = scenario.Adversary{}
			c.Timeline = []scenario.Epoch{{Messages: 10}, {Messages: 10, Recover: 1}}
		}},
		{"strategy outgrows smallest phase", func(c *scenario.Config) {
			c.StrategySpec = "fixed:9"
			c.Timeline = []scenario.Epoch{{Messages: 10}, {Messages: 10, Leave: 4}}
		}},
		{"fixed sender compromised mid-timeline", func(c *scenario.Config) {
			c.Workload.FixedSender = true
			c.Workload.Sender = 2 // lowest honest identity: first creep target
			c.Timeline = []scenario.Epoch{{Messages: 10}, {Messages: 10, Compromise: 1}}
		}},
		{"fixed sender leaves mid-timeline", func(c *scenario.Config) {
			c.Workload.FixedSender = true
			c.Workload.Sender = 11 // highest honest identity: first leaver
			c.Timeline = []scenario.Epoch{{Messages: 10}, {Messages: 10, Leave: 1}}
		}},
		{"negative hop delay", func(c *scenario.Config) { c.Workload.MaxHopDelay = -1 }},
	}
	for _, backend := range []scenario.BackendKind{
		scenario.BackendExact, scenario.BackendMonteCarlo, scenario.BackendTestbed,
	} {
		for _, tc := range cases {
			t.Run(string(backend)+"/"+tc.name, func(t *testing.T) {
				cfg := valid
				cfg.Backend = backend
				cfg.Timeline = append([]scenario.Epoch(nil), valid.Timeline...)
				tc.mut(&cfg)
				if _, err := scenario.Run(cfg); !errors.Is(err, scenario.ErrBadConfig) {
					t.Errorf("err = %v, want ErrBadConfig", err)
				}
			})
		}
	}
	// The valid schedule runs on every backend.
	for _, backend := range []scenario.BackendKind{
		scenario.BackendExact, scenario.BackendMonteCarlo, scenario.BackendTestbed,
	} {
		cfg := valid
		cfg.Backend = backend
		if _, err := scenario.Run(cfg); err != nil {
			t.Errorf("%s rejected a valid timeline: %v", backend, err)
		}
	}
}

// TestTimelineCrowdsRefused: the jondo substrate has no dynamic-membership
// support; a crowds timeline is refused with a capability error on the
// testbed and the protocol capability error on the analytic backends.
func TestTimelineCrowdsRefused(t *testing.T) {
	for _, backend := range []scenario.BackendKind{
		scenario.BackendExact, scenario.BackendMonteCarlo, scenario.BackendTestbed,
	} {
		cfg := scenario.Config{
			N:            12,
			Backend:      backend,
			StrategySpec: "crowds:0.7",
			Adversary:    scenario.Adversary{Count: 2},
			Timeline:     []scenario.Epoch{{Messages: 100}, {Messages: 100, Join: 2}},
		}
		_, err := scenario.Run(cfg)
		var capErr *capability.Error
		if !errors.As(err, &capErr) {
			t.Errorf("%s: err = %v, want a capability error", backend, err)
		}
	}
}

// TestParseTimeline pins the CLI epoch syntax.
func TestParseTimeline(t *testing.T) {
	tl, err := scenario.ParseTimeline(" msgs=2000; m=500,join=10,comp=2 ;rounds=4,leave=3,recover=1 ")
	if err != nil {
		t.Fatal(err)
	}
	want := []scenario.Epoch{
		{Messages: 2000},
		{Messages: 500, Join: 10, Compromise: 2},
		{Rounds: 4, Leave: 3, Recover: 1},
	}
	if !reflect.DeepEqual(tl, want) {
		t.Errorf("parsed %+v, want %+v", tl, want)
	}
	if tl, err := scenario.ParseTimeline(""); err != nil || tl != nil {
		t.Errorf("empty spec: %v, %v", tl, err)
	}
	for _, bad := range []string{"msgs", "msgs=x", "warp=3", "msgs=1,=2"} {
		if _, err := scenario.ParseTimeline(bad); !errors.Is(err, scenario.ErrBadConfig) {
			t.Errorf("ParseTimeline(%q) err = %v, want ErrBadConfig", bad, err)
		}
	}
}

// TestTimelineFixedSender: a pinned persistent sender works across
// backends when it survives the schedule, and the exact mixture applies
// the per-phase honest-conditional rescale.
func TestTimelineFixedSender(t *testing.T) {
	base := scenario.Config{
		N:            12,
		StrategySpec: "fixed:3",
		Adversary:    scenario.Adversary{Compromised: []trace.NodeID{0, 1}},
		Timeline:     []scenario.Epoch{{Messages: 2000}, {Messages: 2000, Compromise: 1}},
		Workload:     scenario.Workload{FixedSender: true, Sender: 7, Seed: 3, Workers: 2},
	}
	exCfg := base
	exCfg.Backend = scenario.BackendExact
	ex, err := scenario.Run(exCfg)
	if err != nil {
		t.Fatal(err)
	}
	if ex.CompromisedSenderShare != 0 {
		t.Errorf("pinned honest sender share = %v", ex.CompromisedSenderShare)
	}
	for _, backend := range []scenario.BackendKind{scenario.BackendMonteCarlo, scenario.BackendTestbed} {
		cfg := base
		cfg.Backend = backend
		res, err := scenario.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(res.H - ex.H); d > 4*res.StdErr+1e-3 {
			t.Errorf("%s fixed-sender H = %v ± %v, exact %v", backend, res.H, res.StdErr, ex.H)
		}
	}
}

// TestTimelineEngineMissesMatchAcrossBackends: the sampled backends build
// engines only for the phases that carry traffic, so a Messages timeline
// with a traffic-free epoch takes the same engine-cache misses, and as
// many of them delta-derived, from an empty cache on Monte-Carlo and the
// testbed — lossless, and under retransmission, whose degraded folds add
// one honest-receiver engine per traffic phase on both.
func TestTimelineEngineMissesMatchAcrossBackends(t *testing.T) {
	cfg := scenario.Config{
		N:            18,
		StrategySpec: "uniform:1,5",
		Adversary:    scenario.Adversary{Count: 3},
		Timeline: []scenario.Epoch{
			{Messages: 300},
			{Join: 4},
			{Messages: 250, Join: 2, Compromise: 2},
			{Messages: 200, Leave: 3, Recover: 1},
		},
		Workload: scenario.Workload{Seed: 11, Workers: 2},
	}
	faulted := cfg
	faulted.Faults = &faults.Plan{LinkLoss: 0.15}
	faulted.Reliability = faults.Reliability{Policy: faults.PolicyRetransmit}
	defer scenario.ResetEngines()
	for _, tc := range []struct {
		name string
		cfg  scenario.Config
	}{{"lossless", cfg}, {"retransmit", faulted}} {
		name, cfg := tc.name, tc.cfg
		misses := map[scenario.BackendKind]scenario.EngineCacheStats{}
		for _, kind := range []scenario.BackendKind{scenario.BackendMonteCarlo, scenario.BackendTestbed} {
			scenario.ResetEngines()
			before := scenario.CacheStats()
			cfg.Backend = kind
			if _, err := scenario.Run(cfg); err != nil {
				t.Fatalf("%s %s: %v", name, kind, err)
			}
			misses[kind] = scenario.CacheStats().Delta(before)
		}
		mc, tb := misses[scenario.BackendMonteCarlo], misses[scenario.BackendTestbed]
		t.Logf("%s: mc %d misses (%d delta-derived), testbed %d (%d)",
			name, mc.Misses, mc.DeltaDerived, tb.Misses, tb.DeltaDerived)
		if mc.Misses != tb.Misses || mc.DeltaDerived != tb.DeltaDerived {
			t.Errorf("%s: mc took %d misses (%d delta-derived), testbed %d (%d)",
				name, mc.Misses, mc.DeltaDerived, tb.Misses, tb.DeltaDerived)
		}
	}
}
