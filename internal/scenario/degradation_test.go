package scenario_test

import (
	"math"
	"runtime"
	"testing"

	"anonmix/internal/scenario"
	"anonmix/internal/trace"
)

// TestCrossBackendDegradationAgreement mirrors the single-shot agreement
// test for the repeated-communication regime: for k ∈ {1, 4, 16} rounds,
// the exact-accumulated, Monte-Carlo-accumulated, and testbed-empirical
// degradation estimates of the same scenario must agree within the
// sampled backends' 95% confidence intervals, across three strategies and
// both receiver modes — and every backend's H_k curve must be
// monotonically non-increasing in k.
func TestCrossBackendDegradationAgreement(t *testing.T) {
	const n = 14
	adversaries := []struct {
		name string
		adv  scenario.Adversary
	}{
		{"receiver-compromised", scenario.Adversary{Compromised: []trace.NodeID{2, 7, 11}}},
		{"receiver-uncompromised", scenario.Adversary{Compromised: []trace.NodeID{2, 7, 11}, UncompromisedReceiver: true}},
	}
	specs := []string{"fixed:3", "uniform:0,6", "pipenet"}
	ks := []int{1, 4, 16}

	// agree checks |a.H − b.H| against the quadrature sum of both 95% CIs
	// (exact single-shot contributes zero) plus a small absolute slack.
	agree := func(t *testing.T, label string, a, b scenario.Result) {
		t.Helper()
		tol := 1.96*math.Sqrt(a.StdErr*a.StdErr+b.StdErr*b.StdErr) + 0.02
		if d := math.Abs(a.H - b.H); d > tol {
			t.Errorf("%s: H = %v vs %v (Δ=%v > tol %v)", label, a.H, b.H, d, tol)
		}
	}
	monotone := func(t *testing.T, label string, h []float64) {
		t.Helper()
		for i := 1; i < len(h); i++ {
			if h[i] > h[i-1]+0.02 {
				t.Errorf("%s: H_%d = %v > H_%d = %v (curve not non-increasing)",
					label, i+1, h[i], i, h[i-1])
			}
		}
	}

	for _, adv := range adversaries {
		for _, spec := range specs {
			t.Run(adv.name+"/"+spec, func(t *testing.T) {
				base := scenario.Config{
					N:            n,
					StrategySpec: spec,
					Adversary:    adv.adv,
				}
				for _, k := range ks {
					exCfg := base
					exCfg.Backend = scenario.BackendExact
					exCfg.Workload = scenario.Workload{Messages: 3000, Rounds: k, Seed: 7}
					ex, err := scenario.Run(exCfg)
					if err != nil {
						t.Fatal(err)
					}
					if k > 1 {
						if !ex.Estimated || len(ex.HRounds) != k {
							t.Fatalf("k=%d: exact rounds result %+v", k, ex)
						}
						if ex.Rounds != k {
							t.Errorf("k=%d: exact Rounds echo = %d", k, ex.Rounds)
						}
						monotone(t, "exact", ex.HRounds)
					} else if ex.Estimated || ex.CI95 != 0 {
						// The k = 1 exact result must stay the closed form.
						t.Errorf("exact single-shot carries sampling error: %+v", ex)
					}

					mcCfg := base
					mcCfg.Backend = scenario.BackendMonteCarlo
					mcCfg.Workload = scenario.Workload{Messages: 4000, Rounds: k, Seed: 11, Workers: 4}
					mc, err := scenario.Run(mcCfg)
					if err != nil {
						t.Fatal(err)
					}
					agree(t, "mc vs exact", mc, ex)
					if k > 1 {
						monotone(t, "mc", mc.HRounds)
					}

					tbCfg := base
					tbCfg.Backend = scenario.BackendTestbed
					tbCfg.Workload = scenario.Workload{Messages: 1000, Rounds: k, Seed: 13}
					tb, err := scenario.Run(tbCfg)
					if err != nil {
						t.Fatal(err)
					}
					agree(t, "testbed vs exact", tb, ex)
					if k > 1 {
						monotone(t, "testbed", tb.HRounds)
						if tb.Trials != 1000 {
							t.Errorf("k=%d: testbed sessions = %d", k, tb.Trials)
						}
					}
					if tb.Kernel == nil || tb.Kernel.Events == 0 {
						t.Errorf("k=%d: testbed result lacks kernel stats", k)
					}

					// The first round of an accumulated run estimates the
					// same quantity as the single-shot scenario.
					if k > 1 {
						single := exactReferenceH(t, base)
						for name, res := range map[string]scenario.Result{"exact": ex, "mc": mc, "testbed": tb} {
							if d := math.Abs(res.HRounds[0] - single); d > 4*res.StdErr+0.1 {
								t.Errorf("%s: H_1 = %v, single-shot exact = %v (Δ=%v)",
									name, res.HRounds[0], single, d)
							}
						}
					}
				}
			})
		}
	}
}

// exactReferenceH computes the single-shot closed-form H*(S).
func exactReferenceH(t *testing.T, base scenario.Config) float64 {
	t.Helper()
	cfg := base
	cfg.Backend = scenario.BackendExact
	cfg.Workload = scenario.Workload{}
	res, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res.H
}

// TestSeedDeterminism: identical Config + Workload.Seed must produce a
// bit-identical Result on repeated runs, at GOMAXPROCS 1 and 4, for both
// sampled backends, single-shot and multi-round. Every field the golden
// dump includes (goldenExcluded names the rest) must match across the
// four runs, each from an empty engine cache.
func TestSeedDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cases := []struct {
		name string
		cfg  scenario.Config
	}{
		{"mc-single", scenario.Config{
			N: 20, Backend: scenario.BackendMonteCarlo, StrategySpec: "uniform:1,5",
			Adversary: scenario.Adversary{Count: 3},
			Workload:  scenario.Workload{Messages: 2000, Seed: 5, Workers: 4},
		}},
		{"mc-rounds", scenario.Config{
			N: 20, Backend: scenario.BackendMonteCarlo, StrategySpec: "uniform:1,5",
			Adversary: scenario.Adversary{Count: 3},
			Workload:  scenario.Workload{Messages: 800, Rounds: 6, Seed: 5, Workers: 4},
		}},
		{"testbed-single", scenario.Config{
			N: 20, Backend: scenario.BackendTestbed, StrategySpec: "uniform:1,5",
			Adversary: scenario.Adversary{Count: 3},
			Workload:  scenario.Workload{Messages: 1500, Seed: 9},
		}},
		{"testbed-rounds", scenario.Config{
			N: 20, Backend: scenario.BackendTestbed, StrategySpec: "uniform:1,5",
			Adversary: scenario.Adversary{Count: 3},
			Workload:  scenario.Workload{Messages: 400, Rounds: 5, Seed: 9, Confidence: 0.9},
		}},
		{"testbed-crowds-rounds", scenario.Config{
			N: 16, Backend: scenario.BackendTestbed, StrategySpec: "crowds:0.7",
			Adversary: scenario.Adversary{Count: 2},
			Workload:  scenario.Workload{Messages: 300, Rounds: 4, Seed: 3},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var first string
			for _, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				for run := 0; run < 2; run++ {
					res, err := scenario.Run(tc.cfg)
					if err != nil {
						t.Fatal(err)
					}
					got := dumpResult(res)
					if first == "" {
						first = got
					} else if got != first {
						t.Errorf("GOMAXPROCS %d run %d differs from the first run: %s", procs, run, fieldDiff(got, first))
					}
				}
			}
		})
	}
}

// TestDegradationIdentification: with a fixed honest sender and a
// confidence threshold, every backend identifies the sender given enough
// rounds, and reports coherent identification statistics.
func TestDegradationIdentification(t *testing.T) {
	base := scenario.Config{
		N:            12,
		StrategySpec: "uniform:1,5",
		Adversary:    scenario.Adversary{Compromised: []trace.NodeID{2, 9}},
		Workload: scenario.Workload{
			Messages: 40, Rounds: 120, Seed: 5,
			Confidence: 0.9, FixedSender: true, Sender: 4,
		},
	}
	for _, kind := range []scenario.BackendKind{
		scenario.BackendExact, scenario.BackendMonteCarlo, scenario.BackendTestbed,
	} {
		t.Run(string(kind), func(t *testing.T) {
			cfg := base
			cfg.Backend = kind
			res, err := scenario.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.IdentifiedShare < 0.9 {
				t.Errorf("identified share = %v, want ≥ 0.9", res.IdentifiedShare)
			}
			if res.MeanRoundsToIdentify <= 1 || res.MeanRoundsToIdentify > 120 {
				t.Errorf("mean rounds to identify = %v", res.MeanRoundsToIdentify)
			}
			if res.CompromisedSenderShare != 0 {
				t.Errorf("fixed honest sender counted as compromised: %v", res.CompromisedSenderShare)
			}
			if len(res.HRounds) != 120 {
				t.Fatalf("HRounds length %d", len(res.HRounds))
			}
			if !(res.HRounds[0] > res.HRounds[30] && res.HRounds[30] > res.HRounds[119]) {
				t.Errorf("mean entropy not decreasing: %v %v %v",
					res.HRounds[0], res.HRounds[30], res.HRounds[119])
			}
		})
	}
}

// TestFixedSenderExactScaling: the exact backend's single-shot
// fixed-sender value is the honest-conditional entropy H*(S)·N/(N−C) —
// except under the no-self-report ablation, where the engine already
// conditions on the local-eavesdropper branch being absent and a pinned
// honest sender changes nothing (regression: the factor was once applied
// twice).
func TestFixedSenderExactScaling(t *testing.T) {
	base := scenario.Config{
		N:            10,
		Backend:      scenario.BackendExact,
		StrategySpec: "fixed:3",
		Adversary:    scenario.Adversary{Count: 5},
	}
	uniform, err := scenario.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	pinned := base
	pinned.Workload = scenario.Workload{FixedSender: true, Sender: 7}
	fixed, err := scenario.Run(pinned)
	if err != nil {
		t.Fatal(err)
	}
	if want := uniform.H * 2; math.Abs(fixed.H-want) > 1e-12 {
		t.Errorf("fixed-sender H = %v, want N/(N-C)·H = %v", fixed.H, want)
	}
	if fixed.CompromisedSenderShare != 0 {
		t.Errorf("pinned honest sender share = %v", fixed.CompromisedSenderShare)
	}

	ablBase := base
	ablBase.Adversary.NoSenderSelfReport = true
	ablUniform, err := scenario.Run(ablBase)
	if err != nil {
		t.Fatal(err)
	}
	ablPinned := ablBase
	ablPinned.Workload = scenario.Workload{FixedSender: true, Sender: 7}
	ablFixed, err := scenario.Run(ablPinned)
	if err != nil {
		t.Fatal(err)
	}
	if ablFixed.H != ablUniform.H {
		t.Errorf("no-self-report: fixed-sender H = %v, want unscaled %v", ablFixed.H, ablUniform.H)
	}
	if ablFixed.H > ablFixed.MaxH {
		t.Errorf("H %v exceeds MaxH %v", ablFixed.H, ablFixed.MaxH)
	}
}

// TestCrowdsDegradationRounds: multi-round sessions on the Crowds
// substrate accumulate predecessor counts — the count posterior's entropy
// decays with reformations, and with enough rounds the initiator ends
// with the top count in most sessions.
func TestCrowdsDegradationRounds(t *testing.T) {
	run := func(rounds int) scenario.Result {
		res, err := scenario.Run(scenario.Config{
			N:            20,
			Backend:      scenario.BackendTestbed,
			StrategySpec: "crowds:0.75",
			Adversary:    scenario.Adversary{Count: 2},
			Workload:     scenario.Workload{Messages: 400, Rounds: rounds, Seed: 11, Confidence: 0.9},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	many := run(200)
	cr := many.Crowds
	if cr == nil {
		t.Fatal("no crowds report")
	}
	if len(many.HRounds) != 200 {
		t.Fatalf("HRounds length %d", len(many.HRounds))
	}
	for i := 1; i < len(many.HRounds); i++ {
		if many.HRounds[i] > many.HRounds[i-1]+0.02 {
			t.Errorf("H_%d = %v > H_%d = %v", i+1, many.HRounds[i], i, many.HRounds[i-1])
		}
	}
	if cr.TopCountIdentifiedShare < 0.9 {
		t.Errorf("200 reformations: top-count identified share %v, want ≥ 0.9", cr.TopCountIdentifiedShare)
	}
	if many.IdentifiedShare < 0.5 {
		t.Errorf("200 reformations: confidence-identified share %v, want ≥ 0.5", many.IdentifiedShare)
	}
	few := run(2)
	if !(many.Crowds.TopCountIdentifiedShare > few.Crowds.TopCountIdentifiedShare) {
		t.Errorf("identification should improve with rounds: %v vs %v",
			many.Crowds.TopCountIdentifiedShare, few.Crowds.TopCountIdentifiedShare)
	}
	if many.Crowds.MeanObservedRounds <= few.Crowds.MeanObservedRounds {
		t.Errorf("observed rounds should grow: %v vs %v",
			many.Crowds.MeanObservedRounds, few.Crowds.MeanObservedRounds)
	}
	// The first-round mean entropy matches the closed-form mixture of the
	// observed event (EventEntropy) and the uninformed uniform log2(n−c).
	pObs := many.Crowds.MeanObservedRounds / 200
	want := pObs*many.Crowds.EventEntropy + (1-pObs)*math.Log2(18)
	if d := math.Abs(many.HRounds[0] - want); d > 0.15 {
		t.Errorf("H_1 = %v, closed-form mixture = %v (Δ=%v)", many.HRounds[0], want, d)
	}
}
