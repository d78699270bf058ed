package scenario_test

// Reliability-layer tests: fault-plan validation is uniform across
// backends (rejection happens in the shared normalization), the three
// backends agree on lossy scenarios within sampling error, the reroute
// policy meets its delivery bound, retry evidence degrades anonymity
// monotonically in the loss rate, and every faulted run is bit-
// reproducible for a fixed seed.

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"anonmix/internal/faults"
	"anonmix/internal/scenario"
	"anonmix/internal/scenario/capability"
)

func isUnsupported(err error) bool {
	var capErr *capability.Error
	return errors.As(err, &capErr)
}

func lossyBase(n, c, messages int, q float64, pol faults.Policy) scenario.Config {
	return scenario.Config{
		N:            n,
		StrategySpec: "uniform:1,4",
		Adversary:    scenario.Adversary{Count: c},
		Workload:     scenario.Workload{Messages: messages, Seed: 42, Workers: 4},
		Faults:       &faults.Plan{LinkLoss: q},
		Reliability:  faults.Reliability{Policy: pol},
	}
}

// TestFaultValidation pins the scenario-layer contract of satellite (b):
// a malformed fault plan is rejected with ErrBadConfig by every backend,
// because the rejection happens in the shared normalization.
func TestFaultValidation(t *testing.T) {
	mutate := func(f func(*scenario.Config)) scenario.Config {
		cfg := lossyBase(10, 2, 100, 0.1, faults.PolicyNone)
		f(&cfg)
		return cfg
	}
	cases := []struct {
		name string
		cfg  scenario.Config
	}{
		{"loss-above-one", mutate(func(c *scenario.Config) { c.Faults.LinkLoss = 1.5 })},
		{"loss-negative", mutate(func(c *scenario.Config) { c.Faults.LinkLoss = -0.1 })},
		{"loss-nan", mutate(func(c *scenario.Config) { c.Faults.LinkLoss = math.NaN() })},
		{"jitter-negative", mutate(func(c *scenario.Config) { c.Faults.Jitter = -1 })},
		{"crash-node-out-of-range", mutate(func(c *scenario.Config) {
			c.Faults.Crashes = []faults.Crash{{Node: 50, At: 1}}
		})},
		{"crash-node-negative", mutate(func(c *scenario.Config) {
			c.Faults.Crashes = []faults.Crash{{Node: -1, At: 1}}
		})},
		{"crash-beyond-span", mutate(func(c *scenario.Config) {
			c.Faults.Crashes = []faults.Crash{{Node: 3, At: 1 << 60}}
		})},
		{"crash-recover-before-at", mutate(func(c *scenario.Config) {
			c.Faults.Crashes = []faults.Crash{{Node: 3, At: 10, Recover: 5}}
		})},
		{"reliability-without-plan", mutate(func(c *scenario.Config) {
			c.Faults = nil
			c.Reliability = faults.Reliability{Policy: faults.PolicyRetransmit}
		})},
		{"unknown-policy", mutate(func(c *scenario.Config) {
			c.Reliability.Policy = faults.Policy(99)
		})},
		{"negative-attempts", mutate(func(c *scenario.Config) {
			c.Reliability = faults.Reliability{Policy: faults.PolicyReroute, MaxAttempts: -2}
		})},
		{"negative-backoff", mutate(func(c *scenario.Config) {
			c.Reliability = faults.Reliability{Policy: faults.PolicyRetransmit, RetryBackoff: -time.Nanosecond}
		})},
		{"faults-with-crowds", mutate(func(c *scenario.Config) {
			c.Protocol = scenario.ProtocolCrowds
			c.CrowdsPf = 0.6
			c.StrategySpec = "crowds:0.6,5"
		})},
		{"faults-with-rounds", mutate(func(c *scenario.Config) { c.Workload.Rounds = 3 })},
	}
	backends := []scenario.BackendKind{
		scenario.BackendExact, scenario.BackendMonteCarlo, scenario.BackendTestbed,
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, kind := range backends {
				cfg := tc.cfg
				cfg.Backend = kind
				if _, err := scenario.Run(cfg); !errors.Is(err, scenario.ErrBadConfig) {
					t.Errorf("%s: err = %v, want ErrBadConfig", kind, err)
				}
			}
		})
	}
}

// TestLosslessFaultFieldsDefault: a run without a fault plan reports the
// trivial reliability statistics on every backend.
func TestLosslessFaultFieldsDefault(t *testing.T) {
	for _, kind := range []scenario.BackendKind{
		scenario.BackendExact, scenario.BackendMonteCarlo, scenario.BackendTestbed,
	} {
		cfg := scenario.Config{
			N:            10,
			StrategySpec: "uniform:1,3",
			Adversary:    scenario.Adversary{Count: 2},
			Workload:     scenario.Workload{Messages: 500, Seed: 7, Workers: 2},
			Backend:      kind,
		}
		res, err := scenario.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if res.DeliveryRate != 1 || res.MeanAttempts != 1 {
			t.Errorf("%s: delivery = %v, attempts = %v, want 1, 1", kind, res.DeliveryRate, res.MeanAttempts)
		}
		if res.HDegraded != res.H {
			t.Errorf("%s: HDegraded = %v != H = %v", kind, res.HDegraded, res.H)
		}
	}
}

// TestLossyCrossBackendNone: under PolicyNone the exact backend's
// effective-delivery closed form, the loss-aware sampler, and the lossy
// kernel agree on H over delivered messages and on the delivery rate.
func TestLossyCrossBackendNone(t *testing.T) {
	for _, q := range []float64{0.05, 0.2} {
		t.Run(fmt.Sprintf("q=%v", q), func(t *testing.T) {
			cfg := lossyBase(12, 3, 6000, q, faults.PolicyNone)
			cfg.Backend = scenario.BackendExact
			exact, err := scenario.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if exact.HDegraded != exact.H {
				t.Errorf("exact HDegraded = %v != H = %v (no retries under PolicyNone)", exact.HDegraded, exact.H)
			}
			for _, kind := range []scenario.BackendKind{scenario.BackendMonteCarlo, scenario.BackendTestbed} {
				run := cfg
				run.Backend = kind
				res, err := scenario.Run(run)
				if err != nil {
					t.Fatalf("%s: %v", kind, err)
				}
				tol := 4*res.StdErr + 0.02
				if d := math.Abs(res.H - exact.H); d > tol {
					t.Errorf("%s H = %v ± %v, exact H = %v (Δ=%v > %v)", kind, res.H, res.StdErr, exact.H, d, tol)
				}
				// Delivery is a Bernoulli mean over the injected messages.
				se := math.Sqrt(exact.DeliveryRate*(1-exact.DeliveryRate)/6000) + 1e-9
				if d := math.Abs(res.DeliveryRate - exact.DeliveryRate); d > 4*se+0.01 {
					t.Errorf("%s delivery = %v, exact = %v (Δ=%v)", kind, res.DeliveryRate, exact.DeliveryRate, d)
				}
				if res.HDegraded != res.H {
					t.Errorf("%s HDegraded = %v != H = %v under PolicyNone", kind, res.HDegraded, res.H)
				}
				if res.MeanAttempts != 1 {
					t.Errorf("%s MeanAttempts = %v, want 1", kind, res.MeanAttempts)
				}
			}
		})
	}
}

// TestLossyCrossBackendRetry: the sampler and the kernel agree on every
// reliability statistic under both retry policies (the exact backend
// refuses them — pinned in TestExactRefusesRetryPolicies).
func TestLossyCrossBackendRetry(t *testing.T) {
	for _, pol := range []faults.Policy{faults.PolicyRetransmit, faults.PolicyReroute} {
		t.Run(pol.String(), func(t *testing.T) {
			cfg := lossyBase(12, 3, 6000, 0.1, pol)
			cfg.Backend = scenario.BackendMonteCarlo
			mc, err := scenario.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Backend = scenario.BackendTestbed
			tb, err := scenario.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tol := 4*(mc.StdErr+tb.StdErr) + 0.02
			if d := math.Abs(mc.H - tb.H); d > tol {
				t.Errorf("H: mc = %v ± %v, testbed = %v ± %v (Δ=%v > %v)", mc.H, mc.StdErr, tb.H, tb.StdErr, d, tol)
			}
			if d := math.Abs(mc.HDegraded - tb.HDegraded); d > tol+0.03 {
				t.Errorf("HDegraded: mc = %v, testbed = %v (Δ=%v)", mc.HDegraded, tb.HDegraded, d)
			}
			if d := math.Abs(mc.DeliveryRate - tb.DeliveryRate); d > 0.02 {
				t.Errorf("delivery: mc = %v, testbed = %v", mc.DeliveryRate, tb.DeliveryRate)
			}
			if d := math.Abs(mc.MeanAttempts - tb.MeanAttempts); d > 0.1 {
				t.Errorf("attempts: mc = %v, testbed = %v", mc.MeanAttempts, tb.MeanAttempts)
			}
			for _, r := range []scenario.Result{mc, tb} {
				if r.HDegraded > r.H+1e-6 {
					t.Errorf("HDegraded = %v > H = %v", r.HDegraded, r.H)
				}
			}
		})
	}
}

// TestRerouteTimelineAgreement: PolicyReroute runs on a Messages
// timeline — each phase's rerouting waves finish inside the phase's
// window — and the sampler and the kernel agree at 4σ on H, HDegraded,
// the delivery rate and the attempt statistic, under both receiver modes.
// H's σ is the runs' own standard error; the other statistics take the
// Bernoulli σ of a delivery and the Bhatia–Davis bound on the variance of
// a value confined to an interval (attempts to [1, MaxAttempts],
// degraded entropies to [0, log2 of the largest population]).
func TestRerouteTimelineAgreement(t *testing.T) {
	const perEpoch = 3000
	timeline := []scenario.Epoch{
		{Messages: perEpoch},
		{Messages: perEpoch, Join: 5, Compromise: 2},
		{Messages: perEpoch, Leave: 6},
	}
	total := float64(len(timeline) * perEpoch)
	// boundedSE is the standard error of a mean of total values confined to
	// [lo, hi] with mean mu, by the Bhatia–Davis inequality.
	boundedSE := func(mu, lo, hi float64) float64 { return math.Sqrt(max((hi-mu)*(mu-lo), 0) / total) }
	for _, honest := range []bool{false, true} {
		for _, q := range []float64{0.05, 0.2} {
			t.Run(fmt.Sprintf("honest-receiver=%v/q=%v", honest, q), func(t *testing.T) {
				cfg := scenario.Config{
					N:            30,
					StrategySpec: "uniform:1,6",
					Adversary:    scenario.Adversary{Count: 4, UncompromisedReceiver: honest},
					Timeline:     timeline,
					Workload:     scenario.Workload{Seed: 23, Workers: 2},
					Faults:       &faults.Plan{LinkLoss: q},
					Reliability:  faults.Reliability{Policy: faults.PolicyReroute},
				}
				res := map[scenario.BackendKind]scenario.Result{}
				for _, kind := range []scenario.BackendKind{scenario.BackendMonteCarlo, scenario.BackendTestbed} {
					cfg.Backend = kind
					r, err := scenario.Run(cfg)
					if err != nil {
						t.Fatalf("%s: %v", kind, err)
					}
					if len(r.Epochs) != len(timeline) {
						t.Fatalf("%s: %d epochs, want %d", kind, len(r.Epochs), len(timeline))
					}
					res[kind] = r
				}
				mc, tb := res[scenario.BackendMonteCarlo], res[scenario.BackendTestbed]
				maxAttempts := float64(faults.DefaultMaxAttempts)
				maxH := math.Log2(35)
				checks := []struct {
					name       string
					mc, tb, se float64
				}{
					{"H", mc.H, tb.H, math.Hypot(mc.StdErr, tb.StdErr)},
					{"HDegraded", mc.HDegraded, tb.HDegraded,
						math.Hypot(boundedSE(mc.HDegraded, 0, maxH), boundedSE(tb.HDegraded, 0, maxH))},
					{"DeliveryRate", mc.DeliveryRate, tb.DeliveryRate,
						math.Hypot(boundedSE(mc.DeliveryRate, 0, 1), boundedSE(tb.DeliveryRate, 0, 1))},
					{"MeanAttempts", mc.MeanAttempts, tb.MeanAttempts,
						math.Hypot(boundedSE(mc.MeanAttempts, 1, maxAttempts), boundedSE(tb.MeanAttempts, 1, maxAttempts))},
				}
				for _, c := range checks {
					d := math.Abs(c.mc - c.tb)
					t.Logf("%s: mc = %.4f, testbed = %.4f, Δ = %.4f, 4σ = %.4f", c.name, c.mc, c.tb, d, 4*c.se)
					if d > 4*c.se {
						t.Errorf("%s: mc = %v, testbed = %v (Δ=%v > 4σ = %v)", c.name, c.mc, c.tb, d, 4*c.se)
					}
				}
				if tb.MeanAttempts <= 1 {
					t.Errorf("testbed rerouted nothing: attempts = %v", tb.MeanAttempts)
				}
			})
		}
	}
}

// TestExactRefusesRetryPolicies: retry evidence is outside the closed
// forms, so the exact backend must refuse with a capability error rather
// than silently return the PolicyNone value.
func TestExactRefusesRetryPolicies(t *testing.T) {
	for _, pol := range []faults.Policy{faults.PolicyRetransmit, faults.PolicyReroute} {
		cfg := lossyBase(10, 2, 100, 0.1, pol)
		cfg.Backend = scenario.BackendExact
		_, err := scenario.Run(cfg)
		if !isUnsupported(err) {
			t.Errorf("%v: err = %v, want capability error", pol, err)
		}
	}
	crash := lossyBase(10, 2, 100, 0.1, faults.PolicyNone)
	crash.Faults.Crashes = []faults.Crash{{Node: 1, At: 3, Recover: 9}}
	for _, kind := range []scenario.BackendKind{scenario.BackendExact, scenario.BackendMonteCarlo} {
		cfg := crash
		cfg.Backend = kind
		if _, err := scenario.Run(cfg); !isUnsupported(err) {
			t.Errorf("%s with crashes: err = %v, want capability error", kind, err)
		}
	}
}

// TestRerouteDeliveryBound pins the acceptance criterion: rerouting with
// the default attempt budget at 5% link loss delivers at least 99% of
// the traffic.
func TestRerouteDeliveryBound(t *testing.T) {
	cfg := lossyBase(14, 3, 4000, 0.05, faults.PolicyReroute)
	cfg.Backend = scenario.BackendTestbed
	res, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveryRate < 0.99 {
		t.Errorf("reroute delivery = %v at 5%% loss, want ≥ 0.99", res.DeliveryRate)
	}
	if res.MeanAttempts < 1 || res.MeanAttempts > float64(faults.DefaultMaxAttempts) {
		t.Errorf("mean attempts = %v outside [1, %d]", res.MeanAttempts, faults.DefaultMaxAttempts)
	}
}

// TestTotalLossTerminates: a network losing every packet still settles,
// reports zero delivery, and H over (zero) delivered messages is zero —
// on every backend that accepts the policy.
func TestTotalLossTerminates(t *testing.T) {
	for _, pol := range []faults.Policy{faults.PolicyNone, faults.PolicyRetransmit, faults.PolicyReroute} {
		t.Run(pol.String(), func(t *testing.T) {
			for _, kind := range []scenario.BackendKind{
				scenario.BackendExact, scenario.BackendMonteCarlo, scenario.BackendTestbed,
			} {
				cfg := lossyBase(10, 2, 200, 1.0, pol)
				cfg.Backend = kind
				res, err := scenario.Run(cfg)
				if isUnsupported(err) {
					continue // exact refuses retry policies
				}
				if err != nil {
					t.Fatalf("%s: %v", kind, err)
				}
				if res.DeliveryRate != 0 || res.H != 0 || res.HDegraded != 0 {
					t.Errorf("%s: delivery = %v, H = %v, HDegraded = %v, want all zero",
						kind, res.DeliveryRate, res.H, res.HDegraded)
				}
			}
		})
	}
}

// TestDegradedGapGrowsWithLoss: the retry-anonymity cost — H minus the
// retry-degraded degree — is nonnegative and grows with the loss rate,
// the headline robustness trade-off of the reliability layer.
func TestDegradedGapGrowsWithLoss(t *testing.T) {
	gap := func(q float64) float64 {
		cfg := lossyBase(16, 4, 8000, q, faults.PolicyRetransmit)
		cfg.Backend = scenario.BackendMonteCarlo
		res, err := scenario.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g := res.H - res.HDegraded
		if g < -1e-9 {
			t.Errorf("q=%v: HDegraded = %v above H = %v", q, res.HDegraded, res.H)
		}
		return g
	}
	g1, g5, g20 := gap(0.01), gap(0.05), gap(0.20)
	if g20 <= g1 {
		t.Errorf("gap(20%%) = %v not above gap(1%%) = %v", g20, g1)
	}
	if g20 <= g5 {
		t.Errorf("gap(20%%) = %v not above gap(5%%) = %v", g20, g5)
	}
	t.Logf("retry-anonymity cost: gap(1%%)=%.4f gap(5%%)=%.4f gap(20%%)=%.4f bits", g1, g5, g20)
}

// TestCrashScheduleTestbed: a crash-and-recover schedule runs only on the
// testbed; messages routed through the dead window drop (or retransmit
// around it) and the run still settles deterministically.
func TestCrashScheduleTestbed(t *testing.T) {
	for _, pol := range []faults.Policy{faults.PolicyNone, faults.PolicyRetransmit} {
		t.Run(pol.String(), func(t *testing.T) {
			cfg := lossyBase(12, 3, 2000, 0, pol)
			cfg.Faults.Crashes = []faults.Crash{
				{Node: 4, At: 10, Recover: 400},
				{Node: 7, At: 50}, // never recovers
			}
			cfg.Backend = scenario.BackendTestbed
			res, err := scenario.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.DeliveryRate >= 1 {
				t.Errorf("delivery = %v, want < 1 with a permanently dead relay", res.DeliveryRate)
			}
			if res.DeliveryRate < 0.5 {
				t.Errorf("delivery = %v collapsed", res.DeliveryRate)
			}
			again, err := scenario.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.H != again.H || res.HDegraded != again.HDegraded ||
				res.DeliveryRate != again.DeliveryRate || res.MeanAttempts != again.MeanAttempts {
				t.Errorf("crash run not reproducible: (%v,%v,%v,%v) vs (%v,%v,%v,%v)",
					res.H, res.HDegraded, res.DeliveryRate, res.MeanAttempts,
					again.H, again.HDegraded, again.DeliveryRate, again.MeanAttempts)
			}
		})
	}
}

// TestFaultyDeterminism: faulted runs are pure functions of the seed on
// every backend, across the multi-shard kernel included.
func TestFaultyDeterminism(t *testing.T) {
	for _, kind := range []scenario.BackendKind{scenario.BackendMonteCarlo, scenario.BackendTestbed} {
		for _, pol := range []faults.Policy{faults.PolicyRetransmit, faults.PolicyReroute} {
			cfg := lossyBase(12, 3, 2500, 0.15, pol)
			cfg.Backend = kind
			a, err := scenario.Run(cfg)
			if err != nil {
				t.Fatalf("%s/%v: %v", kind, pol, err)
			}
			b, err := scenario.Run(cfg)
			if err != nil {
				t.Fatalf("%s/%v: %v", kind, pol, err)
			}
			if a.H != b.H || a.HDegraded != b.HDegraded || a.DeliveryRate != b.DeliveryRate ||
				a.MeanAttempts != b.MeanAttempts || a.Trials != b.Trials {
				t.Errorf("%s/%v not reproducible: (%v,%v,%v,%v,%d) vs (%v,%v,%v,%v,%d)",
					kind, pol, a.H, a.HDegraded, a.DeliveryRate, a.MeanAttempts, a.Trials,
					b.H, b.HDegraded, b.DeliveryRate, b.MeanAttempts, b.Trials)
			}
		}
	}
}

// TestLossyTimeline: a dynamic-population timeline with link loss blends
// per-phase delivery and degraded entropy; the backends agree on the
// blended statistics.
func TestLossyTimeline(t *testing.T) {
	base := scenario.Config{
		N:            12,
		StrategySpec: "uniform:1,3",
		Adversary:    scenario.Adversary{Count: 2},
		Workload:     scenario.Workload{Seed: 11, Workers: 4},
		Timeline: []scenario.Epoch{
			{Messages: 3000},
			{Messages: 3000, Compromise: 1, Join: 2},
		},
		Faults: &faults.Plan{LinkLoss: 0.1},
	}
	t.Run("policy-none-three-way", func(t *testing.T) {
		cfg := base
		cfg.Backend = scenario.BackendExact
		exact, err := scenario.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []scenario.BackendKind{scenario.BackendMonteCarlo, scenario.BackendTestbed} {
			run := cfg
			run.Backend = kind
			res, err := scenario.Run(run)
			if err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			tol := 4*res.StdErr + 0.03
			if d := math.Abs(res.H - exact.H); d > tol {
				t.Errorf("%s H = %v ± %v, exact = %v (Δ=%v > %v)", kind, res.H, res.StdErr, exact.H, d, tol)
			}
			if d := math.Abs(res.DeliveryRate - exact.DeliveryRate); d > 0.02 {
				t.Errorf("%s delivery = %v, exact = %v", kind, res.DeliveryRate, exact.DeliveryRate)
			}
		}
	})
	t.Run("retransmit-mc-vs-testbed", func(t *testing.T) {
		cfg := base
		cfg.Reliability = faults.Reliability{Policy: faults.PolicyRetransmit}
		cfg.Backend = scenario.BackendMonteCarlo
		mc, err := scenario.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Backend = scenario.BackendTestbed
		tb, err := scenario.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tol := 4*(mc.StdErr+tb.StdErr) + 0.03
		if d := math.Abs(mc.H - tb.H); d > tol {
			t.Errorf("H: mc = %v ± %v, testbed = %v ± %v (Δ=%v > %v)", mc.H, mc.StdErr, tb.H, tb.StdErr, d, tol)
		}
		if d := math.Abs(mc.HDegraded - tb.HDegraded); d > tol+0.05 {
			t.Errorf("HDegraded: mc = %v, testbed = %v", mc.HDegraded, tb.HDegraded)
		}
		if d := math.Abs(mc.DeliveryRate - tb.DeliveryRate); d > 0.02 {
			t.Errorf("delivery: mc = %v, testbed = %v", mc.DeliveryRate, tb.DeliveryRate)
		}
		if tb.HDegraded > tb.H+1e-6 {
			t.Errorf("testbed HDegraded = %v > H = %v", tb.HDegraded, tb.H)
		}
	})
}

// TestFaultedMixAndOnion: the fault machinery composes with the onion and
// threshold-mix substrates (testbed-only protocols for loss + retransmit).
func TestFaultedMixAndOnion(t *testing.T) {
	for _, proto := range []scenario.Protocol{scenario.ProtocolOnion, scenario.ProtocolMix} {
		t.Run(proto.String(), func(t *testing.T) {
			cfg := lossyBase(12, 3, 1500, 0.1, faults.PolicyRetransmit)
			cfg.Protocol = proto
			cfg.Backend = scenario.BackendTestbed
			res, err := scenario.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.DeliveryRate <= 0.5 || res.DeliveryRate > 1 {
				t.Errorf("delivery = %v", res.DeliveryRate)
			}
			if res.HDegraded > res.H+1e-6 {
				t.Errorf("HDegraded = %v > H = %v", res.HDegraded, res.H)
			}
			if res.MeanAttempts <= 1 {
				t.Errorf("mean attempts = %v, want > 1 under 10%% loss retransmit", res.MeanAttempts)
			}
		})
	}
}
