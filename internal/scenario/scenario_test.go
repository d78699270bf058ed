package scenario_test

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"anonmix/internal/faults"
	"anonmix/internal/scenario"
	"anonmix/internal/trace"
)

// TestCrossBackendAgreement is the property the scenario layer exists to
// guarantee: the same scenario produces the same anonymity degree on every
// backend that can execute it — exact == Monte-Carlo (within CI) ==
// testbed-empirical (within CI) — across strategies and both receiver
// modes.
func TestCrossBackendAgreement(t *testing.T) {
	const n = 14
	adversaries := []struct {
		name string
		adv  scenario.Adversary
	}{
		{"receiver-compromised", scenario.Adversary{Compromised: []trace.NodeID{2, 7, 11}}},
		{"receiver-uncompromised", scenario.Adversary{Compromised: []trace.NodeID{2, 7, 11}, UncompromisedReceiver: true}},
	}
	specs := []string{"fixed:3", "uniform:0,6", "pipenet", "remailer:2"}

	for _, adv := range adversaries {
		for _, spec := range specs {
			t.Run(adv.name+"/"+spec, func(t *testing.T) {
				base := scenario.Config{
					N:            n,
					StrategySpec: spec,
					Adversary:    adv.adv,
				}

				exactCfg := base
				exactCfg.Backend = scenario.BackendExact
				exact, err := scenario.Run(exactCfg)
				if err != nil {
					t.Fatal(err)
				}
				if exact.Estimated || exact.CI95 != 0 {
					t.Errorf("exact result carries sampling error: %+v", exact)
				}

				mcCfg := base
				mcCfg.Backend = scenario.BackendMonteCarlo
				mcCfg.Workload = scenario.Workload{Messages: 30000, Seed: 7, Workers: 4}
				mc, err := scenario.Run(mcCfg)
				if err != nil {
					t.Fatal(err)
				}
				if !mc.Estimated || mc.Trials != 30000 {
					t.Errorf("mc result: %+v", mc)
				}
				if d := math.Abs(mc.H - exact.H); d > 4*mc.StdErr+1e-3 {
					t.Errorf("MC H = %v ± %v, exact H = %v (Δ=%v)", mc.H, mc.StdErr, exact.H, d)
				}

				tbCfg := base
				tbCfg.Backend = scenario.BackendTestbed
				tbCfg.Workload = scenario.Workload{Messages: 4000, Seed: 11}
				tb, err := scenario.Run(tbCfg)
				if err != nil {
					t.Fatal(err)
				}
				if !tb.Estimated || tb.Kernel == nil || tb.Kernel.Events == 0 {
					t.Errorf("testbed result lacks kernel stats: %+v", tb)
				}
				if d := math.Abs(tb.H - exact.H); d > 4*tb.StdErr+1e-3 {
					t.Errorf("testbed H = %v ± %v, exact H = %v (Δ=%v)", tb.H, tb.StdErr, exact.H, d)
				}
			})
		}
	}
}

// TestProtocolSubstratesAgree: onion layering and threshold-mix batching
// change the wire format and the timing, not the observable structure — so
// the measured anonymity degree must still match the exact engine.
func TestProtocolSubstratesAgree(t *testing.T) {
	base := scenario.Config{
		N:            16,
		StrategySpec: "uniform:1,5",
		Adversary:    scenario.Adversary{Count: 3},
	}
	exactCfg := base
	exactCfg.Backend = scenario.BackendExact
	exact, err := scenario.Run(exactCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, proto := range []scenario.Protocol{scenario.ProtocolOnion, scenario.ProtocolMix} {
		t.Run(proto.String(), func(t *testing.T) {
			cfg := base
			cfg.Backend = scenario.BackendTestbed
			cfg.Protocol = proto
			cfg.Workload = scenario.Workload{Messages: 3000, Seed: 5}
			res, err := scenario.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if d := math.Abs(res.H - exact.H); d > 4*res.StdErr+1e-3 {
				t.Errorf("%s H = %v ± %v, exact H = %v", proto, res.H, res.StdErr, exact.H)
			}
			if proto == scenario.ProtocolMix && res.Kernel.BatchFlushes == 0 {
				t.Error("mix protocol ran without batch flushes")
			}
		})
	}
}

// TestCrowdsSubstrate: a cyclic-route spec on the testbed is promoted to
// the Crowds substrate and reports the Reiter–Rubin predecessor
// statistics.
func TestCrowdsSubstrate(t *testing.T) {
	res, err := scenario.Run(scenario.Config{
		N:            20,
		Backend:      scenario.BackendTestbed,
		StrategySpec: "crowds:0.7",
		Adversary:    scenario.Adversary{Count: 2},
		Workload:     scenario.Workload{Messages: 4000, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	cr := res.Crowds
	if cr == nil {
		t.Fatal("no crowds report")
	}
	if cr.Pf != 0.7 {
		t.Errorf("pf = %v (not recovered from the geometric strategy)", cr.Pf)
	}
	if cr.Observed == 0 {
		t.Fatal("no observed paths")
	}
	emp := float64(cr.Hits) / float64(cr.Observed)
	if math.Abs(emp-cr.PredecessorProb) > 0.05 {
		t.Errorf("empirical predecessor rate %v, closed form %v", emp, cr.PredecessorProb)
	}
}

// TestCrowdsTestbedRepeats: the jondo forwarder keys every draw on the
// hop it decides, so one seed gives one run — the same kernel event
// count and predecessor observations — whatever the shard scheduling.
func TestCrowdsTestbedRepeats(t *testing.T) {
	cfg := scenario.Config{
		N:            16,
		Backend:      scenario.BackendTestbed,
		StrategySpec: "crowds:0.7",
		Adversary:    scenario.Adversary{Count: 2},
		Workload:     scenario.Workload{Messages: 2000, Seed: 3},
	}
	type triple struct {
		events         uint64
		observed, hits int
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want triple
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for i := 0; i < 20; i++ {
			res, err := scenario.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := triple{res.Kernel.Events, res.Crowds.Observed, res.Crowds.Hits}
			if want == (triple{}) {
				want = got
			}
			if got != want {
				t.Fatalf("GOMAXPROCS %d run %d: (events, observed, hits) = %v, first run %v", procs, i, got, want)
			}
		}
	}
}

// TestCapabilityErrors: every backend refuses what it cannot run with the
// one shared capability error.
func TestCapabilityErrors(t *testing.T) {
	cyclic := scenario.Config{
		N:            12,
		StrategySpec: "crowds:0.7",
		Adversary:    scenario.Adversary{Count: 1},
		Workload:     scenario.Workload{Messages: 100, Seed: 1},
	}
	for _, backend := range []scenario.BackendKind{scenario.BackendExact, scenario.BackendMonteCarlo} {
		cfg := cyclic
		cfg.Backend = backend
		// On ProtocolPlain a cyclic strategy is promoted to the Crowds
		// substrate; pin the onion protocol so the analytic backends see
		// the cyclic strategy itself.
		cfg.Protocol = scenario.ProtocolOnion
		_, err := scenario.Run(cfg)
		if err == nil {
			t.Fatalf("%s accepted a cyclic strategy", backend)
		}
		if !errors.Is(err, scenario.ErrComplicatedPaths) {
			t.Errorf("%s: err %v does not match scenario.ErrComplicatedPaths", backend, err)
		}
		var capErr *scenario.CapabilityError
		if !errors.As(err, &capErr) {
			t.Errorf("%s: err %v is not a *scenario.CapabilityError", backend, err)
		} else if capErr.Backend != string(backend) {
			t.Errorf("refusing backend = %q, want %q", capErr.Backend, backend)
		}
	}

	// Analytic backends refuse wire protocols with their own routing.
	cfg := scenario.Config{
		N:            12,
		Backend:      scenario.BackendExact,
		StrategySpec: "fixed:3",
		Protocol:     scenario.ProtocolMix,
		Adversary:    scenario.Adversary{Count: 1},
	}
	if _, err := scenario.Run(cfg); !errors.Is(err, scenario.ErrProtocol) {
		t.Errorf("exact×mix err = %v", err)
	}
}

// TestRefusalMatrix pins the capability table over every backend: each
// scenario element a backend cannot run is refused with its sentinel, as
// a *CapabilityError labelled with the backend the config asked for, and
// every element it can run does run.
func TestRefusalMatrix(t *testing.T) {
	base := scenario.Config{
		N:            12,
		StrategySpec: "fixed:3",
		Adversary:    scenario.Adversary{Count: 2},
		Workload:     scenario.Workload{Messages: 40, Seed: 1},
	}
	exact, mc, testbed := scenario.BackendExact, scenario.BackendMonteCarlo, scenario.BackendTestbed
	rows := []struct {
		name string
		mut  func(*scenario.Config)
		// want maps each backend to its refusal sentinel, nil where it runs.
		want map[scenario.BackendKind]error
	}{
		{"mix protocol", func(c *scenario.Config) { c.Protocol = scenario.ProtocolMix },
			map[scenario.BackendKind]error{exact: scenario.ErrProtocol, mc: scenario.ErrProtocol}},
		{"crowds protocol", func(c *scenario.Config) { c.Protocol, c.StrategySpec = scenario.ProtocolCrowds, "crowds:0.7" },
			map[scenario.BackendKind]error{exact: scenario.ErrProtocol, mc: scenario.ErrProtocol}},
		{"cyclic strategy", func(c *scenario.Config) { c.Protocol, c.StrategySpec = scenario.ProtocolOnion, "onionrouting2:0.6,6" },
			map[scenario.BackendKind]error{exact: scenario.ErrComplicatedPaths, mc: scenario.ErrComplicatedPaths, testbed: scenario.ErrComplicatedPaths}},
		{"no self-report", func(c *scenario.Config) { c.Adversary.NoSenderSelfReport = true },
			map[scenario.BackendKind]error{mc: scenario.ErrInference, testbed: scenario.ErrInference}},
		{"no self-report sessions", func(c *scenario.Config) { c.Adversary.NoSenderSelfReport, c.Workload.Rounds = true, 3 },
			map[scenario.BackendKind]error{exact: scenario.ErrInference, mc: scenario.ErrInference, testbed: scenario.ErrInference}},
		{"crash schedule", func(c *scenario.Config) {
			c.Faults = &faults.Plan{Crashes: []faults.Crash{{Node: 5, At: 5, Recover: 20}}}
		}, map[scenario.BackendKind]error{exact: scenario.ErrFaults, mc: scenario.ErrFaults}},
		{"retry policy", func(c *scenario.Config) {
			c.Faults = &faults.Plan{LinkLoss: 0.1}
			c.Reliability = faults.Reliability{Policy: faults.PolicyRetransmit}
		}, map[scenario.BackendKind]error{exact: scenario.ErrFaults}},
		{"policy-none loss", func(c *scenario.Config) { c.Faults = &faults.Plan{LinkLoss: 0.1} }, nil},
		{"crowds timeline", func(c *scenario.Config) {
			c.Protocol, c.StrategySpec = scenario.ProtocolCrowds, "crowds:0.7"
			c.Workload.Messages = 0
			c.Timeline = []scenario.Epoch{{Messages: 20}, {Messages: 20, Join: 2}}
		}, map[scenario.BackendKind]error{exact: scenario.ErrProtocol, mc: scenario.ErrProtocol, testbed: scenario.ErrProtocol}},
	}
	for _, row := range rows {
		for _, backend := range []scenario.BackendKind{exact, mc, testbed} {
			t.Run(fmt.Sprintf("%s/%s", row.name, backend), func(t *testing.T) {
				cfg := base
				cfg.Backend = backend
				row.mut(&cfg)
				_, err := scenario.Run(cfg)
				want := row.want[backend]
				if want == nil {
					if err != nil {
						t.Fatalf("refused: %v", err)
					}
					return
				}
				var capErr *scenario.CapabilityError
				if !errors.Is(err, want) || !errors.As(err, &capErr) {
					t.Fatalf("err = %v, want a *CapabilityError matching %v", err, want)
				}
				if capErr.Backend != string(backend) {
					t.Errorf("refusal labelled %q, want %q", capErr.Backend, backend)
				}
			})
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := scenario.Run(scenario.Config{N: 1}); !errors.Is(err, scenario.ErrBadConfig) {
		t.Errorf("n=1 err = %v", err)
	}
	if _, err := scenario.Run(scenario.Config{N: 10}); !errors.Is(err, scenario.ErrBadConfig) {
		t.Errorf("missing strategy err = %v", err)
	}
	if _, err := scenario.Run(scenario.Config{
		N: 10, StrategySpec: "fixed:3", Backend: "quantum",
	}); !errors.Is(err, scenario.ErrUnknownBackend) {
		t.Errorf("unknown backend err = %v", err)
	}
	if _, err := scenario.Run(scenario.Config{
		N: 10, StrategySpec: "fixed:3",
		Adversary: scenario.Adversary{Compromised: []trace.NodeID{3, 3}},
	}); !errors.Is(err, scenario.ErrBadConfig) {
		t.Errorf("duplicate compromised err = %v", err)
	}
	if _, err := scenario.Run(scenario.Config{N: 10, StrategySpec: "warp:9"}); err == nil {
		t.Error("unknown strategy accepted")
	}
}

// TestNormalizeValidation pins the scenario layer's input checks: every
// malformed field must be rejected up front with ErrBadConfig, uniformly
// across backends, instead of leaking backend-internal errors.
func TestNormalizeValidation(t *testing.T) {
	valid := scenario.Config{
		N:            12,
		StrategySpec: "fixed:3",
		Adversary:    scenario.Adversary{Count: 2},
		Workload:     scenario.Workload{Messages: 10, Seed: 1},
	}
	cases := []struct {
		name string
		mut  func(*scenario.Config)
	}{
		{"crowds pf above one", func(c *scenario.Config) { c.CrowdsPf = 1.5 }},
		{"crowds pf exactly one", func(c *scenario.Config) { c.CrowdsPf = 1 }},
		{"crowds pf negative", func(c *scenario.Config) { c.CrowdsPf = -0.2 }},
		{"crowds pf NaN", func(c *scenario.Config) { c.CrowdsPf = math.NaN() }},
		{"crowds pf 1.5 on crowds substrate", func(c *scenario.Config) {
			c.Backend = scenario.BackendTestbed
			c.Protocol = scenario.ProtocolCrowds
			c.CrowdsPf = 1.5
		}},
		{"mc zero messages", func(c *scenario.Config) {
			c.Backend = scenario.BackendMonteCarlo
			c.Workload.Messages = 0
		}},
		{"testbed zero messages", func(c *scenario.Config) {
			c.Backend = scenario.BackendTestbed
			c.Workload.Messages = 0
		}},
		{"mc negative messages", func(c *scenario.Config) {
			c.Backend = scenario.BackendMonteCarlo
			c.Workload.Messages = -5
		}},
		{"exact rounds without messages", func(c *scenario.Config) {
			c.Workload.Rounds = 4
			c.Workload.Messages = 0
		}},
		{"negative rounds", func(c *scenario.Config) { c.Workload.Rounds = -1 }},
		{"confidence one", func(c *scenario.Config) { c.Workload.Confidence = 1 }},
		{"confidence negative", func(c *scenario.Config) { c.Workload.Confidence = -0.1 }},
		{"fixed sender out of range", func(c *scenario.Config) {
			c.Workload.FixedSender = true
			c.Workload.Sender = 12
		}},
		{"fixed sender compromised", func(c *scenario.Config) {
			c.Workload.FixedSender = true
			c.Workload.Sender = 1
		}},
		{"fixed sender in the explicit prefix", func(c *scenario.Config) {
			c.Adversary = scenario.Adversary{Compromised: []trace.NodeID{0, 1}}
			c.Workload.FixedSender = true
			c.Workload.Sender = 1
		}},
		{"negative count", func(c *scenario.Config) { c.Adversary.Count = -1 }},
		{"count above n", func(c *scenario.Config) { c.Adversary.Count = 13 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := valid
			tc.mut(&cfg)
			if _, err := scenario.Run(cfg); !errors.Is(err, scenario.ErrBadConfig) {
				t.Errorf("err = %v, want ErrBadConfig", err)
			}
		})
	}
	// A legal explicit pf passes, and the exact backend still does not
	// need a message budget for single-shot runs.
	ok := valid
	ok.Workload.Messages = 0
	if _, err := scenario.Run(ok); err != nil {
		t.Errorf("exact single-shot without messages: %v", err)
	}
	// The first honest node may be the fixed sender: a count adversary
	// holds nodes 0..Count−1.
	pinned := valid
	pinned.Workload.FixedSender = true
	pinned.Workload.Sender = 2
	if _, err := scenario.Run(pinned); err != nil {
		t.Errorf("fixed sender %v just past the count: %v", pinned.Workload.Sender, err)
	}
	crowdsOK := valid
	crowdsOK.Backend = scenario.BackendTestbed
	crowdsOK.Protocol = scenario.ProtocolCrowds
	crowdsOK.CrowdsPf = 0.7
	crowdsOK.Workload.Messages = 200
	if _, err := scenario.Run(crowdsOK); err != nil {
		t.Errorf("pf=0.7 rejected: %v", err)
	}
}

// TestConfigNotAliased is the defensive-copy regression test: running the
// same Config value on two backends must not let either mutate the
// caller's Compromised slice (normalize hands backends a copy), and the
// config must keep producing identical results across reuse.
func TestConfigNotAliased(t *testing.T) {
	compromised := []trace.NodeID{11, 2, 7} // deliberately unsorted
	cfg := scenario.Config{
		N:            14,
		StrategySpec: "uniform:0,6",
		Adversary:    scenario.Adversary{Compromised: compromised},
		Workload:     scenario.Workload{Messages: 800, Seed: 3, Workers: 2},
	}
	cfg.Backend = scenario.BackendExact
	first, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []scenario.BackendKind{scenario.BackendTestbed, scenario.BackendMonteCarlo} {
		cfg.Backend = backend
		if _, err := scenario.Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	want := []trace.NodeID{11, 2, 7}
	for i, id := range compromised {
		if id != want[i] {
			t.Fatalf("caller's Compromised slice mutated: %v", compromised)
		}
	}
	cfg.Backend = scenario.BackendExact
	again, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again.H != first.H {
		t.Errorf("config reuse changed the result: %v vs %v", again.H, first.H)
	}
}

func TestParseHelpers(t *testing.T) {
	for in, want := range map[string]scenario.BackendKind{
		"exact": scenario.BackendExact, "": scenario.BackendExact,
		"mc": scenario.BackendMonteCarlo, "montecarlo": scenario.BackendMonteCarlo,
		"testbed": scenario.BackendTestbed, "SIM": scenario.BackendTestbed,
	} {
		got, err := scenario.ParseBackend(in)
		if err != nil || got != want {
			t.Errorf("ParseBackend(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := scenario.ParseBackend("nope"); err == nil {
		t.Error("bad backend accepted")
	}
	for in, want := range map[string]scenario.Protocol{
		"plain": scenario.ProtocolPlain, "onion": scenario.ProtocolOnion,
		"crowds": scenario.ProtocolCrowds, "mix": scenario.ProtocolMix,
	} {
		got, err := scenario.ParseProtocol(in)
		if err != nil || got != want {
			t.Errorf("ParseProtocol(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := scenario.ParseProtocol("pigeon"); err == nil {
		t.Error("bad protocol accepted")
	}
}

// TestEngineShared: the process-wide engine cache returns the same engine
// for the same configuration and distinct engines for distinct ones.
func TestEngineShared(t *testing.T) {
	e1, err := scenario.Engine(33, 2)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := scenario.Engine(33, 2)
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Error("same configuration produced distinct engines")
	}
	e3, err := scenario.Engine(33, 3)
	if err != nil {
		t.Fatal(err)
	}
	if e3 == e1 {
		t.Error("distinct configurations share an engine")
	}
}

// TestNoSelfReportIsExactOnly: the sampling backends hardcode the
// local-eavesdropper branch, so the no-self-report ablation must be
// refused with a capability error rather than silently biasing H.
func TestNoSelfReportIsExactOnly(t *testing.T) {
	base := scenario.Config{
		N:            12,
		StrategySpec: "fixed:3",
		Adversary:    scenario.Adversary{Count: 2, NoSenderSelfReport: true},
		Workload:     scenario.Workload{Messages: 100, Seed: 1},
	}
	exactCfg := base
	exactCfg.Backend = scenario.BackendExact
	if _, err := scenario.Run(exactCfg); err != nil {
		t.Errorf("exact backend refused the ablation: %v", err)
	}
	for _, kind := range []scenario.BackendKind{scenario.BackendMonteCarlo, scenario.BackendTestbed} {
		cfg := base
		cfg.Backend = kind
		if _, err := scenario.Run(cfg); !errors.Is(err, scenario.ErrInference) {
			t.Errorf("%s: err = %v, want scenario.ErrInference", kind, err)
		}
	}
}
