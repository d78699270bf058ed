package scenario_test

// The session driver's contracts seen through Run: the degradation curve
// and identification statistics of Monte-Carlo sessions, their validation
// and cancellation, their independence of the worker count, the exact
// backend's sessions equal to Monte-Carlo's bit for bit, the Deanonymized
// count every sampled backend fills in, and the one capability error the
// sampled backends give for models they cannot run, whatever the
// workload's shape.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"anonmix/internal/scenario"
	"anonmix/internal/trace"
)

// roundsConfig is a small static degradation run on the Monte-Carlo
// backend.
func roundsConfig() scenario.Config {
	return scenario.Config{
		N:            16,
		Backend:      scenario.BackendMonteCarlo,
		StrategySpec: "uniform:1,5",
		Adversary:    scenario.Adversary{Compromised: []trace.NodeID{3, 11}},
		Workload:     scenario.Workload{Messages: 1200, Rounds: 8, Seed: 7, Workers: 4},
	}
}

// threePhase is a degradation timeline with a join, a compromise and a
// leave.
var threePhase = []scenario.Epoch{{Rounds: 4}, {Rounds: 4, Join: 10, Compromise: 3}, {Rounds: 4, Leave: 10}}

// sameResult reports whether two results agree in every field the run
// computes (Elapsed is wall clock).
func sameResult(a, b scenario.Result) bool {
	a.Elapsed, b.Elapsed = 0, 0
	return reflect.DeepEqual(a, b)
}

func TestMCRoundsCurve(t *testing.T) {
	res, err := scenario.Run(roundsConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.HRounds) != 8 {
		t.Fatalf("HRounds length %d", len(res.HRounds))
	}
	// The final summary and the last curve point are two computations of
	// the same mean (Welford merge vs plain sum).
	if d := math.Abs(res.H - res.HRounds[7]); d > 1e-9 {
		t.Errorf("H = %v, HRounds[7] = %v", res.H, res.HRounds[7])
	}
	for r := 1; r < len(res.HRounds); r++ {
		if res.HRounds[r] > res.HRounds[r-1]+0.05 {
			t.Errorf("H_%d = %v > H_%d = %v", r+1, res.HRounds[r], r, res.HRounds[r-1])
		}
	}
	if !(res.HRounds[7] < res.HRounds[0]) {
		t.Errorf("no degradation over 8 rounds: %v", res.HRounds)
	}
	if res.Trials != 1200 || res.StdErr <= 0 {
		t.Errorf("result: %+v", res)
	}
	// Without a confidence threshold no identification is tracked.
	if res.IdentifiedShare != 0 || res.MeanRoundsToIdentify != 0 {
		t.Errorf("identification tracked without confidence: %+v", res)
	}
}

// TestMCRoundsDeterministic: the same four-worker session run twice gives
// the same H, standard error and curve, bit for bit.
func TestMCRoundsDeterministic(t *testing.T) {
	cfg := roundsConfig()
	a, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.H != b.H || a.StdErr != b.StdErr {
		t.Errorf("not bit-identical: %v±%v vs %v±%v", a.H, a.StdErr, b.H, b.StdErr)
	}
	if len(a.HRounds) != 8 || len(b.HRounds) != 8 {
		t.Fatalf("HRounds lengths %d and %d, want 8", len(a.HRounds), len(b.HRounds))
	}
	for r := range a.HRounds {
		if a.HRounds[r] != b.HRounds[r] {
			t.Errorf("HRounds[%d]: %v vs %v", r, a.HRounds[r], b.HRounds[r])
		}
	}
}

func TestMCRoundsIdentification(t *testing.T) {
	cfg := roundsConfig()
	cfg.Workload.Rounds = 150
	cfg.Workload.Messages = 60
	cfg.Workload.Confidence = 0.9
	cfg.Workload.FixedSender = true
	cfg.Workload.Sender = 5
	res, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.IdentifiedShare < 0.9 {
		t.Errorf("identified share %v, want ≥ 0.9", res.IdentifiedShare)
	}
	if res.MeanRoundsToIdentify <= 1 || res.MeanRoundsToIdentify > 150 {
		t.Errorf("mean rounds %v", res.MeanRoundsToIdentify)
	}
	if res.CompromisedSenderShare != 0 {
		t.Errorf("fixed honest sender flagged compromised")
	}
}

func TestRoundsValidation(t *testing.T) {
	for name, mut := range map[string]func(*scenario.Config){
		"negative rounds":     func(c *scenario.Config) { c.Workload.Rounds = -1 },
		"confidence too high": func(c *scenario.Config) { c.Workload.Confidence = 1 },
		"confidence negative": func(c *scenario.Config) { c.Workload.Confidence = -0.5 },
		"fixed sender range":  func(c *scenario.Config) { c.Workload.FixedSender = true; c.Workload.Sender = 99 },
	} {
		cfg := roundsConfig()
		mut(&cfg)
		if _, err := scenario.Run(cfg); !errors.Is(err, scenario.ErrBadConfig) {
			t.Errorf("%s: err = %v", name, err)
		}
	}
}

// TestSessionWorkerIndependence: every session draws from its own stream
// and batches merge in order, so a session run is a pure function of the
// config — Workers changes no bit of the result, static or timeline.
func TestSessionWorkerIndependence(t *testing.T) {
	static := roundsConfig()
	static.Workload.Messages = 700
	static.Workload.Confidence = 0.9
	timeline := scenario.Config{
		N: 40, Backend: scenario.BackendMonteCarlo, StrategySpec: "uniform:1,8",
		Adversary: scenario.Adversary{Count: 8},
		Timeline:  threePhase,
		Workload:  scenario.Workload{Messages: 700, Seed: 3, Confidence: 0.6},
	}
	for name, cfg := range map[string]scenario.Config{"static": static, "timeline": timeline} {
		t.Run(name, func(t *testing.T) {
			cfg.Workload.Workers = 1
			serial, err := scenario.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Workload.Workers = 7
			wide, err := scenario.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !sameResult(serial, wide) {
				t.Errorf("result depends on worker count:\n 1 worker: %+v\n 7 workers: %+v", serial, wide)
			}
		})
	}
}

// TestExactRoundsMatchMonteCarlo: the exact backend runs its sessions
// through the Monte-Carlo backend's driver with one worker, so the two
// agree bit for bit at any Monte-Carlo worker count, static sessions and
// timeline ones alike.
func TestExactRoundsMatchMonteCarlo(t *testing.T) {
	for name, cfg := range map[string]scenario.Config{
		"static": {
			N: 40, StrategySpec: "uniform:1,5",
			Adversary: scenario.Adversary{Compromised: []trace.NodeID{3, 17, 9, 30, 21}},
			Workload:  scenario.Workload{Messages: 1000, Rounds: 8, Seed: 4, Confidence: 0.8},
		},
		"three-phase": {
			N: 40, StrategySpec: "uniform:1,8",
			Adversary: scenario.Adversary{Count: 8, UncompromisedReceiver: true},
			Timeline:  threePhase,
			Workload:  scenario.Workload{Messages: 600, Seed: 4, Confidence: 0.6},
		},
	} {
		t.Run(name, func(t *testing.T) {
			cfg.Backend = scenario.BackendExact
			exact, err := scenario.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if exact.Deanonymized == 0 {
				t.Errorf("no session deanonymized: %+v", exact)
			}
			for _, workers := range []int{1, 3, 8} {
				cfg.Backend = scenario.BackendMonteCarlo
				cfg.Workload.Workers = workers
				mc, err := scenario.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				mc.Backend = exact.Backend
				if !sameResult(exact, mc) {
					t.Errorf("workers %d: exact %+v\nMonte-Carlo %+v", workers, exact, mc)
				}
			}
		})
	}
}

// TestSessionsCanceled cancels a Monte-Carlo session run from its first
// progress report: the next batch boundary aborts it.
func TestSessionsCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := roundsConfig()
	cfg.Workload.Messages = 4000
	cfg.Workload.Workers = 2
	cfg.Progress = func(scenario.Progress) { cancel() }
	_, err := scenario.RunContext(ctx, cfg)
	if err == nil {
		t.Fatal("mid-run cancel returned no error")
	}
	assertCanceled(t, err)
}

// TestMCDeanonymizedMatchesTestbed: both backends draw each message from
// the same counter-based stream, so their counts of messages deanonymized
// outright must agree exactly, on static and Messages-timeline runs.
func TestMCDeanonymizedMatchesTestbed(t *testing.T) {
	for name, cfg := range map[string]scenario.Config{
		"static": {
			N: 40, StrategySpec: "uniform:1,5",
			Adversary: scenario.Adversary{Count: 8},
			Workload:  scenario.Workload{Messages: 4000, Seed: 4},
		},
		"non-prefix honest receiver": {
			N: 40, StrategySpec: "uniform:1,5",
			Adversary: scenario.Adversary{Compromised: []trace.NodeID{3, 17, 9, 30, 21, 38}, UncompromisedReceiver: true},
			Workload:  scenario.Workload{Messages: 3000, Seed: 6},
		},
		"messages timeline": {
			N: 40, StrategySpec: "uniform:1,5",
			Adversary: scenario.Adversary{Compromised: []trace.NodeID{3, 17, 9, 30, 21}},
			Timeline: []scenario.Epoch{{Messages: 1000}, {Messages: 1000, Join: 5, Compromise: 2},
				{Messages: 800, Leave: 4, Recover: 1}},
			Workload: scenario.Workload{Seed: 4},
		},
	} {
		t.Run(name, func(t *testing.T) {
			counts := map[scenario.BackendKind]int{}
			for _, backend := range []scenario.BackendKind{scenario.BackendMonteCarlo, scenario.BackendTestbed} {
				cfg.Backend = backend
				res, err := scenario.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				counts[backend] = res.Deanonymized
			}
			if counts[scenario.BackendMonteCarlo] == 0 || counts[scenario.BackendMonteCarlo] != counts[scenario.BackendTestbed] {
				t.Errorf("Deanonymized: Monte-Carlo %d, testbed %d",
					counts[scenario.BackendMonteCarlo], counts[scenario.BackendTestbed])
			}
		})
	}
}

// TestSampledBackendsRefuseUnsupportedModels: a model the sampled analysis
// cannot express — a cyclic strategy — is refused by every backend with
// one capability error whatever the workload's shape.
func TestSampledBackendsRefuseUnsupportedModels(t *testing.T) {
	shapes := map[string]func(*scenario.Config){
		"single-shot": func(c *scenario.Config) { c.Workload.Messages = 200 },
		"rounds":      func(c *scenario.Config) { c.Workload.Messages, c.Workload.Rounds = 50, 4 },
		"messages timeline": func(c *scenario.Config) {
			c.Timeline = []scenario.Epoch{{Messages: 100}, {Messages: 100, Join: 3}}
		},
		"rounds timeline": func(c *scenario.Config) {
			c.Workload.Messages = 50
			c.Timeline = []scenario.Epoch{{Rounds: 2}, {Rounds: 2, Join: 3}}
		},
	}
	for shape, mut := range shapes {
		for _, backend := range []scenario.BackendKind{scenario.BackendExact, scenario.BackendMonteCarlo, scenario.BackendTestbed} {
			t.Run(fmt.Sprintf("cyclic strategy/%s/%s", shape, backend), func(t *testing.T) {
				cfg := scenario.Config{
					N: 14, Backend: backend, StrategySpec: "onionrouting2:0.6,6", Protocol: scenario.ProtocolOnion,
					Adversary: scenario.Adversary{Count: 2}, Workload: scenario.Workload{Seed: 3},
				}
				mut(&cfg)
				_, err := scenario.Run(cfg)
				var capErr *scenario.CapabilityError
				if !errors.Is(err, scenario.ErrComplicatedPaths) || !errors.As(err, &capErr) {
					t.Fatalf("err = %v, want a capability error matching %v", err, scenario.ErrComplicatedPaths)
				}
			})
		}
	}
}
