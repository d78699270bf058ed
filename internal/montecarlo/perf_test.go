package montecarlo_test

import (
	"reflect"
	"runtime"
	"testing"

	"anonmix/internal/adversary"
	"anonmix/internal/events"
	"anonmix/internal/faults"
	"anonmix/internal/montecarlo"
	"anonmix/internal/pathsel"
	"anonmix/internal/stats"
	"anonmix/internal/trace"
)

// TestWorkerCountIndependence pins the tentpole's determinism contract:
// because every trial draws from its own counter-based stream and batch
// results merge in batch order, the full Result is a pure function of the
// config — Workers only changes wall clock, never a single bit of output.
func TestWorkerCountIndependence(t *testing.T) {
	strat, err := pathsel.UniformLength(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	base := montecarlo.Config{
		N:           16,
		Compromised: []trace.NodeID{3, 11},
		Strategy:    strat,
		Trials:      700,
		Seed:        7,
	}
	for name, mut := range map[string]func(*montecarlo.Config){
		"single-shot": func(c *montecarlo.Config) {},
		"rounds": func(c *montecarlo.Config) {
			c.Rounds = 8
			c.Confidence = 0.9
		},
		"lossy-reroute": func(c *montecarlo.Config) {
			c.LinkLoss = 0.2
			c.Policy = faults.PolicyReroute
		},
		"lossy-retransmit": func(c *montecarlo.Config) {
			c.LinkLoss = 0.15
			c.Policy = faults.PolicyRetransmit
		},
	} {
		t.Run(name, func(t *testing.T) {
			cfg := base
			mut(&cfg)
			cfg.Workers = 1
			serial, err := montecarlo.EstimateH(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Workers = 7
			wide, err := montecarlo.EstimateH(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, wide) {
				t.Errorf("result depends on worker count:\n 1 worker: %+v\n 7 workers: %+v", serial, wide)
			}
		})
	}
}

// TestSessionZeroAllocSteadyState asserts the hot loop's budget at the
// session level: once the arena and the engine's class cache are warm, a
// full multi-round session — path draws, path-route posterior folds
// (Accumulator.ObservePath), snapshots — performs zero heap allocations.
func TestSessionZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocation counts")
	}
	const n = 16
	compromised := []trace.NodeID{3, 11}
	e, err := events.New(n, len(compromised))
	if err != nil {
		t.Fatal(err)
	}
	strat, err := pathsel.UniformLength(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	analyst, err := adversary.NewAnalyst(e, strat.Length, compromised)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := pathsel.NewSelector(n, strat)
	if err != nil {
		t.Fatal(err)
	}
	arena, err := montecarlo.NewSessionArena(analyst, sel, 8)
	if err != nil {
		t.Fatal(err)
	}
	var honest []trace.NodeID
	for v := 0; v < n; v++ {
		if id := trace.NodeID(v); !analyst.Compromised(id) {
			honest = append(honest, id)
		}
	}
	// Warm the arena buffers and the engine's memoized class statistics
	// across the trace mix this configuration can produce.
	for s := 0; s < 200; s++ {
		rng := stats.NewStream(7, int64(s))
		if _, _, err := arena.Session(&rng, honest[s%len(honest)], 0.9); err != nil {
			t.Fatal(err)
		}
	}
	s := 0
	allocs := testing.AllocsPerRun(100, func() {
		rng := stats.NewStream(7, int64(s%200))
		s++
		if _, _, err := arena.Session(&rng, honest[s%len(honest)], 0.9); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state session allocates %v per session of 8 rounds, want 0", allocs)
	}
}

// TestTrialAllocBudget bounds the marginal allocation cost of one trial
// end to end through EstimateH, lossy estimation included: doubling the
// trial count may add only per-batch bookkeeping, not per-trial heap
// traffic. The seed repo spent hundreds of allocations per trial here.
func TestTrialAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocation counts")
	}
	strat, err := pathsel.UniformLength(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	run := func(cfg montecarlo.Config, trials int) uint64 {
		cfg.Trials = trials
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := montecarlo.EstimateH(cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	for name, cfg := range map[string]montecarlo.Config{
		"rounds": {
			N:           16,
			Compromised: []trace.NodeID{3, 11},
			Strategy:    strat,
			Rounds:      8,
			Seed:        7,
			Workers:     1,
		},
		"lossy": {
			N:           16,
			Compromised: []trace.NodeID{3, 11},
			Strategy:    strat,
			LinkLoss:    0.2,
			Policy:      faults.PolicyRetransmit,
			Seed:        7,
			Workers:     1,
		},
	} {
		t.Run(name, func(t *testing.T) {
			run(cfg, 400) // warm engine caches and arenas outside the measurement
			small := run(cfg, 400)
			large := run(cfg, 1200)
			marginal := float64(large) - float64(small)
			perTrial := marginal / 800
			if perTrial > 3 {
				t.Errorf("marginal cost %.2f allocs per trial (400→1200 trials: %d→%d mallocs), want ≤ 3",
					perTrial, small, large)
			}
		})
	}
}
