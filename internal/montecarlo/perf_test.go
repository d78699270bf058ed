package montecarlo_test

import (
	"reflect"
	"runtime"
	"testing"

	"anonmix/internal/faults"
	"anonmix/internal/montecarlo"
	"anonmix/internal/pathsel"
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
		"lossless": {
			N:           16,
			Compromised: []trace.NodeID{3, 11},
			Strategy:    strat,
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
