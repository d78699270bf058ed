package scenario

// The sampling drivers seen from inside: one arena's sessions, their
// allocation budget, and the marginal cost of a session and of a trial.

import (
	"math"
	"runtime"
	"testing"

	"anonmix/internal/faults"
	"anonmix/internal/stats"
	"anonmix/internal/trace"
)

// sessionArena normalizes cfg and builds one worker's session arena over
// the phases that carry its rounds, as runPhasedRounds does.
func sessionArena(t *testing.T, cfg Config) *phasedArena {
	t.Helper()
	norm, err := normalize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	phases := trafficPhases(norm.members())
	analysts, sels, err := phasedMachinery(norm, phases)
	if err != nil {
		t.Fatal(err)
	}
	ar, err := newPhasedArena(phases, analysts, sels, unionSize(norm.N, norm.Timeline), norm.Workload.Rounds)
	if err != nil {
		t.Fatal(err)
	}
	return ar
}

// honestThroughout lists the union identities that are honest members of
// every phase of the arena.
func honestThroughout(ar *phasedArena, union int) []trace.NodeID {
	var out []trace.NodeID
	for g := range trace.NodeID(union) {
		ok := true
		for i := range ar.phases {
			_, live := ar.phases[i].dense(g)
			ok = ok && live && !ar.phases[i].compromised(g)
		}
		if ok {
			out = append(out, g)
		}
	}
	return out
}

// TestSessionAccumulates drives one session directly: entropies are
// non-negative, and an honest sender in a small system is identified
// within a generous horizon.
func TestSessionAccumulates(t *testing.T) {
	ar := sessionArena(t, Config{
		N: 12, StrategySpec: "uniform:1,6",
		Adversary: Adversary{Compromised: []trace.NodeID{1, 5}},
		Workload:  Workload{Messages: 1, Rounds: 200},
	})
	identifiedAt, err := ar.session(stats.NewStream(3, 0), 8, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	entropies := ar.entropies
	if len(entropies) != 200 {
		t.Fatalf("entropies length %d", len(entropies))
	}
	for r, h := range entropies {
		if h < 0 || math.IsNaN(h) {
			t.Fatalf("round %d: entropy %v", r+1, h)
		}
	}
	if identifiedAt < 1 || identifiedAt > 200 {
		t.Errorf("identifiedAt = %d", identifiedAt)
	}
	if entropies[199] > entropies[0] {
		t.Errorf("no accumulation: first %v, last %v", entropies[0], entropies[199])
	}
}

// TestSessionZeroAllocSteadyState asserts the session loop's budget: once
// the arena and the engine's class statistics are warm, a full
// multi-round session — path draws, path-route folds, phase changes and
// snapshots — performs zero heap allocations, for a static session and
// for one across three phases of joins, compromises and leaves.
func TestSessionZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocation counts")
	}
	for name, cfg := range map[string]Config{
		"static": {
			N: 16, StrategySpec: "uniform:1,5",
			Adversary: Adversary{Compromised: []trace.NodeID{3, 11}},
			Workload:  Workload{Messages: 1, Rounds: 8},
		},
		"three-phase": {
			N: 16, StrategySpec: "uniform:1,5",
			Adversary: Adversary{Compromised: []trace.NodeID{3, 11}},
			Timeline:  []Epoch{{Rounds: 3}, {Rounds: 3, Join: 4, Compromise: 2}, {Rounds: 2, Leave: 3}},
			Workload:  Workload{Messages: 1},
		},
	} {
		t.Run(name, func(t *testing.T) {
			ar := sessionArena(t, cfg)
			honest := honestThroughout(ar, unionSize(cfg.N, cfg.Timeline))
			// Warm the arena buffers and the engines' class statistics
			// across the trace mix this configuration can produce.
			for s := 0; s < 200; s++ {
				if _, err := ar.session(stats.NewStream(7, int64(s)), honest[s%len(honest)], 0.9); err != nil {
					t.Fatal(err)
				}
			}
			s := 0
			allocs := testing.AllocsPerRun(100, func() {
				s++
				if _, err := ar.session(stats.NewStream(7, int64(s%200)), honest[s%len(honest)], 0.9); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("steady-state session allocates %v per session, want 0", allocs)
			}
		})
	}
}

// TestSessionRunAllocBudget bounds the marginal allocation cost of one
// session end to end through Run: tripling the session count may add
// only per-batch bookkeeping, not per-session heap traffic.
func TestSessionRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocation counts")
	}
	run := func(sessions int) uint64 {
		cfg := Config{
			N: 16, Backend: BackendMonteCarlo, StrategySpec: "uniform:1,5",
			Adversary: Adversary{Compromised: []trace.NodeID{3, 11}},
			Workload:  Workload{Messages: sessions, Rounds: 8, Seed: 7, Workers: 1},
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	run(400) // warm the engine caches outside the measurement
	small, large := run(400), run(1200)
	if perSession := (float64(large) - float64(small)) / 800; perSession > 3 {
		t.Errorf("marginal cost %.2f allocs per session (400→1200 sessions: %d→%d mallocs), want ≤ 3",
			perSession, small, large)
	}
}

// TestTrialAllocBudget bounds the marginal allocation cost of one
// single-shot Monte-Carlo trial end to end through Run, lossy trials
// included: tripling the trial count may add only per-batch bookkeeping,
// not per-trial heap traffic.
func TestTrialAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocation counts")
	}
	for name, cfg := range map[string]Config{
		"lossless": {
			N: 16, Backend: BackendMonteCarlo, StrategySpec: "uniform:1,5",
			Adversary: Adversary{Compromised: []trace.NodeID{3, 11}},
			Workload:  Workload{Seed: 7, Workers: 1},
		},
		"lossy": {
			N: 16, Backend: BackendMonteCarlo, StrategySpec: "uniform:1,5",
			Adversary:   Adversary{Compromised: []trace.NodeID{3, 11}},
			Workload:    Workload{Seed: 7, Workers: 1},
			Faults:      &faults.Plan{LinkLoss: 0.2},
			Reliability: faults.Reliability{Policy: faults.PolicyRetransmit},
		},
	} {
		t.Run(name, func(t *testing.T) {
			run := func(trials int) uint64 {
				cfg.Workload.Messages = trials
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if _, err := Run(cfg); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				return after.Mallocs - before.Mallocs
			}
			run(400) // warm the engine caches outside the measurement
			small, large := run(400), run(1200)
			if perTrial := (float64(large) - float64(small)) / 800; perTrial > 3 {
				t.Errorf("marginal cost %.2f allocs per trial (400→1200 trials: %d→%d mallocs), want ≤ 3",
					perTrial, small, large)
			}
		})
	}
}
