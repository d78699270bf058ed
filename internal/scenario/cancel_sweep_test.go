package scenario_test

// Exhaustive checkpoint sweep: every ctx.Err() poll a backend makes is a
// site where cancellation must abort the run with the ErrCanceled
// contract. The flaky context counts Err calls, so running a config once
// uncanceled measures the full checkpoint trace, and replaying it with
// after = 1..T-1 deterministically lands the cancellation on each
// successive checkpoint — entry checks, per-phase checks, injection-loop
// and rerouting-wave polls — without any goroutine timing.

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"anonmix/internal/faults"
	"anonmix/internal/scenario"
)

func TestRunContextCheckpointSweep(t *testing.T) {
	cases := []struct {
		name string
		cfg  scenario.Config
	}{
		{"exact-timeline", scenario.Config{
			N:            16,
			Backend:      scenario.BackendExact,
			StrategySpec: "uniform:1,5",
			Adversary:    scenario.Adversary{Count: 3},
			Timeline:     []scenario.Epoch{{Messages: 100}, {Messages: 100, Compromise: 2}},
		}},
		{"mc-timeline", scenario.Config{
			N:            16,
			Backend:      scenario.BackendMonteCarlo,
			StrategySpec: "uniform:1,5",
			Adversary:    scenario.Adversary{Count: 3},
			Timeline:     []scenario.Epoch{{Messages: 200}, {Messages: 200, Join: 3}},
			Workload:     scenario.Workload{Seed: 4},
		}},
		{"testbed-timeline-messages", scenario.Config{
			N:            16,
			Backend:      scenario.BackendTestbed,
			StrategySpec: "uniform:1,5",
			Adversary:    scenario.Adversary{Count: 3},
			Timeline:     []scenario.Epoch{{Messages: 130}, {Messages: 130, Compromise: 2}},
			Workload:     scenario.Workload{Seed: 4},
		}},
		{"testbed-timeline-rounds", scenario.Config{
			N:            16,
			Backend:      scenario.BackendTestbed,
			StrategySpec: "uniform:1,5",
			Adversary:    scenario.Adversary{Count: 3},
			Timeline:     []scenario.Epoch{{Rounds: 2}, {Rounds: 2, Compromise: 2}},
			Workload:     scenario.Workload{Messages: 130, Seed: 4},
		}},
		{"testbed-static", scenario.Config{
			N:            16,
			Backend:      scenario.BackendTestbed,
			StrategySpec: "uniform:1,5",
			Adversary:    scenario.Adversary{Count: 3},
			Workload:     scenario.Workload{Messages: 200, Seed: 4},
		}},
		{"testbed-static-rounds", scenario.Config{
			N:            16,
			Backend:      scenario.BackendTestbed,
			StrategySpec: "uniform:1,5",
			Adversary:    scenario.Adversary{Count: 3},
			Workload:     scenario.Workload{Messages: 70, Rounds: 3, Seed: 4},
		}},
		{"testbed-crowds", scenario.Config{
			N:            16,
			Backend:      scenario.BackendTestbed,
			StrategySpec: "crowds:0.7",
			Adversary:    scenario.Adversary{Count: 3},
			Workload:     scenario.Workload{Messages: 130, Seed: 4},
		}},
		{"testbed-retransmit", scenario.Config{
			N:            16,
			Backend:      scenario.BackendTestbed,
			StrategySpec: "uniform:1,5",
			Adversary:    scenario.Adversary{Count: 3},
			Workload:     scenario.Workload{Messages: 130, Seed: 4},
			Faults:       &faults.Plan{LinkLoss: 0.2},
			Reliability:  faults.Reliability{Policy: faults.PolicyRetransmit},
		}},
		{"testbed-reroute", scenario.Config{
			N:            16,
			Backend:      scenario.BackendTestbed,
			StrategySpec: "uniform:1,5",
			Adversary:    scenario.Adversary{Count: 3},
			Workload:     scenario.Workload{Messages: 130, Seed: 4},
			Faults:       &faults.Plan{LinkLoss: 0.3},
			Reliability:  faults.Reliability{Policy: faults.PolicyReroute},
		}},
		{"testbed-timeline-reroute", scenario.Config{
			N:            16,
			Backend:      scenario.BackendTestbed,
			StrategySpec: "uniform:1,5",
			Adversary:    scenario.Adversary{Count: 3},
			Timeline:     []scenario.Epoch{{Messages: 100}, {Messages: 100, Join: 2}},
			Workload:     scenario.Workload{Seed: 4},
			Faults:       &faults.Plan{LinkLoss: 0.3},
			Reliability:  faults.Reliability{Policy: faults.PolicyReroute},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Measure the checkpoint trace: a never-firing flaky context
			// counts every Err poll of an uncanceled run.
			probe := &flakyCtx{Context: context.Background(), after: math.MaxInt64}
			if _, err := scenario.RunContext(probe, tc.cfg); err != nil {
				t.Fatalf("uncanceled probe run failed: %v", err)
			}
			total := probe.calls.Load()
			if total < 2 {
				t.Fatalf("only %d Err polls — no in-loop checkpoints to sweep", total)
			}
			// Land the cancellation on each checkpoint in turn. The run is
			// deterministic up to the first canceled poll, so checkpoint
			// after+1 of the probe trace is exactly where each replay dies.
			for after := int64(1); after < total; after++ {
				fc := &flakyCtx{Context: context.Background(), after: after}
				_, err := scenario.RunContext(fc, tc.cfg)
				if err == nil {
					t.Fatalf("after=%d of %d: run completed despite cancellation", after, total)
				}
				assertCanceled(t, err)
			}
		})
	}
}

// TestRunContextErrorPassthrough pins that an armed context does not
// reclassify unrelated failures: a capability refusal under RunContext
// keeps its class instead of being wrapped as canceled.
func TestRunContextErrorPassthrough(t *testing.T) {
	_, err := scenario.RunContext(context.Background(), scenario.Config{
		N:            16,
		Backend:      scenario.BackendExact,
		StrategySpec: "crowds:0.7",
		Adversary:    scenario.Adversary{Count: 3},
	})
	if err == nil {
		t.Fatal("exact backend accepted a crowds strategy")
	}
	if c := scenario.Classify(err); c != scenario.ClassCapability {
		t.Errorf("Classify(%v) = %v, want ClassCapability", err, c)
	}
	if errors.Is(err, scenario.ErrCanceled) {
		t.Errorf("capability error reclassified as canceled: %v", err)
	}
}

// TestRunContextPhasedRoundsCanceled cancels the analytic degradation
// timeline (persistent sessions spanning phases) from its first batch
// progress emission; the worker's next cancel poll must abort the merge.
func TestRunContextPhasedRoundsCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := scenario.RunContext(ctx, scenario.Config{
		N:            16,
		Backend:      scenario.BackendExact,
		StrategySpec: "uniform:1,5",
		Adversary:    scenario.Adversary{Count: 3},
		Timeline:     []scenario.Epoch{{Rounds: 2}, {Rounds: 2, Compromise: 2}},
		Workload:     scenario.Workload{Messages: 300, Seed: 6},
		Progress:     func(scenario.Progress) { cancel() },
	})
	if err == nil {
		t.Fatal("phased-rounds cancel returned no error")
	}
	assertCanceled(t, err)
}

// TestProgressMCTimeline checks the Monte-Carlo timeline's progress
// accounting: trials accumulate across phases against the timeline-wide
// total, traffic-free epochs still emit their EpochResult, and the
// emitted epochs match the final result.
func TestProgressMCTimeline(t *testing.T) {
	const perPhase = 300
	var (
		mu     sync.Mutex
		max    int
		epochs []scenario.EpochResult
	)
	res, err := scenario.Run(scenario.Config{
		N:            16,
		Backend:      scenario.BackendMonteCarlo,
		StrategySpec: "uniform:1,5",
		Adversary:    scenario.Adversary{Count: 3},
		Timeline: []scenario.Epoch{
			{Messages: perPhase},
			{Join: 4},
			{Messages: perPhase, Compromise: 2},
		},
		Workload: scenario.Workload{Seed: 2, Workers: 2},
		Progress: func(p scenario.Progress) {
			mu.Lock()
			defer mu.Unlock()
			if p.Total != 2*perPhase {
				t.Errorf("Progress.Total = %d, want %d", p.Total, 2*perPhase)
			}
			if p.Done > max {
				max = p.Done
			}
			if p.Epoch != nil {
				epochs = append(epochs, *p.Epoch)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if max != 2*perPhase {
		t.Errorf("max cumulative progress %d, want %d", max, 2*perPhase)
	}
	if len(epochs) != len(res.Epochs) {
		t.Fatalf("got %d epoch emissions, want %d", len(epochs), len(res.Epochs))
	}
	for i, er := range epochs {
		if er != res.Epochs[i] {
			t.Errorf("epoch %d: progress emitted %+v, result has %+v", i, er, res.Epochs[i])
		}
	}
}
