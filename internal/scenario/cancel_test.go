package scenario_test

// Context-cancellation and progress contracts of scenario.Run: a canceled
// context aborts every backend with an error wrapping both ErrCanceled and
// the context's cause, arming a context changes nothing, and Progress
// accounts for the full workload.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"anonmix/internal/scenario"
)

// flakyCtx embeds a background context but reports cancellation from its
// Err method after a fixed number of calls. It deterministically triggers
// checkpoints that poll ctx.Err() inside backend loops (the testbed path),
// past the pre-dispatch check in Run, without any goroutine timing.
type flakyCtx struct {
	context.Context
	after int64
	calls atomic.Int64
}

func (f *flakyCtx) Err() error {
	if f.calls.Add(1) > f.after {
		return context.Canceled
	}
	return nil
}

func assertCanceled(t *testing.T, err error) {
	t.Helper()
	if !errors.Is(err, scenario.ErrCanceled) {
		t.Errorf("error %v does not wrap scenario.ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
	if c := scenario.Classify(err); c != scenario.ClassCanceled {
		t.Errorf("Classify(%v) = %v, want ClassCanceled", err, c)
	}
	if code := scenario.ExitCode(err); code != 1 {
		t.Errorf("ExitCode(%v) = %d, want 1", err, code)
	}
}

func TestRunContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, backend := range []scenario.BackendKind{
		scenario.BackendExact, scenario.BackendMonteCarlo, scenario.BackendTestbed,
	} {
		t.Run(string(backend), func(t *testing.T) {
			_, err := scenario.RunContext(ctx, scenario.Config{
				N:            16,
				Backend:      backend,
				StrategySpec: "uniform:1,5",
				Adversary:    scenario.Adversary{Count: 3},
				Workload:     scenario.Workload{Messages: 500, Seed: 1},
			})
			if err == nil {
				t.Fatal("pre-canceled context returned no error")
			}
			assertCanceled(t, err)
		})
	}
}

// TestRunContextMidRunMC cancels a static Monte-Carlo run from inside its
// own first Progress callback — the only deterministic vantage point that
// is guaranteed to fire while later batches are still unclaimed.
func TestRunContextMidRunMC(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := scenario.RunContext(ctx, scenario.Config{
		N:            16,
		Backend:      scenario.BackendMonteCarlo,
		StrategySpec: "uniform:1,5",
		Adversary:    scenario.Adversary{Count: 3},
		Workload:     scenario.Workload{Messages: 4000, Seed: 1, Workers: 2},
		Progress:     func(scenario.Progress) { cancel() },
	})
	if err == nil {
		t.Fatal("mid-run cancel returned no error")
	}
	assertCanceled(t, err)
}

// TestRunContextExactDegradationCanceled cancels the exact backend's
// serial session loop from its first per-batch progress emission; the
// next batch-boundary checkpoint must abort the run.
func TestRunContextExactDegradationCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := scenario.RunContext(ctx, scenario.Config{
		N:            16,
		Backend:      scenario.BackendExact,
		StrategySpec: "uniform:1,5",
		Adversary:    scenario.Adversary{Count: 3},
		Workload:     scenario.Workload{Messages: 500, Rounds: 3, Seed: 1},
		Progress:     func(scenario.Progress) { cancel() },
	})
	if err == nil {
		t.Fatal("degradation cancel returned no error")
	}
	assertCanceled(t, err)
}

// TestRunContextTestbedInLoop drives the testbed's in-loop checkpoint: the
// flaky context survives Run's pre-dispatch check (call 1) and reports
// cancellation at the first injection-loop poll (call 2).
func TestRunContextTestbedInLoop(t *testing.T) {
	fc := &flakyCtx{Context: context.Background(), after: 1}
	_, err := scenario.RunContext(fc, scenario.Config{
		N:            16,
		Backend:      scenario.BackendTestbed,
		StrategySpec: "uniform:1,5",
		Adversary:    scenario.Adversary{Count: 3},
		Workload:     scenario.Workload{Messages: 500, Seed: 1},
	})
	if err == nil {
		t.Fatal("in-loop cancel returned no error")
	}
	assertCanceled(t, err)
}

// TestRunContextArmedDeterminism pins that threading a live-but-silent
// context through RunContext yields bit-identical results to a plain Run:
// the cancellation checks sit on batch boundaries, off the trial streams.
func TestRunContextArmedDeterminism(t *testing.T) {
	cfg := scenario.Config{
		N:            16,
		Backend:      scenario.BackendMonteCarlo,
		StrategySpec: "uniform:1,5",
		Adversary:    scenario.Adversary{Count: 3},
		Workload:     scenario.Workload{Messages: 2000, Seed: 5, Workers: 3},
	}
	plain, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	armed, err := scenario.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if armed.H != plain.H || armed.StdErr != plain.StdErr || armed.Trials != plain.Trials { //anonlint:allow floatcmp(bit-identity is the contract under test)
		t.Errorf("armed context changed the result: %+v vs %+v", armed, plain)
	}
}

func TestProgressStaticMC(t *testing.T) {
	const trials = 2000
	var (
		mu  sync.Mutex
		max int
	)
	_, err := scenario.Run(scenario.Config{
		N:            16,
		Backend:      scenario.BackendMonteCarlo,
		StrategySpec: "uniform:1,5",
		Adversary:    scenario.Adversary{Count: 3},
		Workload:     scenario.Workload{Messages: trials, Seed: 2, Workers: 2},
		Progress: func(p scenario.Progress) {
			mu.Lock()
			defer mu.Unlock()
			if p.Total != trials {
				t.Errorf("Progress.Total = %d, want %d", p.Total, trials)
			}
			if p.Done <= 0 || p.Done > p.Total {
				t.Errorf("Progress.Done = %d outside (0, %d]", p.Done, p.Total)
			}
			if p.Done > max {
				max = p.Done
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	// Cumulative counts may arrive out of order across workers, but the
	// maximum must account for the entire trial budget.
	if max != trials {
		t.Errorf("max cumulative progress %d, want %d", max, trials)
	}
}

// TestProgressExactTimeline checks the per-phase epoch emissions of the
// serial exact timeline: one Epoch-carrying callback per phase, in order,
// matching the Epochs of the final result.
func TestProgressExactTimeline(t *testing.T) {
	var epochs []scenario.EpochResult
	res, err := scenario.Run(scenario.Config{
		N:            16,
		Backend:      scenario.BackendExact,
		StrategySpec: "uniform:1,5",
		Adversary:    scenario.Adversary{Count: 3},
		Timeline: []scenario.Epoch{
			{Messages: 100},
			{Join: 4},
			{Messages: 200, Compromise: 2},
		},
		Progress: func(p scenario.Progress) {
			if p.Epoch != nil {
				epochs = append(epochs, *p.Epoch)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
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
