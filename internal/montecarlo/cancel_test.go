package montecarlo_test

// Cancellation and progress contracts of the estimator: a fired Cancel
// channel aborts between batches with a context.Canceled-wrapping error,
// an armed-but-silent one changes nothing, and Progress accounts for
// every trial exactly once.

import (
	"context"
	"errors"
	"sync"
	"testing"

	"anonmix/internal/montecarlo"
	"anonmix/internal/pathsel"
	"anonmix/internal/trace"
)

func cancelConfig(t *testing.T) montecarlo.Config {
	t.Helper()
	strat, err := pathsel.UniformLength(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	return montecarlo.Config{
		N:           30,
		Compromised: []trace.NodeID{0, 1, 2},
		Strategy:    strat,
		Trials:      1000,
		Seed:        7,
		Workers:     2,
	}
}

func TestEstimateCanceled(t *testing.T) {
	closed := make(chan struct{})
	close(closed)
	cfg := cancelConfig(t)
	cfg.Cancel = closed
	if _, err := montecarlo.EstimateH(cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("closed Cancel returned %v, want context.Canceled in the chain", err)
	}
	// The lossy path shares the contract.
	cfg = cancelConfig(t)
	cfg.LinkLoss = 0.1
	cfg.Cancel = closed
	if _, err := montecarlo.EstimateH(cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("lossy: closed Cancel returned %v, want context.Canceled in the chain", err)
	}
}

// TestEstimateCancelArmedIsInert pins that merely arming a cancel channel
// does not perturb the result: the checks sit on batch boundaries, off
// the per-trial streams.
func TestEstimateCancelArmedIsInert(t *testing.T) {
	base := cancelConfig(t)
	plain, err := montecarlo.EstimateH(base)
	if err != nil {
		t.Fatal(err)
	}
	armed := base
	armed.Cancel = make(chan struct{}) // never fires
	got, err := montecarlo.EstimateH(armed)
	if err != nil {
		t.Fatal(err)
	}
	if got.H != plain.H || got.StdErr != plain.StdErr || got.Trials != plain.Trials { //anonlint:allow floatcmp(bit-identity is the contract under test)
		t.Errorf("armed cancel changed the result: %+v vs %+v", got, plain)
	}
}

func TestEstimateProgress(t *testing.T) {
	cfg := cancelConfig(t)
	var (
		mu     sync.Mutex
		calls  int
		last   int
		maxSum int
	)
	cfg.Progress = func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if total != cfg.Trials {
			t.Errorf("Progress total = %d, want %d", total, cfg.Trials)
		}
		if done <= 0 || done > total {
			t.Errorf("Progress done = %d outside (0, %d]", done, total)
		}
		if done > maxSum {
			maxSum = done
		}
		last = done
	}
	if _, err := montecarlo.EstimateH(cfg); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls == 0 {
		t.Fatal("Progress was never called")
	}
	// Cumulative counts may arrive out of order across workers, but every
	// trial is accounted for: the maximum equals the full budget.
	if maxSum != cfg.Trials {
		t.Errorf("max cumulative progress %d, want %d (last seen %d)", maxSum, cfg.Trials, last)
	}
}
