package scenario_test

// The single-shot Monte-Carlo driver through scenario.Run: its estimate
// matches the exact engine, it is a pure function of the config whatever
// the worker count, and its lossy trials honor the runner's cancellation
// and progress contracts.

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"anonmix/internal/events"
	"anonmix/internal/faults"
	"anonmix/internal/pathsel"
	"anonmix/internal/scenario"
	"anonmix/internal/trace"
)

// mcConfig is a static Monte-Carlo run of trials sampled messages.
func mcConfig(n int, comp []trace.NodeID, strat pathsel.Strategy, trials int, seed int64, workers int) scenario.Config {
	return scenario.Config{
		N:         n,
		Backend:   scenario.BackendMonteCarlo,
		Strategy:  strat,
		Adversary: scenario.Adversary{Compromised: comp},
		Workload:  scenario.Workload{Messages: trials, Seed: seed, Workers: workers},
	}
}

// checkMatchesEngine runs cfg and compares its estimate with the exact
// engine's H*(S) at 4σ plus a small absolute floor for the CI
// approximation, and its compromised-sender share with C/N.
func checkMatchesEngine(t *testing.T, cfg scenario.Config) {
	t.Helper()
	res, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := len(cfg.Adversary.Compromised)
	engine, err := events.New(cfg.N, c)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.AnonymityDegree(cfg.Strategy.Length)
	if err != nil {
		t.Fatal(err)
	}
	if tol := 4*res.StdErr + 1e-3; math.Abs(res.H-want) > tol {
		t.Errorf("MC H = %v ± %v, engine H* = %v (Δ=%v)", res.H, res.StdErr, want, res.H-want)
	}
	if wantShare := float64(c) / float64(cfg.N); math.Abs(res.CompromisedSenderShare-wantShare) > 0.02 {
		t.Errorf("compromised-sender share %v, want ≈%v", res.CompromisedSenderShare, wantShare)
	}
	if res.Trials != cfg.Workload.Messages {
		t.Errorf("trials = %d, want %d", res.Trials, cfg.Workload.Messages)
	}
}

// TestEstimateMatchesEngine is the key integration test of the sampling
// pipeline: sampled paths → path-route classification → exact posterior
// must average to the engine's exact H*(S) within the confidence
// interval.
func TestEstimateMatchesEngine(t *testing.T) {
	cases := []struct {
		name        string
		n           int
		compromised []trace.NodeID
		mk          func() (pathsel.Strategy, error)
	}{
		{"N=20 C=1 F(5)", 20, []trace.NodeID{4},
			func() (pathsel.Strategy, error) { return pathsel.FixedLength(5) }},
		{"N=20 C=3 U(0,10)", 20, []trace.NodeID{1, 7, 13},
			func() (pathsel.Strategy, error) { return pathsel.UniformLength(0, 10) }},
		{"N=15 C=2 U(2,9)", 15, []trace.NodeID{0, 14},
			func() (pathsel.Strategy, error) { return pathsel.UniformLength(2, 9) }},
		{"N=30 C=4 PipeNet", 30, []trace.NodeID{3, 9, 21, 27},
			func() (pathsel.Strategy, error) { return pathsel.PipeNet(), nil }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			strat, err := c.mk()
			if err != nil {
				t.Fatal(err)
			}
			checkMatchesEngine(t, mcConfig(c.n, c.compromised, strat, 60000, 42, 4))
		})
	}
}

// TestEstimateMatchesBucketedEngineLargeC cross-validates the estimator
// against the counted-bucket exact engine in the high-compromise regime
// (constant corrupted fractions, C = 20–40) that the old Θ(3^C)
// enumeration could never reach. The two are independent — the estimator
// samples concrete paths and classifies each against the class-statistics
// table, the engine sums closed-form bucket multiplicities — so agreement
// pins both.
func TestEstimateMatchesBucketedEngineLargeC(t *testing.T) {
	cases := []struct {
		name   string
		n, c   int
		a, b   int // uniform length bounds
		trials int
	}{
		{"N=60 C=20 U(2,12)", 60, 20, 2, 12, 40000},
		{"N=100 C=30 U(1,15)", 100, 30, 1, 15, 40000},
		{"N=100 C=40 U(2,12)", 100, 40, 2, 12, 40000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			compromised := make([]trace.NodeID, tc.c)
			for i := range compromised {
				// Spread the compromised IDs over the node range.
				compromised[i] = trace.NodeID(i * tc.n / tc.c)
			}
			strat, err := pathsel.UniformLength(tc.a, tc.b)
			if err != nil {
				t.Fatal(err)
			}
			checkMatchesEngine(t, mcConfig(tc.n, compromised, strat, tc.trials, 20260730, 4))
		})
	}
}

// TestEstimateDeterministic: same seed, same estimate.
func TestEstimateDeterministic(t *testing.T) {
	strat, err := pathsel.UniformLength(0, 6)
	if err != nil {
		t.Fatal(err)
	}
	cfg := mcConfig(12, []trace.NodeID{2, 5}, strat, 5000, 99, 3)
	a, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.H != b.H || a.StdErr != b.StdErr { //anonlint:allow floatcmp(bit-identity is the contract under test)
		t.Errorf("non-deterministic: %+v vs %+v", a, b)
	}
}

// TestWorkerCountIndependence pins the batch runner's determinism
// contract: because every trial draws from its own counter-based stream
// and batch results merge in batch order, the full Result is a pure
// function of the config — Workers only changes wall clock, never a
// single bit of output.
func TestWorkerCountIndependence(t *testing.T) {
	strat, err := pathsel.UniformLength(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	base := mcConfig(16, []trace.NodeID{3, 11}, strat, 700, 7, 0)
	for name, mut := range map[string]func(*scenario.Config){
		"single-shot": func(c *scenario.Config) {},
		"lossy-reroute": func(c *scenario.Config) {
			c.Faults = &faults.Plan{LinkLoss: 0.2}
			c.Reliability.Policy = faults.PolicyReroute
		},
		"lossy-retransmit": func(c *scenario.Config) {
			c.Faults = &faults.Plan{LinkLoss: 0.15}
			c.Reliability.Policy = faults.PolicyRetransmit
		},
	} {
		t.Run(name, func(t *testing.T) {
			cfg := base
			mut(&cfg)
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
			serial.Elapsed, wide.Elapsed = 0, 0
			if !reflect.DeepEqual(serial, wide) {
				t.Errorf("result depends on worker count:\n 1 worker: %+v\n 7 workers: %+v", serial, wide)
			}
		})
	}
}

// lossyMC is a lossy Monte-Carlo run long enough to span many batches.
func lossyMC(t *testing.T) scenario.Config {
	t.Helper()
	strat, err := pathsel.UniformLength(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := mcConfig(30, []trace.NodeID{0, 1, 2}, strat, 4000, 7, 2)
	cfg.Faults = &faults.Plan{LinkLoss: 0.1}
	cfg.Reliability.Policy = faults.PolicyRetransmit
	return cfg
}

// TestEstimateCanceled cancels a lossy run from its first progress
// callback; the runner's next batch poll must abort it. (The lossless
// case is TestRunContextMidRunMC.)
func TestEstimateCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := lossyMC(t)
	cfg.Progress = func(scenario.Progress) { cancel() }
	if _, err := scenario.RunContext(ctx, cfg); err == nil {
		t.Fatal("mid-run cancel of a lossy run returned no error")
	} else {
		assertCanceled(t, err)
	}
}

// TestEstimateCancelArmedIsInert pins that arming a cancellation channel
// that never fires leaves a lossy run bit-identical to a plain Run: the
// polls sit on batch boundaries, off the per-trial streams. Unlike
// context.Background, whose Done channel is nil, a WithCancel context
// hands the batch runner a live channel to poll.
func TestEstimateCancelArmedIsInert(t *testing.T) {
	cfg := lossyMC(t)
	plain, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	armed, err := scenario.RunContext(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if armed.H != plain.H || armed.StdErr != plain.StdErr || armed.Trials != plain.Trials { //anonlint:allow floatcmp(bit-identity is the contract under test)
		t.Errorf("armed cancel changed the estimate: %+v vs %+v", armed, plain)
	}
	if armed.HDegraded != plain.HDegraded || armed.DeliveryRate != plain.DeliveryRate { //anonlint:allow floatcmp(bit-identity is the contract under test)
		t.Errorf("armed cancel changed the degradation: %+v vs %+v", armed, plain)
	}
}

// TestEstimateProgress:a lossy run accounts for every trial exactly once,
// against the full budget. (The lossless case is TestProgressStaticMC.)
func TestEstimateProgress(t *testing.T) {
	cfg := lossyMC(t)
	var (
		mu     sync.Mutex
		calls  int
		maxSum int
	)
	cfg.Progress = func(p scenario.Progress) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if p.Total != cfg.Workload.Messages {
			t.Errorf("Progress.Total = %d, want %d", p.Total, cfg.Workload.Messages)
		}
		if p.Done <= 0 || p.Done > p.Total || p.Epoch != nil {
			t.Errorf("Progress = %+v, want Done in (0, %d] and no epoch", p, p.Total)
		}
		maxSum = max(maxSum, p.Done)
	}
	if _, err := scenario.Run(cfg); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	// Cumulative counts may arrive out of order across workers, but the
	// maximum accounts for the whole budget, once per batch.
	if maxSum != cfg.Workload.Messages || calls != (cfg.Workload.Messages+63)/64 {
		t.Errorf("%d progress calls reaching %d, want %d calls reaching %d",
			calls, maxSum, (cfg.Workload.Messages+63)/64, cfg.Workload.Messages)
	}
}
