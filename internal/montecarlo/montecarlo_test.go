package montecarlo_test

import (
	"errors"
	"math"
	"testing"

	"anonmix/internal/events"
	"anonmix/internal/montecarlo"
	"anonmix/internal/pathsel"
	"anonmix/internal/trace"
)

func TestEstimateValidation(t *testing.T) {
	strat, err := pathsel.FixedLength(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := montecarlo.EstimateH(montecarlo.Config{
		N: 10, Strategy: strat, Trials: 0,
	}); !errors.Is(err, montecarlo.ErrBadConfig) {
		t.Errorf("zero trials err = %v", err)
	}
	crowds, err := pathsel.Crowds(0.5, 9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := montecarlo.EstimateH(montecarlo.Config{
		N: 10, Strategy: crowds, Trials: 100,
	}); !errors.Is(err, montecarlo.ErrComplicatedPaths) {
		t.Errorf("complicated paths err = %v", err)
	}
	if _, err := montecarlo.EstimateH(montecarlo.Config{
		N: 10, Strategy: strat, Trials: 100, FixedSender: true, Sender: 99,
	}); !errors.Is(err, montecarlo.ErrBadConfig) {
		t.Errorf("fixed sender outside the system err = %v", err)
	}
}

// TestEstimateMatchesEngine is the key integration test of the sampling
// pipeline: sampled paths → synthesized adversary traces → class
// reconstruction → exact posterior must average to the engine's exact
// H*(S) within the confidence interval.
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
		c := c
		t.Run(c.name, func(t *testing.T) {
			strat, err := c.mk()
			if err != nil {
				t.Fatal(err)
			}
			res, err := montecarlo.EstimateH(montecarlo.Config{
				N:           c.n,
				Compromised: c.compromised,
				Strategy:    strat,
				Trials:      60000,
				Seed:        42,
				Workers:     4,
			})
			if err != nil {
				t.Fatal(err)
			}
			engine, err := events.New(c.n, len(c.compromised))
			if err != nil {
				t.Fatal(err)
			}
			want, err := engine.AnonymityDegree(strat.Length)
			if err != nil {
				t.Fatal(err)
			}
			// 4σ plus a small absolute floor for the CI approximation.
			tol := 4*res.StdErr + 1e-3
			if math.Abs(res.H-want) > tol {
				t.Errorf("MC H = %v ± %v, engine H* = %v (Δ=%v)",
					res.H, res.StdErr, want, res.H-want)
			}
			wantShare := float64(len(c.compromised)) / float64(c.n)
			if math.Abs(res.CompromisedSenderShare-wantShare) > 0.02 {
				t.Errorf("compromised-sender share %v, want ≈%v",
					res.CompromisedSenderShare, wantShare)
			}
			if res.Trials != 60000 {
				t.Errorf("trials = %d", res.Trials)
			}
		})
	}
}

// TestEstimateDeterministic: same seed, same estimate.
func TestEstimateDeterministic(t *testing.T) {
	strat, err := pathsel.UniformLength(0, 6)
	if err != nil {
		t.Fatal(err)
	}
	cfg := montecarlo.Config{
		N: 12, Compromised: []trace.NodeID{2, 5}, Strategy: strat,
		Trials: 5000, Seed: 99, Workers: 3,
	}
	a, err := montecarlo.EstimateH(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := montecarlo.EstimateH(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.H != b.H || a.StdErr != b.StdErr {
		t.Errorf("non-deterministic: %v vs %v", a, b)
	}
}

func TestSynthesize(t *testing.T) {
	comp := func(id trace.NodeID) bool { return id == 2 || id == 4 }
	mt := montecarlo.Synthesize(7, 9, []trace.NodeID{1, 2, 4, 3}, comp)
	if mt.Msg != 7 || !mt.ReceiverSeen || mt.ReceiverPred != 3 {
		t.Errorf("trace header: %+v", mt)
	}
	if len(mt.Reports) != 2 {
		t.Fatalf("%d reports", len(mt.Reports))
	}
	r0, r1 := mt.Reports[0], mt.Reports[1]
	if r0.Observer != 2 || r0.Pred != 1 || r0.Succ != 4 {
		t.Errorf("report 0: %+v", r0)
	}
	if r1.Observer != 4 || r1.Pred != 2 || r1.Succ != 3 {
		t.Errorf("report 1: %+v", r1)
	}
	if !(r0.Time < r1.Time) {
		t.Errorf("times not increasing: %d %d", r0.Time, r1.Time)
	}
	// Last hop compromised: successor must be the receiver marker.
	mt = montecarlo.Synthesize(1, 0, []trace.NodeID{5, 2}, comp)
	if mt.Reports[0].Succ != trace.Receiver {
		t.Errorf("tail succ = %v, want Receiver", mt.Reports[0].Succ)
	}
	// Direct send: no reports, receiver sees the sender.
	mt = montecarlo.Synthesize(1, 3, nil, comp)
	if len(mt.Reports) != 0 || mt.ReceiverPred != 3 {
		t.Errorf("direct send trace: %+v", mt)
	}
}

// TestEngineInjectionValidation: a supplied shared engine must match the
// configuration on every adversary-model axis, not just N and C.
func TestEngineInjectionValidation(t *testing.T) {
	strat, err := pathsel.UniformLength(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	mismatched, err := events.New(10, 2, events.WithUncompromisedReceiver())
	if err != nil {
		t.Fatal(err)
	}
	_, err = montecarlo.EstimateH(montecarlo.Config{
		N: 10, Compromised: []trace.NodeID{0, 1}, Strategy: strat,
		Trials: 10, Seed: 1, Workers: 1, Engine: mismatched,
	})
	if !errors.Is(err, montecarlo.ErrBadConfig) {
		t.Errorf("mismatched engine err = %v", err)
	}
	matching, err := events.New(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := montecarlo.EstimateH(montecarlo.Config{
		N: 10, Compromised: []trace.NodeID{0, 1}, Strategy: strat,
		Trials: 100, Seed: 1, Workers: 1, Engine: matching,
	}); err != nil {
		t.Errorf("matching engine rejected: %v", err)
	}
}
