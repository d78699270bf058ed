package montecarlo_test

import (
	"errors"
	"math"
	"testing"

	"anonmix/internal/adversary"
	"anonmix/internal/events"
	"anonmix/internal/montecarlo"
	"anonmix/internal/pathsel"
	"anonmix/internal/stats"
	"anonmix/internal/trace"
)

func roundsConfig() montecarlo.Config {
	strat, _ := pathsel.UniformLength(1, 5)
	return montecarlo.Config{
		N:           16,
		Compromised: []trace.NodeID{3, 11},
		Strategy:    strat,
		Trials:      1200,
		Rounds:      8,
		Seed:        7,
		Workers:     4,
	}
}

func TestEstimateHRounds(t *testing.T) {
	res, err := montecarlo.EstimateH(roundsConfig())
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

func TestEstimateHRoundsDeterministic(t *testing.T) {
	cfg := roundsConfig()
	a, err := montecarlo.EstimateH(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := montecarlo.EstimateH(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.H != b.H || a.StdErr != b.StdErr {
		t.Errorf("not bit-identical: %v±%v vs %v±%v", a.H, a.StdErr, b.H, b.StdErr)
	}
	for r := range a.HRounds {
		if a.HRounds[r] != b.HRounds[r] {
			t.Errorf("HRounds[%d]: %v vs %v", r, a.HRounds[r], b.HRounds[r])
		}
	}
}

func TestEstimateHRoundsIdentification(t *testing.T) {
	cfg := roundsConfig()
	cfg.Rounds = 150
	cfg.Trials = 60
	cfg.Confidence = 0.9
	cfg.FixedSender = true
	cfg.Sender = 5
	res, err := montecarlo.EstimateH(cfg)
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

func TestEstimateHRoundsValidation(t *testing.T) {
	for name, mut := range map[string]func(*montecarlo.Config){
		"negative rounds":     func(c *montecarlo.Config) { c.Rounds = -1 },
		"confidence too high": func(c *montecarlo.Config) { c.Confidence = 1 },
		"confidence negative": func(c *montecarlo.Config) { c.Confidence = -0.5 },
		"fixed sender range":  func(c *montecarlo.Config) { c.FixedSender = true; c.Sender = 99 },
	} {
		cfg := roundsConfig()
		mut(&cfg)
		if _, err := montecarlo.EstimateH(cfg); !errors.Is(err, montecarlo.ErrBadConfig) {
			t.Errorf("%s: err = %v", name, err)
		}
	}
}

// TestSessionAccumulates drives a SessionArena directly: entropies are
// non-negative, and an honest sender in a small system is identified
// within a generous horizon.
func TestSessionAccumulates(t *testing.T) {
	const n = 12
	compromised := []trace.NodeID{1, 5}
	e, err := events.New(n, len(compromised))
	if err != nil {
		t.Fatal(err)
	}
	strat, err := pathsel.UniformLength(1, 6)
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
	arena, err := montecarlo.NewSessionArena(analyst, sel, 200)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewStream(3, 0)
	entropies, identifiedAt, err := arena.Session(&rng, 8, 0.95)
	if err != nil {
		t.Fatal(err)
	}
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

// TestSessionArenaRefusesCyclicRoutes: sessions fold paths through
// Accumulator.ObservePath, which is defined for simple paths only, so an
// arena over a Complicated strategy is refused with the capability
// sentinel rather than folding cyclic routes.
func TestSessionArenaRefusesCyclicRoutes(t *testing.T) {
	const n = 12
	compromised := []trace.NodeID{1, 5}
	e, err := events.New(n, len(compromised))
	if err != nil {
		t.Fatal(err)
	}
	strat, err := pathsel.Crowds(0.7, 6)
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
	if _, err := montecarlo.NewSessionArena(analyst, sel, 4); !errors.Is(err, montecarlo.ErrComplicatedPaths) {
		t.Fatalf("err = %v, want ErrComplicatedPaths", err)
	}
}
