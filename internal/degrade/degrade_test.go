// Package degrade_test checks the degradation of sender anonymity under
// repeated communication (Wright, Adler, Levine and Shields, the paper's
// [23]). The degrade package that once wrapped it is gone, so these tests
// call the layer underneath directly: adversary.Accumulator for the
// Bayesian accumulation, scenario.Run on the exact backend for fixed-sender
// sessions, and scenario.Run on the testbed's Crowds substrate for
// predecessor counting.
package degrade_test

import (
	"errors"
	"math"
	"testing"

	"anonmix/internal/adversary"
	"anonmix/internal/dist"
	"anonmix/internal/events"
	"anonmix/internal/montecarlo"
	"anonmix/internal/pathsel"
	"anonmix/internal/scenario"
	"anonmix/internal/scenario/capability"
	"anonmix/internal/stats"
	"anonmix/internal/trace"
)

func analyst(t *testing.T, n int, compromised []trace.NodeID, d dist.Length) *adversary.Analyst {
	t.Helper()
	e, err := events.New(n, len(compromised))
	if err != nil {
		t.Fatal(err)
	}
	a, err := adversary.NewAnalyst(e, d, compromised)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAccumulatorValidation(t *testing.T) {
	if _, err := adversary.NewAccumulator(nil); !errors.Is(err, adversary.ErrBadConfig) {
		t.Errorf("nil analyst err = %v", err)
	}
	u, err := dist.NewUniform(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := adversary.NewAccumulator(analyst(t, 10, []trace.NodeID{0}, u))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := acc.Posterior(); !errors.Is(err, adversary.ErrNoObservations) {
		t.Errorf("empty posterior err = %v", err)
	}
	if _, _, _, err := acc.SnapshotFast(); !errors.Is(err, adversary.ErrNoObservations) {
		t.Errorf("empty snapshot err = %v", err)
	}
	if acc.Rounds() != 0 {
		t.Errorf("rounds = %d", acc.Rounds())
	}
}

// TestAccumulatorConcentratesOnSender: with repeated messages, the joint
// posterior must concentrate on the true sender and its entropy must fall.
func TestAccumulatorConcentratesOnSender(t *testing.T) {
	const n = 12
	compromised := []trace.NodeID{1, 5}
	u, err := dist.NewUniform(1, 6)
	if err != nil {
		t.Fatal(err)
	}
	a := analyst(t, n, compromised, u)
	acc, err := adversary.NewAccumulator(a)
	if err != nil {
		t.Fatal(err)
	}
	strat := pathsel.Strategy{Name: "u", Length: u, Kind: pathsel.Simple}
	sel, err := pathsel.NewSelector(n, strat)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRand(3)
	sender := trace.NodeID(8)
	var lastH = math.Inf(1)
	var sawDrop bool
	var sc adversary.Scratch
	for r := 0; r < 200; r++ {
		path, err := sel.SelectPath(rng, sender)
		if err != nil {
			t.Fatal(err)
		}
		mt := montecarlo.Synthesize(trace.MessageID(r+1), sender, path, a.Compromised)
		if err := acc.ObserveScratch(mt, &sc); err != nil {
			t.Fatal(err)
		}
		h, _, _, err := acc.SnapshotFast()
		if err != nil {
			t.Fatal(err)
		}
		if h < lastH-1e-12 {
			sawDrop = true
		}
		lastH = h
		post, err := acc.Posterior()
		if err != nil {
			t.Fatal(err)
		}
		if post[sender] <= 0 {
			t.Fatalf("round %d: true sender excluded", r)
		}
	}
	if !sawDrop {
		t.Error("entropy never decreased over 200 rounds")
	}
	_, top, mass, err := acc.SnapshotFast()
	if err != nil {
		t.Fatal(err)
	}
	if top != sender {
		t.Errorf("after 200 rounds, top = %v (mass %v), want %v", top, mass, sender)
	}
	if mass < 0.9 {
		t.Errorf("after 200 rounds, sender mass only %v", mass)
	}
	if acc.Rounds() != 200 {
		t.Errorf("rounds = %d", acc.Rounds())
	}
}

// session is a repeated-communication experiment on the exact backend:
// messages fixed-sender sessions of rounds rounds each.
func session(n int, compromised []trace.NodeID, strat pathsel.Strategy, sender trace.NodeID,
	confidence float64, rounds, messages int, seed int64) scenario.Config {
	return scenario.Config{
		N:         n,
		Backend:   scenario.BackendExact,
		Strategy:  strat,
		Adversary: scenario.Adversary{Compromised: compromised},
		Workload: scenario.Workload{
			Messages:    messages,
			Rounds:      rounds,
			Confidence:  confidence,
			FixedSender: true,
			Sender:      sender,
			Seed:        seed,
		},
	}
}

func TestRunValidation(t *testing.T) {
	u, err := pathsel.UniformLength(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	crowdsStrat, err := pathsel.Crowds(0.5, 9)
	if err != nil {
		t.Fatal(err)
	}
	base := session(10, []trace.NodeID{0}, u, 5, 0.9, 5, 2, 0)
	cases := []struct {
		name string
		mut  func(*scenario.Config)
		want error
	}{
		{"small n", func(c *scenario.Config) { c.N = 1 }, scenario.ErrBadConfig},
		{"bad sender", func(c *scenario.Config) { c.Workload.Sender = 10 }, scenario.ErrBadConfig},
		{"compromised sender", func(c *scenario.Config) { c.Workload.Sender = 0 }, scenario.ErrBadConfig},
		{"bad confidence", func(c *scenario.Config) { c.Workload.Confidence = 1 }, scenario.ErrBadConfig},
		{"negative rounds", func(c *scenario.Config) { c.Workload.Rounds = -1 }, scenario.ErrBadConfig},
		{"no trials", func(c *scenario.Config) { c.Workload.Messages = 0 }, scenario.ErrBadConfig},
		{"cyclic strategy", func(c *scenario.Config) {
			c.Protocol = scenario.ProtocolOnion
			c.Strategy = crowdsStrat
		}, capability.ErrComplicatedPaths},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		if _, err := scenario.Run(cfg); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	// Zero rounds is the default of one round per session, not a refusal.
	zero, one := base, base
	zero.Workload.Rounds, one.Workload.Rounds = 0, 1
	got, err := scenario.Run(zero)
	if err != nil {
		t.Fatal(err)
	}
	want, err := scenario.Run(one)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rounds != 1 || len(got.HRounds) != 1 || got.H != want.H {
		t.Errorf("zero rounds: Rounds %d, HRounds %v, H %v; one round gives H %v",
			got.Rounds, got.HRounds, got.H, want.H)
	}
}

// TestRunIdentifiesEventually: with enough rounds the adversary identifies
// the sender in (almost) every trial, and the mean entropy decreases in
// rounds.
func TestRunIdentifiesEventually(t *testing.T) {
	strat, err := pathsel.UniformLength(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.Run(session(12, []trace.NodeID{2, 9}, strat, 4, 0.90, 120, 40, 5))
	if err != nil {
		t.Fatal(err)
	}
	if res.IdentifiedShare < 0.9 {
		t.Errorf("identified share = %v, want ≥ 0.9", res.IdentifiedShare)
	}
	if res.MeanRoundsToIdentify <= 1 || res.MeanRoundsToIdentify > 120 {
		t.Errorf("mean rounds = %v", res.MeanRoundsToIdentify)
	}
	if len(res.HRounds) != 120 {
		t.Fatalf("entropy trajectory length %d", len(res.HRounds))
	}
	if !(res.HRounds[0] > res.HRounds[30]) || !(res.HRounds[30] > res.HRounds[119]) {
		t.Errorf("mean entropy not decreasing: %v %v %v",
			res.HRounds[0], res.HRounds[30], res.HRounds[119])
	}
	if res.Trials != 40 {
		t.Errorf("trials = %d", res.Trials)
	}
}

// crowdsAttack runs the predecessor-counting attack on the testbed's
// Crowds substrate: trials sessions of rounds path reformations each.
func crowdsAttack(n, c int, pf float64, rounds, trials int, seed int64) (scenario.Result, error) {
	return scenario.Run(scenario.Config{
		N:         n,
		Backend:   scenario.BackendTestbed,
		Protocol:  scenario.ProtocolCrowds,
		CrowdsPf:  pf,
		Adversary: scenario.Adversary{Count: c},
		Workload:  scenario.Workload{Messages: trials, Rounds: rounds, Seed: seed},
	})
}

func TestCrowdsDegradation(t *testing.T) {
	if _, err := crowdsAttack(10, 1, 1.2, 10, 10, 1); !errors.Is(err, scenario.ErrBadConfig) {
		t.Errorf("bad pf err = %v", err)
	}
	if _, err := crowdsAttack(10, 1, 0.7, 10, 0, 1); !errors.Is(err, scenario.ErrBadConfig) {
		t.Errorf("no trials err = %v", err)
	}
	// Zero rounds is the default of one reformation per session, not a
	// refusal.
	zero, err := crowdsAttack(10, 1, 0.7, 0, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	one, err := crowdsAttack(10, 1, 0.7, 1, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if zero.Rounds != 1 || zero.H != one.H ||
		zero.Crowds.MeanObservedRounds != one.Crowds.MeanObservedRounds {
		t.Errorf("zero rounds: Rounds %d, H %v, observed %v; one round gives H %v, observed %v",
			zero.Rounds, zero.H, zero.Crowds.MeanObservedRounds, one.H, one.Crowds.MeanObservedRounds)
	}
	// Few rounds: rarely identified. Many rounds: almost always.
	few, err := crowdsAttack(20, 2, 0.75, 2, 400, 11)
	if err != nil {
		t.Fatal(err)
	}
	many, err := crowdsAttack(20, 2, 0.75, 400, 400, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !(many.Crowds.TopCountIdentifiedShare > few.Crowds.TopCountIdentifiedShare) {
		t.Errorf("identification should improve with rounds: %v vs %v",
			many.Crowds.TopCountIdentifiedShare, few.Crowds.TopCountIdentifiedShare)
	}
	if many.Crowds.TopCountIdentifiedShare < 0.9 {
		t.Errorf("400 rounds: identified share %v, want ≥ 0.9", many.Crowds.TopCountIdentifiedShare)
	}
	if many.Crowds.MeanObservedRounds <= few.Crowds.MeanObservedRounds {
		t.Errorf("observed rounds should grow: %v vs %v",
			many.Crowds.MeanObservedRounds, few.Crowds.MeanObservedRounds)
	}
}
