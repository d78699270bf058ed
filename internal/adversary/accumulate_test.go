package adversary_test

import (
	"errors"
	"math"
	"testing"

	"anonmix/internal/adversary"
	"anonmix/internal/dist"
	"anonmix/internal/entropy"
	"anonmix/internal/events"
	"anonmix/internal/montecarlo"
	"anonmix/internal/pathsel"
	"anonmix/internal/stats"
	"anonmix/internal/trace"
)

func accumAnalyst(t *testing.T, n int, compromised []trace.NodeID, d dist.Length) *adversary.Analyst {
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

func TestAccumulatorEmpty(t *testing.T) {
	if _, err := adversary.NewAccumulator(nil); !errors.Is(err, adversary.ErrBadConfig) {
		t.Errorf("nil analyst err = %v", err)
	}
	u, err := dist.NewUniform(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := adversary.NewAccumulator(accumAnalyst(t, 10, []trace.NodeID{0}, u))
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

// TestSnapshotMatchesEntropyAndTop: SnapshotFast, which materializes
// nothing, returns the entropy, argmax and argmax mass of the normalized
// joint posterior vector, up to the order its sums associate in.
func TestSnapshotMatchesEntropyAndTop(t *testing.T) {
	const n = 12
	compromised := []trace.NodeID{1, 5}
	u, err := dist.NewUniform(1, 6)
	if err != nil {
		t.Fatal(err)
	}
	a := accumAnalyst(t, n, compromised, u)
	acc, err := adversary.NewAccumulator(a)
	if err != nil {
		t.Fatal(err)
	}
	strat := pathsel.Strategy{Name: "u", Length: u, Kind: pathsel.Simple}
	sel, err := pathsel.NewSelector(n, strat)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRand(9)
	sender := trace.NodeID(7)
	var sc adversary.Scratch
	for r := 0; r < 25; r++ {
		path, err := sel.SelectPath(rng, sender)
		if err != nil {
			t.Fatal(err)
		}
		mt := montecarlo.Synthesize(trace.MessageID(r+1), sender, path, a.Compromised)
		if err := acc.ObserveScratch(mt, &sc); err != nil {
			t.Fatal(err)
		}
		h, top, mass, err := acc.SnapshotFast()
		if err != nil {
			t.Fatal(err)
		}
		p, err := acc.Posterior()
		if err != nil {
			t.Fatal(err)
		}
		wantTop := 0
		for i, v := range p {
			if v > p[wantTop] {
				wantTop = i
			}
		}
		wantH, wantMass := entropy.Bits(p), p[wantTop]
		if math.Abs(h-wantH) > 1e-9 || top != trace.NodeID(wantTop) || math.Abs(mass-wantMass) > 1e-9 {
			t.Fatalf("round %d: snapshot (%v, %v, %v) != (%v, %v, %v)",
				r+1, h, top, mass, wantH, wantTop, wantMass)
		}
		if math.IsNaN(h) || h < 0 {
			t.Fatalf("round %d: bad entropy %v", r+1, h)
		}
	}
	if acc.Rounds() != 25 {
		t.Errorf("rounds = %d", acc.Rounds())
	}
}

// TestFoldObservation: folding an empty partial trace (a uniform
// posterior over the honest nodes) leaves the accumulated entropy
// unchanged, an identifying fold collapses the joint onto the identified
// node, and analysts over another population or another compromised set
// are rejected.
func TestFoldObservation(t *testing.T) {
	const n = 10
	compromised := []trace.NodeID{2, 3}
	u, err := dist.NewUniform(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	a := accumAnalyst(t, n, compromised, u)
	analystU := func(n int, compromised []trace.NodeID) *adversary.Analyst {
		t.Helper()
		e, err := events.New(n, len(compromised), events.WithUncompromisedReceiver())
		if err != nil {
			t.Fatal(err)
		}
		au, err := adversary.NewAnalyst(e, u, compromised)
		if err != nil {
			t.Fatal(err)
		}
		return au
	}
	aU := analystU(n, compromised)
	acc, err := adversary.NewAccumulator(a)
	if err != nil {
		t.Fatal(err)
	}
	var sc adversary.Scratch
	sender := trace.NodeID(6)
	if err := acc.ObserveScratch(montecarlo.Synthesize(1, sender, []trace.NodeID{8, 3, 5}, a.Compromised), &sc); err != nil {
		t.Fatal(err)
	}
	h0, _, _, err := acc.SnapshotFast()
	if err != nil {
		t.Fatal(err)
	}

	empty := &trace.MessageTrace{Msg: 2}
	if err := acc.FoldObservation(aU, empty, &sc); err != nil {
		t.Fatal(err)
	}
	h1, _, _, err := acc.SnapshotFast()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h1-h0) > 1e-12 {
		t.Errorf("empty partial fold moved entropy: %v -> %v", h0, h1)
	}
	if acc.Rounds() != 2 {
		t.Errorf("rounds = %d after one observation and one fold", acc.Rounds())
	}

	// Compromised node 2 sends through compromised node 3, which reports
	// a predecessor that filed no relay report: the sender is identified.
	acc.Reset()
	ident := montecarlo.SynthesizePartial(3, 2, []trace.NodeID{3, 7}, 1, a.Compromised)
	if err := acc.FoldObservation(aU, ident, &sc); err != nil {
		t.Fatal(err)
	}
	h2, top, mass, err := acc.SnapshotFast()
	if err != nil {
		t.Fatal(err)
	}
	if h2 != 0 || top != 2 || mass != 1 {
		t.Errorf("identifying fold snapshot = (%v, %v, %v), want (0, 2, 1)", h2, top, mass)
	}
	// Any later non-identifying round eliminates the compromised sender.
	if err := acc.FoldObservation(aU, empty, &sc); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := acc.SnapshotFast(); !errors.Is(err, adversary.ErrCorruptTrace) {
		t.Errorf("contradicted identification err = %v, want ErrCorruptTrace", err)
	}

	for name, bad := range map[string]*adversary.Analyst{
		"nil":               nil,
		"wrong N":           analystU(n+1, compromised),
		"other compromised": analystU(n, []trace.NodeID{2, 4}),
	} {
		if err := acc.FoldObservation(bad, empty, &sc); !errors.Is(err, adversary.ErrBadConfig) {
			t.Errorf("%s analyst fold err = %v, want ErrBadConfig", name, err)
		}
	}
	if acc.Rounds() != 2 {
		t.Errorf("rejected folds changed rounds to %d", acc.Rounds())
	}
}
