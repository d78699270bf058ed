package pathsel

import (
	"errors"
	"math"
	"testing"

	"anonmix/internal/dist"
	"anonmix/internal/stats"
	"anonmix/internal/trace"
)

func TestPresets(t *testing.T) {
	cases := []struct {
		s        Strategy
		wantMean float64
		wantKind PathKind
	}{
		{Anonymizer(), 1, Simple},
		{LPWA(), 1, Simple},
		{Freedom(), 3, Simple},
		{OnionRoutingI(), 5, Simple},
		{PipeNet(), 3.5, Simple},
	}
	for _, c := range cases {
		if err := c.s.Validate(100); err != nil {
			t.Errorf("%s: %v", c.s.Name, err)
		}
		if m := c.s.Length.Mean(); math.Abs(m-c.wantMean) > 1e-12 {
			t.Errorf("%s: mean = %v, want %v", c.s.Name, m, c.wantMean)
		}
		if c.s.Kind != c.wantKind {
			t.Errorf("%s: kind = %v", c.s.Name, c.s.Kind)
		}
	}
	crowds, err := Crowds(0.75, 99)
	if err != nil {
		t.Fatal(err)
	}
	if crowds.Kind != Complicated {
		t.Errorf("Crowds kind = %v", crowds.Kind)
	}
	or2, err := OnionRoutingII(0.8, 99)
	if err != nil {
		t.Fatal(err)
	}
	if or2.Kind != Complicated {
		t.Errorf("OR-II kind = %v", or2.Kind)
	}
	hordes, err := Hordes(0.8, 99)
	if err != nil {
		t.Fatal(err)
	}
	if hordes.Kind != Complicated || hordes.Name != "Hordes" {
		t.Errorf("Hordes = %+v", hordes)
	}
	if _, err := Hordes(-1, 99); err == nil {
		t.Error("Hordes(-1) accepted")
	}
	rem, err := Remailer(4)
	if err != nil {
		t.Fatal(err)
	}
	if rem.Length.Mean() != 4 {
		t.Errorf("Remailer mean = %v", rem.Length.Mean())
	}
	if _, err := Crowds(1.5, 99); err == nil {
		t.Error("Crowds(1.5) accepted")
	}
	if _, err := Remailer(-1); err == nil {
		t.Error("Remailer(-1) accepted")
	}
}

func TestStrategyValidate(t *testing.T) {
	if err := (Strategy{}).Validate(10); !errors.Is(err, ErrBadStrategy) {
		t.Errorf("nil dist err = %v", err)
	}
	f, err := dist.NewFixed(12)
	if err != nil {
		t.Fatal(err)
	}
	s := Strategy{Name: "too long", Length: f, Kind: Simple}
	if err := s.Validate(10); !errors.Is(err, ErrBadStrategy) {
		t.Errorf("overlong simple err = %v", err)
	}
	s.Kind = PathKind(9)
	if err := s.Validate(100); !errors.Is(err, ErrBadStrategy) {
		t.Errorf("bad kind err = %v", err)
	}
}

func TestNewSelectorValidation(t *testing.T) {
	if _, err := NewSelector(1, Anonymizer()); !errors.Is(err, ErrBadStrategy) {
		t.Errorf("n=1 err = %v", err)
	}
	if _, err := NewSelector(50, OnionRoutingI()); err != nil {
		t.Fatal(err)
	}
}

// TestComplicatedPathAllowsCycles: a Crowds path never forwards to its
// current holder, but over the draws some path revisits a node and some
// passes back through the sender.
func TestComplicatedPathAllowsCycles(t *testing.T) {
	strat, err := Crowds(0.9, 60)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := NewSelector(6, strat)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sel.NewSampler()
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewStream(5, 0)
	const sender = trace.NodeID(2)
	var sawRepeat, sawSender bool
	for i := 0; i < 3000; i++ {
		path, err := sp.SelectPath(&rng, sender)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[trace.NodeID]bool)
		prev := sender
		for _, v := range path {
			if v == prev {
				t.Fatalf("immediate self-loop at %v: %v", v, path)
			}
			if seen[v] {
				sawRepeat = true
			}
			if v == sender {
				sawSender = true
			}
			seen[v] = true
			prev = v
		}
	}
	if !sawRepeat {
		t.Error("complicated paths never revisited a node in 3000 trials")
	}
	if !sawSender {
		t.Error("complicated paths never passed back through the sender")
	}
}

func TestWithLength(t *testing.T) {
	if _, err := WithLength("x", nil); !errors.Is(err, ErrBadStrategy) {
		t.Error("nil distribution accepted")
	}
	p, err := dist.NewPMF(2, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	s, err := WithLength("optimal", p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Kind != Simple || s.Name != "optimal" {
		t.Errorf("strategy = %+v", s)
	}
	_ = s.String()
	_ = Simple.String()
	_ = Complicated.String()
	_ = PathKind(9).String()
}
