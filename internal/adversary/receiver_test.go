package adversary_test

// Tests of the uncompromised-receiver adversary and the O(reports)
// EntropyScratch, which must agree with the full Posterior. The
// classification of receiver fields and collapsed tails is checked in
// package (classify_test.go).

import (
	"math"
	"testing"

	"anonmix/internal/adversary"
	"anonmix/internal/events"
	"anonmix/internal/trace"
)

func uncompAnalyst(t *testing.T, n int, compromised []trace.NodeID) *adversary.Analyst {
	t.Helper()
	e, err := events.New(n, len(compromised), events.WithUncompromisedReceiver())
	if err != nil {
		t.Fatal(err)
	}
	a, err := adversary.NewAnalyst(e, uniform(t, 0, 5), compromised)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestUncompromisedReceiverEmptyTrace(t *testing.T) {
	const n = 12
	comp := []trace.NodeID{0, 1}
	a := uncompAnalyst(t, n, comp)
	// No reports at all, and no receiver report either: the adversary sees
	// nothing; the posterior is uniform over the n−c uncompromised nodes.
	post, err := a.Posterior(&trace.MessageTrace{})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Log2(float64(n - len(comp)))
	if math.Abs(post.H-want) > 1e-12 {
		t.Errorf("H = %v, want log2(%d) = %v", post.H, n-len(comp), want)
	}
	for id, p := range post.P {
		isComp := id < len(comp)
		if isComp && p != 0 {
			t.Errorf("compromised node %d has mass %v", id, p)
		}
		if !isComp && math.Abs(p-1/float64(n-len(comp))) > 1e-12 {
			t.Errorf("node %d mass %v", id, p)
		}
	}
	var sc adversary.Scratch
	h, err := a.EntropyScratch(&trace.MessageTrace{}, &sc)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h-post.H) > 1e-12 {
		t.Errorf("EntropyScratch = %v, Posterior.H = %v", h, post.H)
	}
}

// TestEntropyMatchesPosterior sweeps concrete paths under the default
// (compromised-receiver) model and checks the fast path against the full
// posterior computation.
func TestEntropyMatchesPosterior(t *testing.T) {
	comp := []trace.NodeID{2, 7}
	a := analyst(t, 14, comp, uniform(t, 0, 5))
	paths := [][]trace.NodeID{
		nil,
		{3},
		{2},
		{2, 7},
		{2, 3, 7},
		{5, 2, 7, 9},
		{9, 10, 11},
		{2, 7, 9, 5},
	}
	var sc adversary.Scratch
	for _, p := range paths {
		mt := synth(4, p, comp...)
		post, err := a.Posterior(mt)
		if err != nil {
			t.Fatalf("path %v: %v", p, err)
		}
		h, err := a.EntropyScratch(mt, &sc)
		if err != nil {
			t.Fatalf("path %v: %v", p, err)
		}
		if math.Abs(h-post.H) > 1e-9 {
			t.Errorf("path %v: EntropyScratch %v, Posterior.H %v", p, h, post.H)
		}
	}
}
