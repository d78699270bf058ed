package adversary

// In-package tests of the trace classifier: the view it reads off
// concrete traces (shape counts, tail, candidate, witnesses), which must
// be the view walkPath counts from the same path, and the uncompromised-
// receiver model's handling of the receiver fields.

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"anonmix/internal/dist"
	"anonmix/internal/events"
	"anonmix/internal/montecarlo"
	"anonmix/internal/trace"
)

func testAnalyst(t *testing.T, n int, compromised []trace.NodeID, opts ...events.Option) *Analyst {
	t.Helper()
	e, err := events.New(n, len(compromised), opts...)
	if err != nil {
		t.Fatal(err)
	}
	u, err := dist.NewUniform(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAnalyst(e, u, compromised)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// shapeString renders a view's shape: "[none]" for no compromised hop,
// else "k<hops> <one-node>/<wide> t<tail>".
func shapeString(v view) string {
	if v.k == 0 {
		return "[none]"
	}
	return fmt.Sprintf("k%d %d/%d t%s", v.k, v.one, v.wide, v.tail)
}

func TestClassifyStructures(t *testing.T) {
	// System of 12 nodes, compromised {0,1,2}. Sender 5.
	a := testAnalyst(t, 12, []trace.NodeID{0, 1, 2})
	cases := []struct {
		name          string
		path          []trace.NodeID
		wantShape     string
		wantCand      trace.NodeID
		wantWitnessed []trace.NodeID
	}{
		{"empty", []trace.NodeID{7, 8}, "[none]", 8, []trace.NodeID{8}},
		{"direct send", nil, "[none]", 5, []trace.NodeID{5}},
		{"tail zero", []trace.NodeID{7, 0}, "k1 0/0 t0", 7, []trace.NodeID{7}},
		{"tail one", []trace.NodeID{0, 7}, "k1 0/0 t1", 5, []trace.NodeID{7, 5}},
		{"tail wide", []trace.NodeID{0, 7, 8}, "k1 0/0 t2+", 5, []trace.NodeID{7, 8, 5}},
		{"run of two", []trace.NodeID{7, 0, 1, 8}, "k2 0/0 t1", 7, []trace.NodeID{8, 7}},
		{"gap one", []trace.NodeID{0, 7, 1, 8}, "k2 1/0 t1", 5, []trace.NodeID{7, 8, 5}},
		{"gap wide", []trace.NodeID{0, 7, 8, 1}, "k2 0/1 t0", 5, []trace.NodeID{7, 8, 5}},
		{"all three", []trace.NodeID{0, 1, 2}, "k3 0/0 t0", 5, []trace.NodeID{5}},
		{"full structure", []trace.NodeID{6, 0, 7, 1, 2, 8, 9}, "k3 1/0 t2+", 6, []trace.NodeID{7, 8, 9, 6}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var sc, scPath Scratch
			v, err := a.classify(montecarlo.Synthesize(1, 5, c.path, a.Compromised), &sc)
			if err != nil {
				t.Fatal(err)
			}
			if got := shapeString(v); got != c.wantShape {
				t.Errorf("shape = %s, want %s (path %v)", got, c.wantShape, c.path)
			}
			if v.candidate != c.wantCand || v.identified {
				t.Errorf("candidate = %v (identified %v), want %v", v.candidate, v.identified, c.wantCand)
			}
			if !slices.Equal(sc.witnessed, c.wantWitnessed) || v.witnesses != len(c.wantWitnessed) {
				t.Errorf("witnessed %v (%d honest), want %v", sc.witnessed, v.witnesses, c.wantWitnessed)
			}
			if w := a.walkPath(5, c.path, &scPath); w != v || !slices.Equal(scPath.witnessed, sc.witnessed) {
				t.Errorf("walkPath view %+v witnessed %v, classify %+v witnessed %v",
					w, scPath.witnessed, v, sc.witnessed)
			}
		})
	}
}

func TestUncompromisedReceiverTailCollapse(t *testing.T) {
	comp := []trace.NodeID{0, 1}
	a := testAnalyst(t, 12, comp, events.WithUncompromisedReceiver())
	var sc Scratch

	// Path 5 → 0 → 7 → R: node 0 reports (pred 5, succ 7); the receiver
	// stays silent, so the tail is unobservable (could be one hop or many).
	mt := montecarlo.Synthesize(1, 5, []trace.NodeID{0, 7}, a.Compromised)
	mt.ReceiverSeen = false // the network's receiver tap is not available
	v, err := a.classify(mt, &sc)
	if err != nil {
		t.Fatal(err)
	}
	if v.tail != events.TailUnobserved {
		t.Errorf("tail = %v, want TailUnobserved", v.tail)
	}
	if want := []trace.NodeID{7, 5}; !slices.Equal(sc.witnessed, want) || v.witnesses != 2 {
		t.Errorf("witnessed = %v (%d honest), want %v", sc.witnessed, v.witnesses, want)
	}

	// Path 2 → 0 → R: the run's successor IS the receiver — observable.
	mt = montecarlo.Synthesize(1, 2, []trace.NodeID{0}, a.Compromised)
	mt.ReceiverSeen = false
	if v, err = a.classify(mt, &sc); err != nil {
		t.Fatal(err)
	}
	if v.tail != events.TailZero {
		t.Errorf("tail = %v, want TailZero", v.tail)
	}
}

// TestUncompromisedReceiverIgnoresReceiverFields: the same trace with and
// without receiver fields must classify identically — the adversary does
// not have the receiver's report even when the testbed recorded one.
func TestUncompromisedReceiverIgnoresReceiverFields(t *testing.T) {
	comp := []trace.NodeID{0, 1}
	a := testAnalyst(t, 12, comp, events.WithUncompromisedReceiver())
	with := montecarlo.Synthesize(1, 5, []trace.NodeID{0, 7, 9}, a.Compromised) // ReceiverSeen = true
	without := montecarlo.Synthesize(1, 5, []trace.NodeID{0, 7, 9}, a.Compromised)
	without.ReceiverSeen = false
	without.ReceiverPred = 0

	var sc1, sc2 Scratch
	v1, err := a.classify(with, &sc1)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := a.classify(without, &sc2)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 || !slices.Equal(sc1.witnessed, sc2.witnessed) {
		t.Errorf("classifications diverge: %+v %v vs %+v %v", v1, sc1.witnessed, v2, sc2.witnessed)
	}
	h1, err := a.EntropyScratch(with, &sc1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := a.Posterior(without)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h1-p2.H) > 1e-12 {
		t.Errorf("EntropyScratch %v != Posterior.H %v", h1, p2.H)
	}
}
