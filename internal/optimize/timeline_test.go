package optimize

import (
	"math"
	"testing"

	"anonmix/internal/events"
	"anonmix/internal/pool"
)

// timelineEngines builds a drifting (N, C) trajectory as one engine
// family, the way scenario's delta cache would hand it to the solver.
func timelineEngines(tb testing.TB, n, c int, steps [][2]int, opts ...events.Option) []*events.Engine {
	tb.Helper()
	e := engine(tb, n, c, opts...)
	out := []*events.Engine{e}
	for _, s := range steps {
		var err error
		if e, err = e.Neighbor(s[0], s[1]); err != nil {
			tb.Fatal(err)
		}
		out = append(out, e)
	}
	return out
}

func creepProblem(t *testing.T) TimelineProblem {
	t.Helper()
	engines := timelineEngines(t, 60, 2, [][2]int{{0, 1}, {0, 1}, {1, 1}})
	p := TimelineProblem{Lo: 0, Hi: 30, Mean: 12}
	for i, e := range engines {
		p.Epochs = append(p.Epochs, EpochProblem{Engine: e, Weight: float64(1 + i%2)})
	}
	return p
}

// TestMaximizeTimelineWarmStartDeterministic: the warm-started epoch
// chain and the joint solve are bit-identical at pool widths 1 and 8.
func TestMaximizeTimelineWarmStartDeterministic(t *testing.T) {
	solve := func(workers int) TimelineResult {
		t.Helper()
		prev := pool.SetWorkers(workers)
		defer pool.SetWorkers(prev)
		res, err := MaximizeTimeline(creepProblem(t), WithMaxIterations(120))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := solve(1)
	parallel := solve(8)
	if serial.PerEpochH != parallel.PerEpochH || serial.Joint.H != parallel.Joint.H {
		t.Errorf("blended H: serial (%v, joint %v), parallel (%v, joint %v) (must be bit-identical)",
			serial.PerEpochH, serial.Joint.H, parallel.PerEpochH, parallel.Joint.H)
	}
	check := func(label string, a, b Result) {
		t.Helper()
		if a.H != b.H || a.Iterations != b.Iterations || a.Converged != b.Converged {
			t.Errorf("%s: serial {%v %d %v}, parallel {%v %d %v}",
				label, a.H, a.Iterations, a.Converged, b.H, b.Iterations, b.Converged)
		}
		if a.Dist.Lo != b.Dist.Lo || len(a.Dist.Mass) != len(b.Dist.Mass) {
			t.Fatalf("%s: support mismatch", label)
		}
		for i := range a.Dist.Mass {
			if a.Dist.Mass[i] != b.Dist.Mass[i] {
				t.Errorf("%s mass[%d]: serial %v, parallel %v", label, i, a.Dist.Mass[i], b.Dist.Mass[i])
			}
		}
	}
	for i := range serial.PerEpoch {
		check("epoch", serial.PerEpoch[i], parallel.PerEpoch[i])
	}
	check("joint", serial.Joint, parallel.Joint)
}

// TestMaximizeTimelineSingleEpoch pins the degenerate case: one epoch,
// solved cold, is exactly Maximize.
func TestMaximizeTimelineSingleEpoch(t *testing.T) {
	e, err := events.New(60, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := Problem{Engine: e, Lo: 0, Hi: 59, Mean: 12}
	want, err := Maximize(p, WithMaxIterations(120))
	if err != nil {
		t.Fatal(err)
	}
	res, err := MaximizeTimeline(TimelineProblem{
		Epochs: []EpochProblem{{Engine: e, Weight: 1}}, Lo: 0, Hi: 59, Mean: 12,
	}, WithMaxIterations(120))
	if err != nil {
		t.Fatal(err)
	}
	if res.PerEpoch[0].H != want.H || res.PerEpochH != want.H {
		t.Errorf("single-epoch PerEpoch H %v (blend %v), Maximize %v", res.PerEpoch[0].H, res.PerEpochH, want.H)
	}
	for i := range want.Dist.Mass {
		if res.PerEpoch[0].Dist.Mass[i] != want.Dist.Mass[i] {
			t.Errorf("mass[%d]: timeline %v, Maximize %v", i, res.PerEpoch[0].Dist.Mass[i], want.Dist.Mass[i])
		}
	}
}

// TestMaximizeTimelineOrdering pins the structural relations between the
// three policies: per-epoch dominates joint (it has strictly more freedom)
// to within the certified gaps, and the reported blends are consistent
// with EvaluateTimeline. It runs the creep problem and the grow dynamic of
// the committed epoch-optimizer golden (N = 24, C = 2, support [0, 8]).
func TestMaximizeTimelineOrdering(t *testing.T) {
	grow := TimelineProblem{Lo: 0, Hi: 8, Mean: UnconstrainedMean()}
	for _, e := range timelineEngines(t, 24, 2, [][2]int{{6, 0}, {6, 0}}) {
		grow.Epochs = append(grow.Epochs, EpochProblem{Engine: e, Weight: 1})
	}
	for _, p := range []TimelineProblem{creepProblem(t), grow} {
		checkTimelineOrdering(t, p)
	}
}

func checkTimelineOrdering(t *testing.T, p TimelineProblem) {
	t.Helper()
	res, err := MaximizeTimeline(p)
	if err != nil {
		t.Fatal(err)
	}
	var gaps float64
	for _, r := range append([]Result{res.Joint}, res.PerEpoch...) {
		if !r.Converged || r.Gap > 1e-9 {
			t.Errorf("solve converged %v with gap %v", r.Converged, r.Gap)
		}
		gaps += r.Gap
	}
	if res.PerEpochH < res.Joint.H-gaps-1e-9 {
		t.Errorf("per-epoch blend %v below joint %v: per-epoch must dominate", res.PerEpochH, res.Joint.H)
	}
	// The joint H reported by the ascent is the evaluator's blend; the
	// engine-side blend must agree (the weight decomposition is exact up
	// to alpha clamping).
	got, err := EvaluateTimeline(p, res.Joint.Dist)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-res.Joint.H) > 1e-9 {
		t.Errorf("EvaluateTimeline(joint) = %v, Joint.H = %v", got, res.Joint.H)
	}
	// Each epoch's reported H is the epoch-local value of its own optimum.
	for i := range p.Epochs {
		he, err := p.Epochs[i].Engine.AnonymityDegree(res.PerEpoch[i].Dist)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(he-res.PerEpoch[i].H) > 1e-9 {
			t.Errorf("epoch %d: engine H %v vs result %v", i, he, res.PerEpoch[i].H)
		}
		// Each epoch's optimum is certified to within its gap, so no
		// other distribution — the joint one included — scores more on
		// that epoch's engine by more than the gap.
		hj, err := p.Epochs[i].Engine.AnonymityDegree(res.Joint.Dist)
		if err != nil {
			t.Fatal(err)
		}
		if res.PerEpoch[i].H < hj-res.PerEpoch[i].Gap-1e-9 {
			t.Errorf("epoch %d: per-epoch H %v below joint's epoch value %v", i, res.PerEpoch[i].H, hj)
		}
	}
}

// TestMaximizeTimelineValidation exercises the error paths.
func TestMaximizeTimelineValidation(t *testing.T) {
	e, err := events.New(20, 2)
	if err != nil {
		t.Fatal(err)
	}
	cases := []TimelineProblem{
		{},
		{Epochs: []EpochProblem{{Engine: nil}}, Lo: 0, Hi: 10},
		{Epochs: []EpochProblem{{Engine: e, Weight: -1}}, Lo: 0, Hi: 10},
		{Epochs: []EpochProblem{{Engine: e}}, Lo: 0, Hi: 25},
		{Epochs: []EpochProblem{{Engine: e}}, Lo: 0, Hi: 10, Mean: 15},
	}
	for i, p := range cases {
		if p.Mean == 0 {
			p.Mean = UnconstrainedMean()
		}
		if _, err := MaximizeTimeline(p); err == nil {
			t.Errorf("case %d: want error, got nil", i)
		}
		if _, err := EvaluateTimeline(p, nil); err == nil {
			t.Errorf("case %d: EvaluateTimeline want error, got nil", i)
		}
	}
}
