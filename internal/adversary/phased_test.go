package adversary_test

import (
	"errors"
	"math"
	"testing"

	"anonmix/internal/adversary"
	"anonmix/internal/dist"
	"anonmix/internal/events"
	"anonmix/internal/montecarlo"
	"anonmix/internal/trace"
)

// TestPhasedMatchesStatic: with a static population — one phase, or two
// phases under the same analyst, whose live lists spell the identity out
// — the timeline accumulator must reproduce the static one bit for bit.
func TestPhasedMatchesStatic(t *testing.T) {
	const n = 12
	comp := []trace.NodeID{2, 7}
	e, err := events.New(n, len(comp))
	if err != nil {
		t.Fatal(err)
	}
	d, err := dist.NewUniform(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	analyst, err := adversary.NewAnalyst(e, d, comp)
	if err != nil {
		t.Fatal(err)
	}
	identity := make([]trace.NodeID, n)
	for i := range identity {
		identity[i] = trace.NodeID(i)
	}
	paths := [][]trace.NodeID{{3, 2, 8}, {7, 1}, {4}, {2, 9, 7, 6}}
	var sc adversary.Scratch
	for _, phases := range []int{1, 2} {
		static, err := adversary.NewAccumulator(analyst)
		if err != nil {
			t.Fatal(err)
		}
		analysts := []*adversary.Analyst{analyst, analyst}[:phases]
		live := [][]trace.NodeID{identity, identity}[:phases]
		phased, err := adversary.NewTimelineAccumulator(n, analysts, live)
		if err != nil {
			t.Fatal(err)
		}
		for r, path := range paths {
			if r == len(paths)/2 {
				if err := phased.SetPhase(phases - 1); err != nil {
					t.Fatal(err)
				}
			}
			mt := montecarlo.Synthesize(trace.MessageID(r+1), 5, path, analyst.Compromised)
			if err := static.ObserveScratch(mt, &sc); err != nil {
				t.Fatal(err)
			}
			if err := phased.ObserveScratch(mt, &sc); err != nil {
				t.Fatal(err)
			}
			hs, topS, massS, err := static.SnapshotFast()
			if err != nil {
				t.Fatal(err)
			}
			hp, topP, massP, err := phased.SnapshotFast()
			if err != nil {
				t.Fatal(err)
			}
			if hs != hp || topS != topP || massS != massP {
				t.Errorf("%d phases, round %d: static (%v, %v, %v), phased (%v, %v, %v)",
					phases, r+1, hs, topS, massS, hp, topP, massP)
			}
		}
		if phased.Rounds() != len(paths) {
			t.Errorf("rounds = %d", phased.Rounds())
		}
	}
}

// TestPhasedEliminatesAbsentMembers: a union member absent during an
// observed round cannot be the sender; the joint posterior must drop it
// even if every present round left it plausible.
func TestPhasedEliminatesAbsentMembers(t *testing.T) {
	// Union space of 6: phase A = {0..4}, phase B = {0,1,2,3,5} (node 4
	// left, node 5 joined).
	e5, err := events.New(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := dist.NewFixed(2)
	if err != nil {
		t.Fatal(err)
	}
	liveA := []trace.NodeID{0, 1, 2, 3, 4}
	liveB := []trace.NodeID{0, 1, 2, 3, 5}
	analystA, err := adversary.NewAnalyst(e5, d, []trace.NodeID{1})
	if err != nil {
		t.Fatal(err)
	}
	analystB := analystA // same dense structure in both phases

	acc, err := adversary.NewTimelineAccumulator(6, []*adversary.Analyst{analystA, analystB},
		[][]trace.NodeID{liveA, liveB})
	if err != nil {
		t.Fatal(err)
	}
	// Round 1 in phase A: dense sender 0, path through honest nodes only.
	var sc adversary.Scratch
	if err := acc.ObserveScratch(montecarlo.Synthesize(1, 0, []trace.NodeID{2, 3}, analystA.Compromised), &sc); err != nil {
		t.Fatal(err)
	}
	post, err := acc.Posterior()
	if err != nil {
		t.Fatal(err)
	}
	if post[5] != 0 {
		t.Errorf("joiner (absent in phase A) has mass %v after round 1", post[5])
	}
	// Round 2 in phase B eliminates union node 4 (left) in turn.
	if err := acc.SetPhase(1); err != nil {
		t.Fatal(err)
	}
	if err := acc.ObserveScratch(montecarlo.Synthesize(2, 0, []trace.NodeID{2, 3}, analystB.Compromised), &sc); err != nil {
		t.Fatal(err)
	}
	post, err = acc.Posterior()
	if err != nil {
		t.Fatal(err)
	}
	if post[4] != 0 || post[5] != 0 {
		t.Errorf("transient members kept mass: p[4]=%v p[5]=%v", post[4], post[5])
	}
	var sum float64
	for _, p := range post {
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("posterior mass = %v", sum)
	}
}

// TestPhasedValidation pins the accumulator's input checks: the phase
// list at construction, and the order SetPhase walks it in.
func TestPhasedValidation(t *testing.T) {
	e, err := events.New(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := dist.NewFixed(1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := adversary.NewAnalyst(e, d, []trace.NodeID{1})
	if err != nil {
		t.Fatal(err)
	}
	full := []trace.NodeID{0, 1, 2, 3, 4}
	for name, tc := range map[string]struct {
		union    int
		analysts []*adversary.Analyst
		live     [][]trace.NodeID
	}{
		"empty union":          {0, []*adversary.Analyst{a}, [][]trace.NodeID{full}},
		"no phases":            {6, nil, nil},
		"live lists missing":   {6, []*adversary.Analyst{a, a}, [][]trace.NodeID{full}},
		"nil analyst":          {6, []*adversary.Analyst{nil}, [][]trace.NodeID{full}},
		"short live":           {6, []*adversary.Analyst{a}, [][]trace.NodeID{{0, 1}}},
		"outside union":        {6, []*adversary.Analyst{a}, [][]trace.NodeID{{0, 1, 2, 3, 9}}},
		"duplicate identity":   {6, []*adversary.Analyst{a}, [][]trace.NodeID{{0, 1, 2, 3, 3}}},
		"descending":           {6, []*adversary.Analyst{a}, [][]trace.NodeID{{0, 1, 2, 5, 4}}},
		"identity short union": {6, []*adversary.Analyst{a}, [][]trace.NodeID{nil}},
	} {
		if _, err := adversary.NewTimelineAccumulator(tc.union, tc.analysts, tc.live); !errors.Is(err, adversary.ErrBadConfig) {
			t.Errorf("%s: err = %v", name, err)
		}
	}
	if _, err := adversary.NewAccumulator(nil); !errors.Is(err, adversary.ErrBadConfig) {
		t.Errorf("nil analyst: err = %v", err)
	}

	acc, err := adversary.NewTimelineAccumulator(6, []*adversary.Analyst{a, a, a},
		[][]trace.NodeID{full, {0, 1, 2, 3, 5}, {0, 1, 2, 3, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := acc.Posterior(); !errors.Is(err, adversary.ErrNoObservations) {
		t.Errorf("empty posterior err = %v", err)
	}
	if err := acc.SetPhase(1); !errors.Is(err, adversary.ErrBadConfig) {
		t.Errorf("phase 1 before a round of phase 0: err = %v", err)
	}
	var sc adversary.Scratch
	if err := acc.ObserveScratch(montecarlo.Synthesize(1, 0, []trace.NodeID{2}, a.Compromised), &sc); err != nil {
		t.Fatal(err)
	}
	if err := acc.SetPhase(2); !errors.Is(err, adversary.ErrBadConfig) {
		t.Errorf("skipping phase 1: err = %v", err)
	}
	if err := acc.SetPhase(0); err != nil {
		t.Errorf("reselecting the current phase: err = %v", err)
	}
	if err := acc.SetPhase(1); err != nil {
		t.Fatal(err)
	}
	if err := acc.SetPhase(0); !errors.Is(err, adversary.ErrBadConfig) {
		t.Errorf("going back to phase 0: err = %v", err)
	}
	if err := acc.SetPhase(3); !errors.Is(err, adversary.ErrBadConfig) {
		t.Errorf("phase past the last: err = %v", err)
	}
	acc.Reset()
	if err := acc.SetPhase(1); !errors.Is(err, adversary.ErrBadConfig) {
		t.Errorf("Reset did not return to phase 0: err = %v", err)
	}

	// A foreign analyst verified against one phase's compromised set is
	// checked again in a phase with another set.
	b, err := adversary.NewAnalyst(e, d, []trace.NodeID{2})
	if err != nil {
		t.Fatal(err)
	}
	eU, err := events.New(5, 1, events.WithUncompromisedReceiver())
	if err != nil {
		t.Fatal(err)
	}
	aU, err := adversary.NewAnalyst(eU, d, []trace.NodeID{1})
	if err != nil {
		t.Fatal(err)
	}
	acc, err = adversary.NewTimelineAccumulator(5, []*adversary.Analyst{a, b}, [][]trace.NodeID{nil, nil})
	if err != nil {
		t.Fatal(err)
	}
	partial := &trace.MessageTrace{Msg: 1}
	if err := acc.FoldObservation(aU, partial, &sc); err != nil {
		t.Fatal(err)
	}
	if err := acc.SetPhase(1); err != nil {
		t.Fatal(err)
	}
	if err := acc.FoldObservation(aU, partial, &sc); !errors.Is(err, adversary.ErrBadConfig) {
		t.Errorf("analyst of phase 0's compromised set folded in phase 1: err = %v", err)
	}
}
