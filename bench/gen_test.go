package main

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"anonmix/internal/anond"
	"anonmix/internal/pathsel"
	"anonmix/internal/scenario"
)

// inputs marshals the first n ops, the warm-up list and the probe
// configurations a seed generates.
func inputs(t *testing.T, workload string, seed int64, n int) []byte {
	t.Helper()
	g, err := newGenerator(workload, seed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(struct {
		Ops    []Op
		Warmup []Op
		Probes []anond.ScenarioRequest
	}{g.take(n), g.warmup(), g.probeConfigs(8)})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			one := inputs(t, w, 1, 2500)
			if !bytes.Equal(one, inputs(t, w, 1, 2500)) {
				t.Error("seed 1 generated different inputs on a second run")
			}
			if bytes.Equal(one, inputs(t, w, 2, 2500)) {
				t.Error("seeds 1 and 2 generated the same inputs")
			}
		})
	}
}

func TestGeneratedConfigsValid(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			g, err := newGenerator(w, 3)
			if err != nil {
				t.Fatal(err)
			}
			ops := append(g.take(2*len(g.pattern)+1), g.warmup()...)
			classes := map[string]bool{}
			for _, op := range ops {
				classes[op.Class] = true
				if op.Optimize != nil {
					checkOptimize(t, op)
					continue
				}
				req := op.Scenario
				s, err := pathsel.Lookup(req.Strategy)
				if err != nil {
					t.Fatalf("op %d (%s): %v", op.Index, op.Class, err)
				}
				if err := s.Validate(req.N); err != nil {
					t.Fatalf("op %d (%s): %v", op.Index, op.Class, err)
				}
				if _, err := config(req); err != nil {
					t.Fatalf("op %d (%s): %v", op.Index, op.Class, err)
				}
				if req.Timeline != "" {
					checkTimeline(t, op, req.N, req.Compromised, req.Timeline)
				}
			}
			for class := range g.count {
				if !classes[class] {
					t.Errorf("class %s never generated", class)
				}
			}
			for _, req := range g.probeConfigs(8) {
				s, err := pathsel.Lookup(req.Strategy)
				if err != nil || s.Validate(req.N) != nil {
					t.Errorf("probe config %+v does not validate", req)
				}
			}
		})
	}
}

// checkOptimize verifies an optimizer request fits its population.
func checkOptimize(t *testing.T, op Op) {
	t.Helper()
	req := op.Optimize
	if req.Lo < 0 || req.Hi <= req.Lo || req.Hi > req.N-1 {
		t.Fatalf("op %d: support [%d, %d] at N = %d", op.Index, req.Lo, req.Hi, req.N)
	}
	if req.Mean != nil && !(*req.Mean > float64(req.Lo) && *req.Mean < float64(req.Hi)) {
		t.Fatalf("op %d: mean %v outside (%d, %d)", op.Index, *req.Mean, req.Lo, req.Hi)
	}
	if req.Epochs != "" {
		checkTimeline(t, op, req.N, req.C, req.Epochs)
	}
}

// checkTimeline verifies every epoch keeps two honest members, one
// compromised node, and room for the longest path.
func checkTimeline(t *testing.T, op Op, n, c int, spec string) {
	t.Helper()
	timeline, err := scenario.ParseTimeline(spec)
	if err != nil {
		t.Fatalf("op %d: %v", op.Index, err)
	}
	states, err := scenario.TimelineStates(n, c, timeline)
	if err != nil {
		t.Fatalf("op %d: %v", op.Index, err)
	}
	for _, st := range states {
		if st.C < 1 || st.N-st.C < 2 {
			t.Fatalf("op %d: epoch %d has N = %d, C = %d", op.Index, st.Index, st.N, st.C)
		}
	}
}

func TestRadicalInverse(t *testing.T) {
	for i, want := range []float64{0, 0.5, 0.25, 0.75, 0.125, 0.625, 0.375, 0.875} {
		if got := radicalInverse(i, 2); got != want {
			t.Errorf("radicalInverse(%d, 2) = %v, want %v", i, got, want)
		}
	}
	if got := radicalInverse(5, 3); math.Abs(got-(2.0/3+1.0/9)) > 1e-15 {
		t.Errorf("radicalInverse(5, 3) = %v, want 7/9", got)
	}
}

func TestPointsCoverEveryStratum(t *testing.T) {
	// The first b^m points fall one per 1/b^m cell of every base-b
	// dimension.
	for d, b := range haltonBases {
		n := b * b
		seen := make([]bool, n)
		for k := range n {
			cell := int(point(k)[d]*float64(n) + 1e-9) // k/b^m may round below itself
			if seen[cell] {
				t.Fatalf("dimension %d: two of the first %d points in cell %d", d, n, cell)
			}
			seen[cell] = true
		}
	}
}

func TestListsAreWholeBlocks(t *testing.T) {
	for _, w := range workloadNames {
		g, err := newGenerator(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		p := len(g.pattern)
		block := time.Duration(float64(p) / nominalRate[w] * float64(time.Second))
		for _, tc := range []struct {
			d    time.Duration
			want int
		}{{3 * block, 3 * p}, {3*block + block/3, 3 * p}, {3*block - block/3, 3 * p}, {0, 1}} {
			if got := g.listLen(tc.d); got != tc.want {
				t.Errorf("%s: listLen(%v) = %d, want %d (blocks of %d)", w, tc.d, got, tc.want, p)
			}
		}
		if got := g.listLen(block * 3 / 10); got != p {
			t.Errorf("%s: 3/10 of a block's time gives %d ops, want a block of %d", w, got, p)
		}
		if got := g.listLen(block / 5); got < p/6 || got > p/4 {
			t.Errorf("%s: a fifth of a block's time gives %d ops, blocks of %d", w, got, p)
		}
	}
}
