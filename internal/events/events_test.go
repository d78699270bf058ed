package events_test

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"anonmix/internal/dist"
	"anonmix/internal/entropy"
	"anonmix/internal/events"
	"anonmix/internal/stats"
	"anonmix/internal/theory"
)

func mustEngine(t *testing.T, n, c int, opts ...events.Option) *events.Engine {
	t.Helper()
	e, err := events.New(n, c, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func mustFixed(t *testing.T, l int) dist.Fixed {
	t.Helper()
	f, err := dist.NewFixed(l)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func mustUniform(t *testing.T, a, b int) dist.Uniform {
	t.Helper()
	u, err := dist.NewUniform(a, b)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		n, c int
		want error
	}{
		{1, 0, events.ErrInvalidSystem},
		{0, 0, events.ErrInvalidSystem},
		{10, -1, events.ErrInvalidSystem},
		{10, 11, events.ErrInvalidSystem},
	}
	for _, c := range cases {
		if _, err := events.New(c.n, c.c); !errors.Is(err, c.want) {
			t.Errorf("New(%d,%d) err = %v, want %v", c.n, c.c, err, c.want)
		}
	}
	if _, err := events.New(100, 1); err != nil {
		t.Errorf("New(100,1) err = %v", err)
	}
	// The old Θ(3^C) engine refused c > 12 outright; the counted-bucket
	// engine accepts any c ≤ n and only the per-class enumeration keeps
	// the bound.
	e, err := events.New(100, 13)
	if err != nil {
		t.Fatalf("New(100,13) err = %v; bucketed engine must accept large c", err)
	}
	if _, err := e.AnonymityDegree(mustUniform(t, 2, 20)); err != nil {
		t.Errorf("AnonymityDegree at c=13 err = %v", err)
	}
	if _, err := e.ClassStats(mustUniform(t, 2, 20)); !errors.Is(err, events.ErrTooManyClasses) {
		t.Errorf("ClassStats at c=13 err = %v, want ErrTooManyClasses", err)
	}
	if _, err := events.New(1000, 400); err != nil {
		t.Errorf("New(1000,400) err = %v", err)
	}
}

func TestSupportTooLong(t *testing.T) {
	e := mustEngine(t, 10, 1)
	if _, err := e.AnonymityDegree(mustFixed(t, 10)); !errors.Is(err, events.ErrSupportTooLong) {
		t.Errorf("err = %v, want ErrSupportTooLong", err)
	}
	if _, err := e.AnonymityDegree(mustFixed(t, 9)); err != nil {
		t.Errorf("F(9) on n=10 should be valid: %v", err)
	}
}

func TestEnumerateCounts(t *testing.T) {
	// 1 empty class + Σ_{k=1..c} 3^(k−1) compositions·gap-flag combos × 3 tails.
	for c := 0; c <= 6; c++ {
		want := 1
		for k := 1; k <= c; k++ {
			p := 1
			for i := 1; i < k; i++ {
				p *= 3
			}
			want += 3 * p
		}
		got := events.Enumerate(c, true)
		if len(got) != want {
			t.Errorf("Enumerate(%d, true): %d classes, want %d", c, len(got), want)
		}
		seen := make(map[string]bool, len(got))
		for _, cl := range got {
			s := cl.String()
			if seen[s] {
				t.Errorf("Enumerate(%d): duplicate class %s", c, s)
			}
			seen[s] = true
		}
	}
	// Uncompromised receiver: 2 tail flags instead of 3.
	got := events.Enumerate(2, false)
	want := 1 + 2 + 2*2 // empty + [1]×2 tails + ([2] and [1,1]×2 gaps)×2 tails
	want = 1 + 1*2 + (1+2)*2
	if len(got) != want {
		t.Errorf("Enumerate(2,false): %d classes, want %d", len(got), want)
	}
}

func TestClassString(t *testing.T) {
	cl := events.Class{
		Runs: []int{2, 1},
		Gaps: []events.GapFlag{events.GapOne},
		Tail: events.TailWide,
	}
	if got := cl.String(); got != "[2]-1-[1]-t2+" {
		t.Errorf("String = %q", got)
	}
	if got := (events.Class{}).String(); got != "[none]" {
		t.Errorf("empty String = %q", got)
	}
}

func TestClassStatsSumToOne(t *testing.T) {
	for _, c := range []int{0, 1, 2, 3, 5} {
		e := mustEngine(t, 40, c)
		for _, d := range []dist.Length{mustFixed(t, 7), mustUniform(t, 0, 20), mustUniform(t, 3, 30)} {
			stats, err := e.ClassStats(d)
			if err != nil {
				t.Fatalf("c=%d %s: %v", c, d, err)
			}
			var sum float64
			for _, st := range stats {
				if st.P < 0 || st.P > 1+1e-12 {
					t.Errorf("c=%d %s: class %s has P=%v", c, d, st.Class, st.P)
				}
				if st.Alpha < 0 || st.Alpha > 1+1e-12 {
					t.Errorf("c=%d %s: class %s has Alpha=%v", c, d, st.Class, st.Alpha)
				}
				sum += st.P
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("c=%d %s: ΣP = %v", c, d, sum)
			}
		}
	}
}

// TestMatchesTheoremOne cross-validates the engine against the independent
// closed-form re-derivation of Theorem 1 across the full length range.
func TestMatchesTheoremOne(t *testing.T) {
	for _, n := range []int{10, 50, 100, 250} {
		e := mustEngine(t, n, 1)
		for l := 0; l <= n-1; l += 1 + n/40 {
			want, err := theory.FixedSimpleC1(n, l)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.AnonymityDegree(mustFixed(t, l))
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("n=%d l=%d: engine %.12f, theorem %.12f", n, l, got, want)
			}
		}
	}
}

// TestMatchesC1ClosedForm cross-validates the engine against the direct
// five-event-group formula for arbitrary C=1 distributions.
func TestMatchesC1ClosedForm(t *testing.T) {
	n := 64
	e := mustEngine(t, n, 1)
	geom, err := dist.NewGeometric(0.8, 1, n-1)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := dist.NewTwoPoint(2, 40, 0.35)
	if err != nil {
		t.Fatal(err)
	}
	poi, err := dist.NewPoisson(9, 1, n-1)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []dist.Length{
		mustUniform(t, 0, 10), mustUniform(t, 1, 1), mustUniform(t, 4, 60),
		geom, tp, poi,
	} {
		want, err := theory.C1(n, d)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.AnonymityDegree(d)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s: engine %.12f, closed form %.12f", d, got, want)
		}
	}
}

// TestShortPathEffect reproduces the paper's Figure 3(b) structure:
// H*(F(1)) = H*(F(2)), a dip at l = 3, and a rise at l = 4.
func TestShortPathEffect(t *testing.T) {
	e := mustEngine(t, 100, 1)
	h := make([]float64, 6)
	for l := 0; l <= 5; l++ {
		var err error
		h[l], err = e.AnonymityDegree(mustFixed(t, l))
		if err != nil {
			t.Fatal(err)
		}
	}
	if h[0] != 0 {
		t.Errorf("H*(F(0)) = %v, want 0 (sender exposed)", h[0])
	}
	if math.Abs(h[1]-h[2]) > 1e-12 {
		t.Errorf("H*(F(1)) = %v ≠ H*(F(2)) = %v; paper: identical", h[1], h[2])
	}
	if !(h[3] < h[2]) {
		t.Errorf("want H*(F(3)) < H*(F(2)): %v vs %v", h[3], h[2])
	}
	if !(h[4] > h[3] && h[4] > h[2]) {
		t.Errorf("want H*(F(4)) > F(3), F(2): %v %v %v", h[4], h[3], h[2])
	}
}

// TestLongPathEffect reproduces Figure 3(a): the anonymity degree rises,
// peaks at an interior length, then decreases as the path covers the clique.
func TestLongPathEffect(t *testing.T) {
	e := mustEngine(t, 100, 1)
	var hMax float64
	var argMax int
	h := make(map[int]float64)
	for l := 3; l <= 99; l++ {
		v, err := e.AnonymityDegree(mustFixed(t, l))
		if err != nil {
			t.Fatal(err)
		}
		h[l] = v
		if v > hMax {
			hMax, argMax = v, l
		}
	}
	if argMax <= 10 || argMax >= 95 {
		t.Errorf("peak at l=%d; want an interior peak (long-path effect)", argMax)
	}
	if !(h[99] < hMax-1e-6) {
		t.Errorf("H*(F(99)) = %v should be below peak %v", h[99], hMax)
	}
	// The curve should be unimodal: nonincreasing after the peak.
	for l := argMax; l < 99; l++ {
		if h[l+1] > h[l]+1e-12 {
			t.Errorf("not unimodal after peak: H(%d)=%v < H(%d)=%v", l, h[l], l+1, h[l+1])
		}
	}
}

// TestMeanOnlyTheorem reproduces Theorem 3 / conclusion 2: for uniform
// lower bound ≥ 3 the anonymity degree depends only on the mean, and equals
// the fixed-length strategy at the same mean.
func TestMeanOnlyTheorem(t *testing.T) {
	e := mustEngine(t, 100, 1)
	for _, tc := range []struct{ a1, b1, a2, b2 int }{
		{4, 36, 10, 30}, // both mean 20
		{3, 5, 4, 4},    // both mean 4
		{5, 95, 25, 75}, // both mean 50
		{6, 14, 3, 17},  // both mean 10
	} {
		u1 := mustUniform(t, tc.a1, tc.b1)
		u2 := mustUniform(t, tc.a2, tc.b2)
		h1, err := e.AnonymityDegree(u1)
		if err != nil {
			t.Fatal(err)
		}
		h2, err := e.AnonymityDegree(u2)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(h1-h2) > 1e-10 {
			t.Errorf("%s vs %s: %v ≠ %v (same mean should match)", u1, u2, h1, h2)
		}
		f := mustFixed(t, int(u1.Mean()))
		hf, err := e.AnonymityDegree(f)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(h1-hf) > 1e-10 {
			t.Errorf("%s vs %s: %v ≠ %v (uniform should equal fixed at same mean)", u1, f, h1, hf)
		}
		want, err := theory.MeanOnlyC1(100, u1.Mean())
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(h1-want) > 1e-10 {
			t.Errorf("%s: engine %v, MeanOnlyC1 %v", u1, h1, want)
		}
	}
}

// TestInequality18: with lower bound < 3 the mean-only equality breaks and
// variable-length strategies beat the fixed-length strategy at the same
// mean — the paper's Figure 5(d) and inequality (18):
//
//	H*_{U(1,2L−1)} ≥ H*_{U(2,2L−2)} ≥ H*_{U(6,2L−6)} = H*_{F(L)}.
func TestInequality18(t *testing.T) {
	e := mustEngine(t, 100, 1)
	for _, mean := range []int{6, 10, 20} {
		h := func(a int) float64 {
			u := mustUniform(t, a, 2*mean-a)
			v, err := e.AnonymityDegree(u)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
		hf, err := e.AnonymityDegree(mustFixed(t, mean))
		if err != nil {
			t.Fatal(err)
		}
		h1, h2, h6 := h(1), h(2), h(6)
		if !(h1 > h2) {
			t.Errorf("mean %d: want H*(U(1,·)) > H*(U(2,·)): %v vs %v", mean, h1, h2)
		}
		if !(h2 > h6) {
			t.Errorf("mean %d: want H*(U(2,·)) > H*(U(6,·)): %v vs %v", mean, h2, h6)
		}
		if math.Abs(h6-hf) > 1e-10 {
			t.Errorf("mean %d: want H*(U(6,·)) = H*(F): %v vs %v", mean, h6, hf)
		}
	}
}

// TestUpperBound verifies conclusion 4: H*(S) ≤ log2 N for every strategy,
// with equality approached only without compromised infrastructure.
func TestUpperBound(t *testing.T) {
	for _, n := range []int{10, 64, 100} {
		for _, c := range []int{0, 1, 2, 4} {
			e := mustEngine(t, n, c)
			for _, d := range []dist.Length{mustFixed(t, 5), mustUniform(t, 0, n/2)} {
				h, err := e.AnonymityDegree(d)
				if err != nil {
					t.Fatal(err)
				}
				if h < 0 || h > entropy.Max(n)+1e-12 {
					t.Errorf("n=%d c=%d %s: H* = %v outside [0, %v]", n, c, d, h, entropy.Max(n))
				}
			}
		}
	}
	// No compromised nodes, uncompromised receiver: exactly log2 N.
	e := mustEngine(t, 128, 0, events.WithUncompromisedReceiver())
	h, err := e.AnonymityDegree(mustFixed(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h-7) > 1e-12 {
		t.Errorf("pristine system: H* = %v, want 7 = log2 128", h)
	}
	// No compromised nodes but compromised receiver: log2(N−1) for l ≥ 1.
	e2 := mustEngine(t, 128, 0)
	h2, err := e2.AnonymityDegree(mustFixed(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h2-math.Log2(127)) > 1e-12 {
		t.Errorf("receiver-only adversary: H* = %v, want log2 127", h2)
	}
}

// TestMoreCompromisedIsWorse: H* decreases as C grows, for fixed strategy.
func TestMoreCompromisedIsWorse(t *testing.T) {
	d := mustUniform(t, 3, 15)
	prev := math.Inf(1)
	for c := 0; c <= 6; c++ {
		e := mustEngine(t, 60, c)
		h, err := e.AnonymityDegree(d)
		if err != nil {
			t.Fatal(err)
		}
		if h > prev+1e-12 {
			t.Errorf("c=%d: H* = %v > previous %v; more compromised nodes should not help", c, h, prev)
		}
		prev = h
	}
}

// TestFullPositionWeaklyWorse: granting the adversary a position oracle can
// only reduce the anonymity degree.
func TestFullPositionWeaklyWorse(t *testing.T) {
	for _, c := range []int{1, 2, 3} {
		std := mustEngine(t, 50, c)
		pos := mustEngine(t, 50, c, events.WithInference(events.InferenceFullPosition))
		for _, d := range []dist.Length{mustFixed(t, 8), mustUniform(t, 2, 20)} {
			hs, err := std.AnonymityDegree(d)
			if err != nil {
				t.Fatal(err)
			}
			hp, err := pos.AnonymityDegree(d)
			if err != nil {
				t.Fatal(err)
			}
			if hp > hs+1e-12 {
				t.Errorf("c=%d %s: full-position H* %v > standard %v", c, d, hp, hs)
			}
		}
	}
}

// TestHopCountBetweenStandardAndFullPosition: for every distribution the
// hop-count adversary is at least as strong as the standard one and at
// most as strong as the position oracle; for fixed lengths hop-count and
// full-position coincide.
func TestHopCountBetweenStandardAndFullPosition(t *testing.T) {
	std := mustEngine(t, 100, 1)
	hop := mustEngine(t, 100, 1, events.WithInference(events.InferenceHopCount))
	pos := mustEngine(t, 100, 1, events.WithInference(events.InferenceFullPosition))
	geom, err := dist.NewGeometric(0.7, 1, 99)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []dist.Length{
		mustFixed(t, 1), mustFixed(t, 5), mustFixed(t, 30),
		mustUniform(t, 0, 10), mustUniform(t, 1, 19), mustUniform(t, 5, 45),
		geom,
	} {
		hs, err := std.AnonymityDegree(d)
		if err != nil {
			t.Fatal(err)
		}
		hh, err := hop.AnonymityDegree(d)
		if err != nil {
			t.Fatal(err)
		}
		hp, err := pos.AnonymityDegree(d)
		if err != nil {
			t.Fatal(err)
		}
		if hh > hs+1e-12 {
			t.Errorf("%s: hop-count %v above standard %v", d, hh, hs)
		}
		if hp > hh+1e-12 {
			t.Errorf("%s: full-position %v above hop-count %v", d, hp, hh)
		}
		if _, isFixed := d.(dist.Fixed); isFixed && math.Abs(hh-hp) > 1e-12 {
			t.Errorf("%s: fixed-length hop-count %v should equal full-position %v", d, hh, hp)
		}
	}
	// Variable lengths must retain a strict advantage under hop-count:
	// U(1,19) keeps strictly more anonymity than F(10) there.
	u := mustUniform(t, 1, 19)
	f := mustFixed(t, 10)
	hu, err := hop.AnonymityDegree(u)
	if err != nil {
		t.Fatal(err)
	}
	hf, err := hop.AnonymityDegree(f)
	if err != nil {
		t.Fatal(err)
	}
	if !(hu > hf+1e-6) {
		t.Errorf("hop-count: U(1,19) = %v should clearly beat F(10) = %v (variable-length robustness)", hu, hf)
	}
}

func TestHopCountRestrictions(t *testing.T) {
	if _, err := events.New(50, 2, events.WithInference(events.InferenceHopCount)); !errors.Is(err, events.ErrTooManyClasses) {
		t.Errorf("c=2 hop-count err = %v", err)
	}
	e := mustEngine(t, 50, 1, events.WithInference(events.InferenceHopCount), events.WithUncompromisedReceiver())
	if _, err := e.AnonymityDegree(mustFixed(t, 5)); !errors.Is(err, events.ErrInvalidSystem) {
		t.Errorf("hop-count without receiver err = %v", err)
	}
}

func TestNewHopCountClass(t *testing.T) {
	if _, err := events.NewHopCountClass(-1); !errors.Is(err, events.ErrClassMismatch) {
		t.Error("negative gap accepted")
	}
	for t0, wantTail := range map[int]events.TailFlag{
		0: events.TailZero, 1: events.TailOne, 2: events.TailWide, 7: events.TailWide,
	} {
		cl, err := events.NewHopCountClass(t0)
		if err != nil {
			t.Fatal(err)
		}
		if cl.Tail != wantTail {
			t.Errorf("t=%d: tail %v, want %v", t0, cl.Tail, wantTail)
		}
		if got, ok := cl.ExactTailGap(); !ok || got != t0 {
			t.Errorf("t=%d: ExactTailGap = %d,%v", t0, got, ok)
		}
		if want := fmt.Sprintf("[1]-t=%d", t0); cl.String() != want {
			t.Errorf("String = %q, want %q", cl.String(), want)
		}
	}
	// A standard class reports no exact gap.
	if _, ok := (events.Class{Runs: []int{1}, Tail: events.TailZero}).ExactTailGap(); ok {
		t.Error("standard class claims an exact gap")
	}
}

func TestStatsForRejectsBadClasses(t *testing.T) {
	e := mustEngine(t, 30, 2)
	d := mustUniform(t, 0, 10)
	bad := []events.Class{
		{Runs: []int{3}, Tail: events.TailZero},                                // k > C
		{Runs: []int{1, 1}, Tail: events.TailZero},                             // missing gap flag
		{Runs: []int{0}, Tail: events.TailZero},                                // zero-length run
		{Runs: []int{1}, Tail: events.TailFlag(99)},                            // bad tail
		{Runs: []int{1, 1}, Gaps: []events.GapFlag{99}, Tail: events.TailZero}, // bad gap
	}
	for _, cl := range bad {
		if _, err := e.StatsFor(cl, d); !errors.Is(err, events.ErrClassMismatch) {
			t.Errorf("class %+v: err = %v, want ErrClassMismatch", cl, err)
		}
	}
	good := events.Class{Runs: []int{1}, Tail: events.TailOne}
	if _, err := e.StatsFor(good, d); err != nil {
		t.Errorf("valid class rejected: %v", err)
	}
}

// TestStatsForMatchesClassStats: querying a class individually returns the
// same numbers as bulk enumeration.
func TestStatsForMatchesClassStats(t *testing.T) {
	e := mustEngine(t, 40, 3)
	d := mustUniform(t, 0, 20)
	all, err := e.ClassStats(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range all {
		got, err := e.StatsFor(st.Class, d)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.P-st.P) > 1e-12 || math.Abs(got.Alpha-st.Alpha) > 1e-12 ||
			got.Rest != st.Rest || math.Abs(got.H-st.H) > 1e-12 {
			t.Errorf("class %s: StatsFor %+v, ClassStats %+v", st.Class, got, st)
		}
	}
}

// TestStatsForReturnsCallersClass: the returned Stats.Class is the class
// the caller passed, never one cached from an earlier caller whose buffers
// (the adversary's per-worker scratch runs and gaps) have since been
// reused.
func TestStatsForReturnsCallersClass(t *testing.T) {
	e := mustEngine(t, 20, 3)
	d := mustUniform(t, 1, 10)
	runs := []int{2}
	first := events.Class{Runs: runs, Tail: events.TailOne}
	if _, err := e.StatsFor(first, d); err != nil {
		t.Fatal(err)
	}
	runs[0] = 3 // the first caller reuses its buffer for its next trace
	cl := events.Class{Runs: []int{2}, Tail: events.TailOne}
	st, err := e.StatsFor(cl, d)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Class.String(); got != "[2]-t1" {
		t.Errorf("StatsFor([2]-t1).Class = %s", got)
	}
	if &st.Class.Runs[0] != &cl.Runs[0] {
		t.Error("StatsFor returned a class other than its argument")
	}
}

func TestModeAndAccessors(t *testing.T) {
	e := mustEngine(t, 100, 2)
	if e.N() != 100 || e.C() != 2 {
		t.Errorf("accessors: N=%d C=%d", e.N(), e.C())
	}
	if e.Mode() != events.InferenceStandard {
		t.Errorf("default mode = %v", e.Mode())
	}
	if math.Abs(e.MaxAnonymity()-math.Log2(100)) > 1e-12 {
		t.Errorf("MaxAnonymity = %v", e.MaxAnonymity())
	}
	for _, m := range []events.InferenceMode{events.InferenceStandard, events.InferenceFullPosition, events.InferenceMode(9)} {
		_ = m.String()
	}
	for _, g := range []events.GapFlag{events.GapOne, events.GapWide, events.GapFlag(9)} {
		_ = g.String()
	}
	for _, tf := range []events.TailFlag{events.TailZero, events.TailOne, events.TailWide, events.TailUnobserved, events.TailFlag(9)} {
		_ = tf.String()
	}
}

// TestPaperConfiguration pins the headline numbers for the paper's N=100,
// C=1 configuration so regressions in the engine are caught immediately.
// The l = 1,2 value (N−2)/N·log2(N−2) ≈ 6.48242 matches Figure 3(b)'s
// y-axis; see EXPERIMENTS.md for the full comparison.
func TestPaperConfiguration(t *testing.T) {
	e := mustEngine(t, 100, 1)
	h1, err := e.AnonymityDegree(mustFixed(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	want := 98.0 / 100 * math.Log2(98)
	if math.Abs(h1-want) > 1e-12 {
		t.Errorf("H*(F(1)) = %.10f, want %.10f", h1, want)
	}
	if h1 < 6.48 || h1 > 6.49 {
		t.Errorf("H*(F(1)) = %v outside the paper's Figure 3(b) band", h1)
	}
}

// TestRandomConfigurationsBounded: quick-check the entropy bounds and the
// partition-of-unity invariant across random systems and distributions.
func TestRandomConfigurationsBounded(t *testing.T) {
	rng := stats.NewRand(4242)
	for trial := 0; trial < 60; trial++ {
		n := 6 + rng.Intn(80)
		c := rng.Intn(5)
		if c > n-2 {
			c = n - 2
		}
		e := mustEngine(t, n, c)
		a := rng.Intn(n - 1)
		b := a + rng.Intn(n-a)
		if b > n-1 {
			b = n - 1
		}
		u := mustUniform(t, a, b)
		stats, err := e.ClassStats(u)
		if err != nil {
			t.Fatalf("n=%d c=%d %s: %v", n, c, u, err)
		}
		var sum float64
		for _, st := range stats {
			sum += st.P
			if st.H < -1e-12 || st.H > entropy.Max(n)+1e-12 {
				t.Fatalf("n=%d c=%d %s class %s: H=%v", n, c, u, st.Class, st.H)
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("n=%d c=%d %s: ΣP=%v", n, c, u, sum)
		}
		h, err := e.AnonymityDegree(u)
		if err != nil {
			t.Fatal(err)
		}
		if h < 0 || h > entropy.Max(n) {
			t.Fatalf("n=%d c=%d %s: H*=%v", n, c, u, h)
		}
	}
}

func ExampleEngine_AnonymityDegree() {
	e, err := events.New(100, 1)
	if err != nil {
		panic(err)
	}
	f, err := dist.NewFixed(5)
	if err != nil {
		panic(err)
	}
	h, err := e.AnonymityDegree(f)
	if err != nil {
		panic(err)
	}
	fmt.Printf("H*(F(5)) with N=100, C=1: %.4f bits (max %.4f)\n", h, e.MaxAnonymity())
	// Output: H*(F(5)) with N=100, C=1: 6.5092 bits (max 6.6439)
}
