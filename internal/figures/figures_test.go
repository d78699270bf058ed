package figures_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	"anonmix/internal/figures"
	"anonmix/internal/theory"
)

func TestByNameAndNames(t *testing.T) {
	for _, name := range figures.Names() {
		if name == "3a" || name == "6" || strings.HasPrefix(name, "ablation") {
			continue // exercised separately (slower / different axes)
		}
		fig, err := figures.ByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if fig.Name != name || len(fig.Series) == 0 {
			t.Errorf("%s: %+v", name, fig)
		}
		for _, s := range fig.Series {
			if len(s.X) != len(s.Y) || len(s.X) == 0 {
				t.Errorf("%s/%s: %d x, %d y", name, s.Label, len(s.X), len(s.Y))
			}
			for _, y := range s.Y {
				if y < 0 || y > math.Log2(figures.PaperN) {
					t.Errorf("%s/%s: H* = %v out of range", name, s.Label, y)
				}
			}
		}
	}
	if _, err := figures.ByName("nope"); !errors.Is(err, figures.ErrUnknownFigure) {
		t.Errorf("unknown figure err = %v", err)
	}
}

func TestFig3aShape(t *testing.T) {
	fig, err := figures.Fig3a()
	if err != nil {
		t.Fatal(err)
	}
	x, y, err := fig.Peak("F(l)")
	if err != nil {
		t.Fatal(err)
	}
	// Long-path effect: interior peak, decline at the right edge.
	if x <= 4 || x >= 98 {
		t.Errorf("peak at l=%v; want interior", x)
	}
	s := fig.Series[0]
	if s.Y[len(s.Y)-1] >= y {
		t.Errorf("no decline after peak: end %v, peak %v", s.Y[len(s.Y)-1], y)
	}
	// Pin the series against the closed form at a few lengths.
	for _, i := range []int{0, 9, 49, 97} {
		want, err := theory.FixedSimpleC1(figures.PaperN, int(s.X[i]))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(s.Y[i]-want) > 1e-9 {
			t.Errorf("l=%v: %v, want %v", s.X[i], s.Y[i], want)
		}
	}
}

func TestFig3bShortPathShape(t *testing.T) {
	fig, err := figures.Fig3b()
	if err != nil {
		t.Fatal(err)
	}
	y := fig.Series[0].Y
	// H(0)=0, H(1)=H(2), H(3)<H(2), H(4)>H(3) — the paper's observations.
	if y[0] != 0 {
		t.Errorf("H(0) = %v", y[0])
	}
	if math.Abs(y[1]-y[2]) > 1e-12 {
		t.Errorf("H(1) %v ≠ H(2) %v", y[1], y[2])
	}
	if !(y[3] < y[2] && y[4] > y[3]) {
		t.Errorf("short-path shape broken: %v", y)
	}
}

// TestFig5aOverlay: Theorem 3 — all a ≥ 3 uniform curves overlay F(L)
// where defined.
func TestFig5aOverlay(t *testing.T) {
	fig, err := figures.Fig5a()
	if err != nil {
		t.Fatal(err)
	}
	ref := map[float64]float64{}
	for i, x := range fig.Series[0].X { // F(L)
		ref[x] = fig.Series[0].Y[i]
	}
	for _, s := range fig.Series[1:] {
		for i, x := range s.X {
			want, ok := ref[x]
			if !ok {
				continue
			}
			if math.Abs(s.Y[i]-want) > 1e-10 {
				t.Errorf("%s at L=%v: %v vs F(L) %v (should overlay)", s.Label, x, s.Y[i], want)
			}
		}
	}
}

// TestFig5dOrdering: inequality (18) — smaller lower bounds win at equal
// means.
func TestFig5dOrdering(t *testing.T) {
	fig, err := figures.Fig5d()
	if err != nil {
		t.Fatal(err)
	}
	at := func(label string, x float64) (float64, bool) {
		for _, s := range fig.Series {
			if s.Label != label {
				continue
			}
			for i, xv := range s.X {
				if xv == x {
					return s.Y[i], true
				}
			}
		}
		return 0, false
	}
	for _, L := range []float64{10, 20, 40} {
		u1, ok1 := at("U(1,2L-1)", L)
		u2, ok2 := at("U(2,2L-2)", L)
		u6, ok6 := at("U(6,2L-6)", L)
		f, okf := at("F(L)", L)
		if !ok1 || !ok2 || !ok6 || !okf {
			t.Fatalf("missing samples at L=%v", L)
		}
		if !(u1 > u2 && u2 > u6) {
			t.Errorf("L=%v: want U(1)>U(2)>U(6): %v %v %v", L, u1, u2, u6)
		}
		if math.Abs(u6-f) > 1e-10 {
			t.Errorf("L=%v: U(6,2L-6) %v should equal F(L) %v", L, u6, f)
		}
	}
}

// TestFig6Dominance: the optimized distribution dominates every baseline
// at every mean.
func TestFig6Dominance(t *testing.T) {
	fig, err := figures.Fig6(12)
	if err != nil {
		t.Fatal(err)
	}
	series := map[string][]float64{}
	for _, s := range fig.Series {
		series[s.Label] = s.Y
	}
	opt := series["Optimization"]
	for i := range opt {
		for _, base := range []string{"F(L)", "U(2,2L-2)", "BestUniform(L)"} {
			if opt[i] < series[base][i]-1e-7 {
				t.Errorf("mean %v: optimization %v below %s %v",
					fig.Series[0].X[i], opt[i], base, series[base][i])
			}
		}
		// BestUniform dominates the specific U(2,2L−2) member by
		// construction.
		if series["BestUniform(L)"][i] < series["U(2,2L-2)"][i]-1e-10 {
			t.Errorf("best uniform below U(2,2L-2) at index %d", i)
		}
	}
	// The optimum is certified to 1e-9 bits, so it is at least the best
	// uniform at every L, and as the optimal value of a concave program
	// it is concave in the right-hand side L of its mean constraint.
	for i := range opt {
		if opt[i] < series["BestUniform(L)"][i]-1e-9 {
			t.Errorf("index %d: optimization %v below best uniform %v", i, opt[i], series["BestUniform(L)"][i])
		}
		if i >= 2 {
			if d2 := opt[i] - 2*opt[i-1] + opt[i-2]; d2 > 4e-9 {
				t.Errorf("L=%v: second difference %v > 0, optimization not concave in L", fig.Series[0].X[i-1], d2)
			}
		}
	}
	if _, err := figures.Fig6(1); err == nil {
		t.Error("Fig6(1) accepted")
	}
	if _, err := figures.Fig6(90); err == nil {
		t.Error("Fig6(90) accepted")
	}
}

func TestWriteTSV(t *testing.T) {
	fig, err := figures.Fig3b()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := fig.WriteTSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 { // header + l = 0..4
		t.Fatalf("%d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "path length l\tF(l)") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "0\t0.000000") {
		t.Errorf("first row = %q", lines[1])
	}
}

func TestAblationCSweep(t *testing.T) {
	fig, err := figures.AblationCSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 {
		t.Fatalf("%d series", len(fig.Series))
	}
	// At every length, more compromised nodes means less anonymity.
	for i := range fig.Series[0].X {
		for j := 1; j < len(fig.Series); j++ {
			if fig.Series[j].Y[i] > fig.Series[j-1].Y[i]+1e-12 {
				t.Errorf("l=%v: %s (%v) above %s (%v)", fig.Series[0].X[i],
					fig.Series[j].Label, fig.Series[j].Y[i],
					fig.Series[j-1].Label, fig.Series[j-1].Y[i])
			}
		}
	}
}

func TestAblationNSweep(t *testing.T) {
	fig, err := figures.AblationNSweep()
	if err != nil {
		t.Fatal(err)
	}
	var peakL, peakFrac *figures.Series
	for i := range fig.Series {
		switch fig.Series[i].Label {
		case "peak location l*":
			peakL = &fig.Series[i]
		case "peak H*/log2(N)":
			peakFrac = &fig.Series[i]
		}
	}
	if peakL == nil || peakFrac == nil {
		t.Fatal("missing series")
	}
	// Peak location grows with N; normalized peak stays in (0.9, 1).
	for i := 1; i < len(peakL.Y); i++ {
		if peakL.Y[i] < peakL.Y[i-1] {
			t.Errorf("peak location not nondecreasing: %v", peakL.Y)
		}
	}
	for i, f := range peakFrac.Y {
		if f <= 0.9 || f >= 1 {
			t.Errorf("N=%v: normalized peak %v outside (0.9, 1)", peakFrac.X[i], f)
		}
	}
	// The N = 100 entry must agree with the main Figure 3(a) peak.
	for i, n := range peakL.X {
		if n == 100 && peakL.Y[i] != 51 {
			t.Errorf("N=100 peak at %v, want 51", peakL.Y[i])
		}
	}
}

func TestAblationInference(t *testing.T) {
	fig, err := figures.AblationInference()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 6 {
		t.Fatalf("%d series", len(fig.Series))
	}
	at := func(label string) []float64 {
		for _, s := range fig.Series {
			if s.Label == label {
				return s.Y
			}
		}
		t.Fatalf("missing series %q", label)
		return nil
	}
	fStd, fHop := at("F(m) standard"), at("F(m) hop-count")
	fPos := at("F(m) full-position")
	uStd, uHop := at("U(1,2m-1) standard"), at("U(1,2m-1) hop-count")
	uPos := at("U(1,2m-1) full-position")
	for i := range fStd {
		// Stronger inference is pointwise no better for the defender.
		if fHop[i] > fStd[i]+1e-12 || fPos[i] > fHop[i]+1e-12 {
			t.Errorf("fixed: inference ordering broken at index %d", i)
		}
		if uHop[i] > uStd[i]+1e-12 || uPos[i] > uHop[i]+1e-12 {
			t.Errorf("variable: inference ordering broken at index %d", i)
		}
		// Fixed lengths collapse to the position oracle under hop count.
		if math.Abs(fHop[i]-fPos[i]) > 1e-12 {
			t.Errorf("fixed hop-count should equal full-position at index %d", i)
		}
	}
	// Variable lengths keep a material advantage under hop-count timing
	// at moderate means (m = 11 is index 5).
	if !(uHop[5] > fHop[5]+0.01) {
		t.Errorf("hop-count at m=11: U %v should clearly beat F %v", uHop[5], fHop[5])
	}
}

func TestAblationCrowdsPf(t *testing.T) {
	fig, err := figures.AblationCrowdsPf()
	if err != nil {
		t.Fatal(err)
	}
	sum, closed := fig.Series[0], fig.Series[1]
	for i := range sum.X {
		// The loop-free form ignores the l ≤ N−1 truncation; its error
		// scales as pf^(N−1).
		tol := 1e-9 + 10*math.Pow(sum.X[i], float64(figures.PaperN-1))
		if math.Abs(sum.Y[i]-closed.Y[i]) > tol {
			t.Errorf("pf=%v: truncated %v vs closed %v (tol %v)", sum.X[i], sum.Y[i], closed.Y[i], tol)
		}
	}
	if !(sum.Y[len(sum.Y)-1] > sum.Y[0]) {
		t.Error("higher pf should raise anonymity in this regime")
	}
}

func TestPeakUnknownSeries(t *testing.T) {
	fig, err := figures.Fig3b()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := fig.Peak("nope"); !errors.Is(err, figures.ErrUnknownFigure) {
		t.Errorf("err = %v", err)
	}
}
