package optimize

import (
	"errors"
	"math"
	"testing"

	"anonmix/internal/dist"
	"anonmix/internal/events"
)

func engine(tb testing.TB, n, c int, opts ...events.Option) *events.Engine {
	tb.Helper()
	e, err := events.New(n, c, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

func TestProblemValidation(t *testing.T) {
	e := engine(t, 50, 1)
	cases := []struct {
		name string
		p    Problem
		want error
	}{
		{"nil engine", Problem{Lo: 0, Hi: 10, Mean: UnconstrainedMean()}, ErrBadProblem},
		{"bad support", Problem{Engine: e, Lo: 5, Hi: 3, Mean: UnconstrainedMean()}, ErrBadProblem},
		{"support past N-1", Problem{Engine: e, Lo: 0, Hi: 50, Mean: UnconstrainedMean()}, ErrBadProblem},
		{"mean outside", Problem{Engine: e, Lo: 2, Hi: 10, Mean: 20}, ErrInfeasible},
	}
	for _, c := range cases {
		if _, err := Maximize(c.p); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

// TestMaximizeBeatsParametricFamilies: the general solver must do at least
// as well as every member of the parametric families at the same mean.
func TestMaximizeBeatsParametricFamilies(t *testing.T) {
	e := engine(t, 60, 1)
	for _, mean := range []int{5, 12, 25} {
		res, err := Maximize(Problem{Engine: e, Lo: 0, Hi: 59, Mean: float64(mean)},
			WithMaxIterations(250))
		if err != nil {
			t.Fatal(err)
		}
		if m := res.Dist.Mean(); math.Abs(m-float64(mean)) > 1e-6 {
			t.Errorf("mean %d: optimized distribution has mean %v", mean, m)
		}
		_, hu, err := BestUniform(e, mean, 0, 59)
		if err != nil {
			t.Fatal(err)
		}
		if res.H < hu-1e-9 {
			t.Errorf("mean %d: Maximize %v below best uniform %v", mean, res.H, hu)
		}
		f, err := dist.NewFixed(mean)
		if err != nil {
			t.Fatal(err)
		}
		hf, err := e.AnonymityDegree(f)
		if err != nil {
			t.Fatal(err)
		}
		if res.H < hf-1e-9 {
			t.Errorf("mean %d: Maximize %v below fixed %v", mean, res.H, hf)
		}
	}
}

// TestMaximizeNearBestTwoPoint: extreme points of the mean-constrained
// simplex are two-atom distributions, so the exhaustive two-point search is
// a strong lower bound the gradient solver should reach or beat (within a
// small numerical slack).
func TestMaximizeNearBestTwoPoint(t *testing.T) {
	e := engine(t, 40, 1)
	for _, mean := range []float64{6, 15} {
		res, err := Maximize(Problem{Engine: e, Lo: 0, Hi: 39, Mean: mean},
			WithMaxIterations(300))
		if err != nil {
			t.Fatal(err)
		}
		_, htp, err := BestTwoPoint(e, mean, 0, 39)
		if err != nil {
			t.Fatal(err)
		}
		if res.H < htp-1e-6 {
			t.Errorf("mean %v: Maximize %v vs best two-point %v", mean, res.H, htp)
		}
	}
}

// TestUnconstrainedMaximize: without a mean constraint the solver should
// find a distribution at least as good as the best fixed length anywhere in
// the support (the global fixed-length peak).
func TestUnconstrainedMaximize(t *testing.T) {
	e := engine(t, 50, 1)
	res, err := Maximize(Problem{Engine: e, Lo: 0, Hi: 49, Mean: UnconstrainedMean()},
		WithMaxIterations(300))
	if err != nil {
		t.Fatal(err)
	}
	bestFixed := math.Inf(-1)
	for l := 0; l <= 49; l++ {
		f, err := dist.NewFixed(l)
		if err != nil {
			t.Fatal(err)
		}
		h, err := e.AnonymityDegree(f)
		if err != nil {
			t.Fatal(err)
		}
		if h > bestFixed {
			bestFixed = h
		}
	}
	if res.H < bestFixed-1e-9 {
		t.Errorf("unconstrained Maximize %v below best fixed %v", res.H, bestFixed)
	}
	if res.H > e.MaxAnonymity() {
		t.Errorf("H %v exceeds log2 N", res.H)
	}
}

// TestMaximizeStationarity: no single-coordinate mass transfer that
// preserves the mean should improve the solution noticeably.
func TestMaximizeStationarity(t *testing.T) {
	e := engine(t, 40, 1)
	mean := 10.0
	res, err := Maximize(Problem{Engine: e, Lo: 0, Hi: 39, Mean: mean}, WithMaxIterations(400))
	if err != nil {
		t.Fatal(err)
	}
	base := res.H
	lo, _ := res.Dist.Support()
	mass := res.Dist.Mass
	const eps = 1e-4
	// Transfer eps of mass among triples (i, j, k) that keep mean and total
	// fixed: move from j to i and k proportionally.
	for i := 0; i < len(mass); i++ {
		for k := i + 2; k < len(mass); k += 3 {
			j := (i + k) / 2
			if j == i || j == k || mass[j] < 2*eps {
				continue
			}
			wi := float64(k-j) / float64(k-i)
			wk := float64(j-i) / float64(k-i)
			cand := append([]float64(nil), mass...)
			cand[j] -= eps
			cand[i] += eps * wi
			cand[k] += eps * wk
			var sum float64
			for _, v := range cand {
				sum += v
			}
			for idx := range cand {
				cand[idx] /= sum
			}
			pd := dist.PMF{Lo: lo, Mass: cand}
			h, err := e.AnonymityDegree(pd)
			if err != nil {
				continue
			}
			if h > base+1e-6 {
				t.Errorf("perturbation (%d→%d,%d) improves H by %v; not stationary",
					j+lo, i+lo, k+lo, h-base)
			}
		}
	}
}

func TestBestUniformMatchesExhaustive(t *testing.T) {
	e := engine(t, 100, 1)
	mean := 10
	u, h, err := BestUniform(e, mean, 0, 99)
	if err != nil {
		t.Fatal(err)
	}
	if got := u.Mean(); got != float64(mean) {
		t.Errorf("best uniform mean = %v", got)
	}
	// Verify against manual scan.
	for a := 0; a <= mean; a++ {
		b := 2*mean - a
		if b > 99 {
			continue
		}
		cand, err := dist.NewUniform(a, b)
		if err != nil {
			t.Fatal(err)
		}
		hc, err := e.AnonymityDegree(cand)
		if err != nil {
			t.Fatal(err)
		}
		if hc > h+1e-12 {
			t.Errorf("U(%d,%d) beats BestUniform: %v > %v", a, b, hc, h)
		}
	}
	// Paper §6.4: at short means the widest small-lower-bound uniform wins.
	if u.A > 2 {
		t.Errorf("best uniform at mean %d is %s; expected a small lower bound (paper §6.4)", mean, u)
	}
}

func TestBestUniformErrors(t *testing.T) {
	e := engine(t, 30, 1)
	if _, _, err := BestUniform(nil, 5, 0, 10); !errors.Is(err, ErrBadProblem) {
		t.Errorf("nil engine err = %v", err)
	}
	if _, _, err := BestUniform(e, 40, 0, 29); !errors.Is(err, ErrBadProblem) {
		t.Errorf("mean out of range err = %v", err)
	}
	if _, _, err := BestUniform(e, 5, 0, 40); !errors.Is(err, ErrBadProblem) {
		t.Errorf("support past N err = %v", err)
	}
}

func TestBestTwoPointMeanRespected(t *testing.T) {
	e := engine(t, 50, 1)
	for _, mean := range []float64{4, 7.5, 20} {
		tp, h, err := BestTwoPoint(e, mean, 0, 49)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(tp.Mean()-mean) > 1e-9 {
			t.Errorf("mean %v: two-point mean %v", mean, tp.Mean())
		}
		if h <= 0 || h > e.MaxAnonymity() {
			t.Errorf("mean %v: H = %v out of range", mean, h)
		}
	}
	if _, _, err := BestTwoPoint(e, -1, 0, 49); !errors.Is(err, ErrBadProblem) {
		t.Error("negative mean accepted")
	}
}

// TestOptimizedBeatsPaperBaselines reproduces the qualitative content of
// Figure 6: the optimized distribution beats both F(L) and U(2, 2L−2).
func TestOptimizedBeatsPaperBaselines(t *testing.T) {
	e := engine(t, 100, 1)
	for _, mean := range []int{5, 10, 20} {
		res, err := Maximize(Problem{Engine: e, Lo: 0, Hi: 99, Mean: float64(mean)},
			WithMaxIterations(250))
		if err != nil {
			t.Fatal(err)
		}
		f, err := dist.NewFixed(mean)
		if err != nil {
			t.Fatal(err)
		}
		hf, err := e.AnonymityDegree(f)
		if err != nil {
			t.Fatal(err)
		}
		u, err := dist.NewUniform(2, 2*mean-2)
		if err != nil {
			t.Fatal(err)
		}
		hu, err := e.AnonymityDegree(u)
		if err != nil {
			t.Fatal(err)
		}
		if !(res.H >= hu-1e-9 && res.H >= hf-1e-9) {
			t.Errorf("mean %d: optimized %v, U(2,2L-2) %v, F(L) %v", mean, res.H, hu, hf)
		}
		if !(res.H > hf+1e-6) {
			t.Errorf("mean %d: optimization should strictly beat the fixed strategy (%v vs %v)",
				mean, res.H, hf)
		}
	}
}

// certify checks a Maximize result against its certificate: the solve
// converged with Gap ≤ 1e-9 bits, H is the engine's H* of Dist, Dist holds
// the mean, and H + Gap is at least the score of every baseline the
// problem admits — the fixed lengths, the best uniform and the best
// two-point distribution at the mean (at mid-support when the mean is
// free).
func certify(t testing.TB, p Problem, res Result) {
	t.Helper()
	if !res.Converged || !(res.Gap <= 1e-9) {
		t.Errorf("%+v: converged %v with gap %v after %d iterations", p, res.Converged, res.Gap, res.Iterations)
	}
	h, err := p.Engine.AnonymityDegree(res.Dist)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h-res.H) > 1e-9 {
		t.Errorf("%+v: H %v, engine %v at Dist", p, res.H, h)
	}
	mean := p.Mean
	if !p.meanConstrained() {
		mean = float64(p.Lo+p.Hi) / 2
	} else if math.Abs(res.Dist.Mean()-p.Mean) > 1e-9 {
		t.Errorf("%+v: Dist has mean %v", p, res.Dist.Mean())
	}
	bound := res.H + res.Gap + 1e-12
	_, htp, err := BestTwoPoint(p.Engine, mean, p.Lo, p.Hi)
	if err != nil {
		t.Fatal(err)
	}
	baselines := map[string]float64{"best two-point": htp}
	if m := int(mean); float64(m) == mean {
		if _, baselines["best uniform"], err = BestUniform(p.Engine, m, p.Lo, p.Hi); err != nil {
			t.Fatal(err)
		}
	}
	for l := p.Lo; l <= p.Hi; l++ {
		if p.meanConstrained() && float64(l) != p.Mean {
			continue
		}
		f, err := dist.NewFixed(l)
		if err != nil {
			t.Fatal(err)
		}
		if baselines[f.String()], err = p.Engine.AnonymityDegree(f); err != nil {
			t.Fatal(err)
		}
	}
	for name, hb := range baselines {
		if hb > bound {
			t.Errorf("%+v: %s scores %v above H %v + gap %v", p, name, hb, res.H, res.Gap)
		}
	}
}

// TestMaximizeCertificate: every solve converges to a certified gap of
// 1e-9 bits across receiver modes, inference modes, self-report, free,
// integer and fractional means, and the certificate dominates the
// parametric baselines.
func TestMaximizeCertificate(t *testing.T) {
	systems := []struct {
		name string
		n, c int
		opts []events.Option
	}{
		{"standard", 20, 1, nil},
		{"standard", 60, 5, nil},
		{"honest receiver", 40, 2, []events.Option{events.WithUncompromisedReceiver()}},
		{"hop-count", 30, 1, []events.Option{events.WithInference(events.InferenceHopCount)}},
		{"full-position", 50, 5, []events.Option{events.WithInference(events.InferenceFullPosition)}},
		{"no self-report", 45, 2, []events.Option{events.WithoutSenderSelfReport()}},
	}
	for _, sys := range systems {
		e, err := events.New(sys.n, sys.c, sys.opts...)
		if err != nil {
			t.Fatal(err)
		}
		for _, support := range [][2]int{{0, 14}, {1, 9}} {
			for _, mean := range []float64{UnconstrainedMean(), 4, 6.37} {
				p := Problem{Engine: e, Lo: support[0], Hi: support[1], Mean: mean}
				res, err := Maximize(p)
				if err != nil {
					t.Fatalf("%s N=%d C=%d: %v", sys.name, sys.n, sys.c, err)
				}
				certify(t, p, res)
			}
		}
	}
}

// FuzzMaximizeCertificate: random problems in every receiver and inference
// mode must all converge to the certificate certify checks. N is drawn
// log-spread over [4, 2·10⁵] and C log-spread over [1, N/2] (C = 1 under
// hop-count inference), so the many-bucket problems of large systems,
// where a light atom's singular start shows in the line search, are
// reached as often as small ones. The first seeds decode to (N, C) =
// (24, 2), (37, 5), (16, 1) and (7, 1); the last two to (100006, 50003)
// and (200000, 1000).
func FuzzMaximizeCertificate(f *testing.F) {
	f.Add(uint16(10853), uint16(18281), uint8(0), uint8(8), uint16(0), uint8(0))
	f.Add(uint16(13474), uint16(36492), uint8(1), uint8(11), uint16(20000), uint8(1))
	f.Add(uint16(8397), uint16(0), uint8(2), uint8(6), uint16(65535), uint8(2))
	f.Add(uint16(3390), uint16(0), uint8(0), uint8(12), uint16(9000), uint8(3))
	f.Add(uint16(61337), uint16(65535), uint8(1), uint8(9), uint16(30000), uint8(0))
	f.Add(uint16(65535), uint16(39321), uint8(1), uint8(11), uint16(0), uint8(9))
	f.Fuzz(func(t *testing.T, n, c uint16, lo, span uint8, mean uint16, mode uint8) {
		nn := int(math.Round(4 * math.Pow(5e4, float64(n)/math.MaxUint16)))
		cc := int(math.Round(math.Pow(float64(nn/2), float64(c)/math.MaxUint16)))
		var opts []events.Option
		switch mode % 5 {
		case 1:
			opts = append(opts, events.WithUncompromisedReceiver())
		case 2:
			opts = append(opts, events.WithInference(events.InferenceHopCount))
			cc = 1 // hop-count inference enumerates classes for C = 1 only
		case 3:
			opts = append(opts, events.WithInference(events.InferenceFullPosition))
		case 4:
			opts = append(opts, events.WithoutSenderSelfReport())
		}
		e, err := events.New(nn, cc, opts...)
		if err != nil {
			t.Fatal(err)
		}
		l := int(lo) % min(nn, 6)
		h := min(l+int(span)%10, nn-1)
		p := Problem{Engine: e, Lo: l, Hi: h, Mean: UnconstrainedMean()}
		if mode&8 == 0 {
			p.Mean = float64(l) + float64(h-l)*float64(mean)/math.MaxUint16
		}
		res, err := Maximize(p)
		if err != nil {
			t.Fatal(err)
		}
		certify(t, p, res)
	})
}

// TestQuickstartOptimumFace pins what the quickstart problem (N = 100,
// C = 1, mean 10 on [0, 99]) determines of its optimum. The optima form a
// flat face: H, P(0), P(1), P(2) and the mass and mean on l ≥ 3 are fixed,
// but any split of that mass with that mean scores the same H, so a
// change to the solver's path may move the atoms past l = 2 and nothing
// else: the recorded values hold to 1e-7 under line searches that place
// those atoms differently.
func TestQuickstartOptimumFace(t *testing.T) {
	e := engine(t, 100, 1)
	res, err := Maximize(Problem{Engine: e, Lo: 0, Hi: 99, Mean: 10})
	if err != nil {
		t.Fatal(err)
	}
	var mass, moment float64
	for l := 3; l <= 99; l++ {
		mass += res.Dist.PMF(l)
		moment += float64(l) * res.Dist.PMF(l)
	}
	mean := moment / mass
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"H", res.H, 6.5403729546},
		{"P(0)", res.Dist.PMF(0), 0.0092950568},
		{"P(1)", res.Dist.PMF(1), 0.0958661914},
		{"P(2)", res.Dist.PMF(2), 0.0881342431},
		{"P(l ≥ 3)", mass, 0.8067045087},
		{"mean on l ≥ 3", mean, 12.0587714804},
	} {
		if math.Abs(c.got-c.want) > 1e-7 {
			t.Errorf("%s = %.10f, want %.10f", c.name, c.got, c.want)
		}
	}
	for _, split := range [][2]int{{3, 99}, {4, 13}, {12, 13}, {5, 50}, {10, 20}} {
		a, b := float64(split[0]), float64(split[1])
		m := make([]float64, 100)
		for l := range 3 {
			m[l] = res.Dist.PMF(l)
		}
		m[split[0]] = mass * (b - mean) / (b - a)
		m[split[1]] = mass * (mean - a) / (b - a)
		h, err := e.AnonymityDegree(dist.PMF{Lo: 0, Mass: m})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(h-res.H) > 1e-12 {
			t.Errorf("l ≥ 3 mass on %v: H %.17g, optimum %.17g", split, h, res.H)
		}
	}
}
