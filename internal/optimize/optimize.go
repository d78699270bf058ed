// Package optimize solves the path-length-distribution design problem of
// Guan et al. (ICDCS 2002) §5.4: choose the probability mass function of the
// rerouting path length to maximize the anonymity degree H*(S), subject to
// the simplex constraints of Formulas (16)–(17) and, optionally, a target
// expected path length (the per-mean optimization of §6.4 / Figure 6).
//
// The objective is concave. The engine writes H*(p) as
// (N−C)/N · Σ_σ n_σ·P_σ(p)·f(P0_σ(p)/P_σ(p)): P_σ and P0_σ are linear in
// p, and the class entropy f is concave (linear under full-position
// inference, constant for uniform-over-all classes), so each perspective
// term P·f(P0/P) is jointly concave and so is their positive sum, with or
// without the mean constraint. Every local maximum is global, and at a
// feasible p with gradient g the Frank–Wolfe gap max_s ⟨g, s⟩ − ⟨g, p⟩
// over the vertices s of the feasible set bounds the shortfall from the
// optimum. The vertices are point masses, or with a mean constraint
// distributions of at most two atoms, so max_s ⟨g, s⟩ is max_l g_l or the
// upper concave envelope of the points (l, g_l) at the mean.
//
//   - Maximize: the general solver for Formula (15), an active-set method
//     that stops once the gap is at most 1e-9 bits and reports it as
//     Result.Gap. Each iteration takes a Newton step on the face of the
//     current support or, once that face is solved, a Frank–Wolfe step that
//     brings atoms in; an exact line search and a ratio test that drops
//     atoms at zero end every step, so no step ever projects. The line
//     search takes Newton steps in ln t that only its bracket guards and
//     stops at φ'’s rounding floor; each evaluation of φ' takes two
//     natural logs per bucket.
//   - BestUniform: exhaustive search within the uniform family U(a, 2m−a)
//     at a fixed mean m — the parametric optimization of §6.4, Formula (19).
//   - BestTwoPoint: exhaustive search over the two-atom vertices at a fixed
//     mean; Maximize's H plus its Gap is never below it.
package optimize

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"anonmix/internal/dist"
	"anonmix/internal/events"
	"anonmix/internal/pool"
)

// Errors returned by the solvers.
var (
	// ErrBadProblem reports an inconsistent problem definition.
	ErrBadProblem = errors.New("optimize: invalid problem")
	// ErrInfeasible reports constraints that no distribution satisfies.
	ErrInfeasible = errors.New("optimize: constraints are infeasible")
)

// Problem describes a path-length-distribution design problem.
type Problem struct {
	// Engine computes the objective H*(S).
	Engine *events.Engine
	// Lo and Hi bound the support of the designed distribution
	// (0 ≤ Lo ≤ Hi ≤ N−1).
	Lo, Hi int
	// Mean, when not NaN, constrains the expected path length to this
	// value (the §6.4 per-mean problem). NaN leaves the mean free.
	Mean float64
}

// UnconstrainedMean is the Mean value that leaves the expectation free.
func UnconstrainedMean() float64 { return math.NaN() }

// meanConstrained reports whether the problem pins the expectation.
func (p Problem) meanConstrained() bool { return !math.IsNaN(p.Mean) }

func (p Problem) validate() error {
	if p.Engine == nil {
		return fmt.Errorf("%w: nil engine", ErrBadProblem)
	}
	if p.Lo < 0 || p.Hi < p.Lo || p.Hi > p.Engine.N()-1 {
		return fmt.Errorf("%w: support [%d,%d] with N=%d", ErrBadProblem, p.Lo, p.Hi, p.Engine.N())
	}
	if p.meanConstrained() && (p.Mean < float64(p.Lo) || p.Mean > float64(p.Hi)) {
		return fmt.Errorf("%w: mean %v outside support [%d,%d]", ErrInfeasible, p.Mean, p.Lo, p.Hi)
	}
	return nil
}

// Result is the outcome of a Maximize run.
type Result struct {
	// Dist is the optimized mass function.
	Dist dist.PMF
	// H is the anonymity degree achieved by Dist.
	H float64
	// Gap is the Frank–Wolfe gap at Dist, a certified bound on H*max − H.
	Gap float64
	// Iterations counts solver steps.
	Iterations int
	// Converged reports Gap ≤ 1e-9 bits. A solve stopped by the
	// iteration cap first reports false, together with its Gap.
	Converged bool
	// evals counts the line searches' evaluations of φ'.
	evals int
}

// gapTolerance is the certified gap, in bits, at which a solve stops.
const gapTolerance = 1e-9

// config holds solver tuning knobs.
type config struct{ maxIters int }

// Option tunes the Maximize solver.
type Option func(*config)

// WithMaxIterations caps solver steps (default 400, a safety net).
func WithMaxIterations(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.maxIters = n
		}
	}
}

func newConfig(opts []Option) config {
	cfg := config{maxIters: 400}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// Maximize solves Formula (15): a distribution on [Lo, Hi] (optionally of
// the given mean) maximizing the anonymity degree, certified by its Gap.
func Maximize(p Problem, opts ...Option) (Result, error) {
	if err := p.validate(); err != nil {
		return Result{}, err
	}
	ev, err := newEvaluator(p.Engine, p.Lo, p.Hi, 1)
	if err != nil {
		return Result{}, err
	}
	return p.solve(ev, nil, newConfig(opts))
}

// evaluator holds the objective as a list of the engine's shape groups
// (the solver calls each one a bucket):
// H*(p) = Σ_σ c_σ·P_σ(p)·f(α_σ) with P_σ = ⟨W_σ, p⟩, P0_σ = ⟨W0_σ, p⟩,
// α_σ = P0_σ/P_σ and c_σ (ClassWeights.Count) the group multiplicity
// times the honest-sender branch weight times a caller's scale. With
// u_σ = W0_σ − α_σ·W_σ,
//
//	∂H*/∂p_l       = Σ_σ c_σ·[f(α_σ)·W_σ(l) + f'(α_σ)·u_σ(l)],
//	∂²H*/∂p_l∂p_m  = Σ_σ c_σ·f''(α_σ)/P_σ · u_σ(l)·u_σ(m).
//
// A blend of epochs is one evaluator over the epochs' buckets.
type evaluator []events.ClassWeights

// newEvaluator builds the evaluator of one engine on [lo, hi], each Count
// scaled by scale and by AnonymityDegree's honest-sender branch weight
// ((N−C)/N, or 1 without sender self-report). Weights returns a copy of
// its entries, so the scaling never reaches the engine's cache.
func newEvaluator(e *events.Engine, lo, hi int, scale float64) (evaluator, error) {
	w, err := e.Weights(lo, hi)
	if err != nil {
		return nil, err
	}
	if e.SenderSelfReport() {
		scale *= float64(e.N()-e.C()) / float64(e.N())
	}
	for i := range w {
		w[i].Count *= scale
	}
	return w, nil
}

// tiny floors α and 1 − α in the entropy terms. A posterior pinned at 0 or
// 1 has an unbounded f'; the floor caps it near 40 bits and moves H by
// less than 1e-10.
const tiny = 1e-12

// entropyTerms returns the class entropy f(α) and its derivative f'(α),
// from a = α and q = 1 − α each computed without cancellation, for an
// entry with the given Rest, FullPosition and UniformOverAll. The general
// case takes two natural logs, f = −(a·ln a + q·ln(q/Rest))/ln 2 and
// f' = (ln(q/Rest) − ln a)/ln 2.
func entropyTerms(rest int, fullPosition, uniformOverAll bool, a, q float64) (f, fp float64) {
	switch {
	case uniformOverAll:
		return math.Log2(float64(rest)), 0
	case rest <= 0:
		return 0, 0
	case fullPosition:
		lg := math.Log2(float64(rest))
		return q * lg, -lg
	default:
		a, q = max(a, tiny), max(q, tiny)
		la, lq := math.Log(a), math.Log(q/float64(rest))
		return -(a*la + q*lq) * math.Log2E, (lq - la) * math.Log2E
	}
}

// curvature returns f″(α) for the same entry, which takes no log:
// −1/(ln 2·a·q) in the general case, 0 where f is linear or constant.
func curvature(rest int, fullPosition, uniformOverAll bool, a, q float64) float64 {
	if uniformOverAll || fullPosition || rest <= 0 {
		return 0
	}
	return -1 / (math.Ln2 * max(a, tiny) * max(q, tiny))
}

// vertex is a feasible extreme point: mass w at index i, 1−w at index j.
type vertex struct {
	i, j int
	w    float64
}

// solver holds one solve's iterate and scratch. Indices are l − Lo.
type solver struct {
	ev          evaluator
	rows        int       // equality rows: Σp = 1, and the mean row when constrained
	off         []float64 // l − Mean, the centred mean row
	p           []float64 // iterate
	g           []float64 // gradient at p
	d           []float64 // step direction
	all         []int     // every index
	supp        []int     // indices with p > 0, ascending
	face        []int     // the support's atoms of at least 1e-12, ascending
	act         []int     // indices where d may be nonzero
	b           []bucket  // per-bucket sums at p and their rates along d
	kkt, rhs, u []float64
	evals       int // calls of slope
}

// bucket holds one bucket's P, P0 and Q = P − P0 at p and rates along d.
type bucket struct{ p, p0, q, dp, dp0, dq float64 }

// solve runs the active-set method from start (a feasible mass vector, or
// nil for a cold start at the best vertex for the gradient at the uniform
// distribution) and returns the result with its gap at the returned Dist.
func (p Problem) solve(ev evaluator, start []float64, cfg config) (Result, error) {
	n, nb := p.Hi-p.Lo+1, len(ev)
	s := &solver{ev: ev, rows: 1, p: make([]float64, n), g: make([]float64, n), d: make([]float64, n),
		b: make([]bucket, nb)}
	s.all, s.off = make([]int, n), make([]float64, n)
	for i := range n {
		s.all[i], s.off[i] = i, float64(p.Lo+i)-p.Mean
	}
	if p.meanConstrained() {
		s.rows = 2
	}
	if start != nil {
		copy(s.p, start)
	} else {
		for i := range s.p {
			s.p[i] = 1 / float64(n)
		}
		s.supp = append(s.supp, s.all...)
		s.valueGrad()
		_, v := s.best(s.all)
		clear(s.p)
		s.p[v.i] += v.w
		s.p[v.j] += 1 - v.w
	}
	var res Result
	for {
		s.clean()
		res.H = s.valueGrad()
		top, v := s.best(s.all)
		res.Gap = max(top-res.H, 0)
		if res.Gap <= gapTolerance || res.Iterations >= cfg.maxIters || !s.step(res.Gap, res.H, v) {
			break
		}
		res.Iterations++
	}
	res.Converged = res.Gap <= gapTolerance
	res.evals = s.evals
	d, err := dist.NewPMF(p.Lo, s.p)
	if err != nil {
		return Result{}, fmt.Errorf("optimize: result failed validation: %w", err)
	}
	res.Dist = d
	return res, nil
}

// clean drops atoms that a step took to zero (or, by rounding, below),
// rescales to Σp = 1 and rebuilds the support.
func (s *solver) clean() {
	var sum float64
	s.supp = s.supp[:0]
	for i, m := range s.p {
		if m > 0 {
			s.supp = append(s.supp, i)
			sum += m
		} else {
			s.p[i] = 0
		}
	}
	for _, i := range s.supp {
		s.p[i] /= sum
	}
}

// fit projects d onto the face's equality rows, Σd = 0 and
// Σ (l − Mean)·d = 0, so rounding in the KKT solve never moves the mean.
func (s *solver) fit() {
	var n, sx, sxx, sd, sxd float64
	for _, i := range s.act {
		n++
		sd += s.d[i]
		if s.rows == 2 {
			sx += s.off[i]
			sxx += s.off[i] * s.off[i]
			sxd += s.off[i] * s.d[i]
		}
	}
	l1, l2 := sd/n, 0.0
	if det := n*sxx - sx*sx; s.rows == 2 && det > 0 {
		l1, l2 = (sd*sxx-sx*sxd)/det, (n*sxd-sx*sd)/det
	}
	for _, i := range s.act {
		s.d[i] -= l1
		if s.rows == 2 {
			s.d[i] -= l2 * s.off[i]
		}
	}
}

// valueGrad returns H*(p), fills g with its gradient and records every
// bucket's P, P0 and Q at p.
func (s *solver) valueGrad() float64 {
	clear(s.g)
	var h float64
	for b := range s.ev {
		cw := &s.ev[b]
		var sp, sp0, sq float64
		for _, i := range s.supp {
			sp += cw.W[i] * s.p[i]
			sp0 += cw.W0[i] * s.p[i]
			sq += (cw.W[i] - cw.W0[i]) * s.p[i]
		}
		s.b[b].p, s.b[b].p0, s.b[b].q = sp, sp0, sq
		if sp <= 0 {
			// An unreached class: mass at l alone adds Count·W·f(W0/W).
			for i, w := range cw.W {
				if w > 0 {
					f, _ := entropyTerms(cw.Rest, cw.FullPosition, cw.UniformOverAll, cw.W0[i]/w, (w-cw.W0[i])/w)
					s.g[i] += cw.Count * w * f
				}
			}
			continue
		}
		alpha := sp0 / sp
		f, fp := entropyTerms(cw.Rest, cw.FullPosition, cw.UniformOverAll, alpha, sq/sp)
		h += cw.Count * sp * f
		for i, w := range cw.W {
			s.g[i] += cw.Count * (f*w + fp*(cw.W0[i]-alpha*w))
		}
	}
	return h
}

// best returns max ⟨g, s⟩ over the vertices s with atoms in idx (ascending
// indices) and the first vertex attaining it: the largest g_l without a
// mean constraint, the upper concave envelope of (l, g_l) at the mean with
// one.
func (s *solver) best(idx []int) (float64, vertex) {
	top, v := math.Inf(-1), vertex{}
	if s.rows == 1 {
		for _, i := range idx {
			if s.g[i] > top {
				top, v = s.g[i], vertex{i, i, 1}
			}
		}
		return top, v
	}
	for _, i := range idx {
		if s.off[i] > 0 {
			break
		}
		for _, j := range idx {
			if s.off[j] < 0 {
				continue
			}
			w := 1.0
			if j != i {
				w = s.off[j] / (s.off[j] - s.off[i])
			}
			if val := w*s.g[i] + (1-w)*s.g[j]; val > top {
				top, v = val, vertex{i, j, w}
			}
		}
	}
	return top, v
}

// step moves the iterate once and reports whether it ascended: a Newton
// step on the face of the atoms of at least 1e-12 while that face holds
// over half the gap, else (or if Newton cannot ascend) a Frank–Wolfe step
// toward v. Lighter atoms, down to 1e-60 where they unpin a posterior,
// would swamp the Newton system; Frank–Wolfe steps size them.
func (s *solver) step(gap, h float64, v vertex) bool {
	s.face = s.face[:0]
	for _, i := range s.supp {
		if s.p[i] >= 1e-12 {
			s.face = append(s.face, i)
		}
	}
	if top, _ := s.best(s.face); top-h > gap/2 && s.newton() && s.search() {
		return true
	}
	clear(s.d)
	for _, i := range s.supp {
		s.d[i] = -s.p[i]
	}
	s.d[v.i] += v.w
	s.d[v.j] += 1 - v.w
	s.act = s.act[:0]
	for i, x := range s.d {
		if x != 0 {
			s.act = append(s.act, i)
		}
	}
	return s.search()
}

// newton fills d with the Newton direction on the face, the maximizer of
// ⟨g, d⟩ − ½·dᵀQd under the equality rows A, from the KKT system
// [Q Aᵀ; A 0]·[d; λ] = [g; 0], where Q = −∇²H* on the face is a sum of
// rank-one bucket terms. Buckets without curvature (full-position,
// uniform-over-all) can leave Q singular, so it is regularised by 1e-12
// times its diagonal. It reports false when d does not ascend.
func (s *solver) newton() bool {
	s.act = append(s.act[:0], s.face...)
	k := len(s.act)
	if k <= s.rows {
		return false
	}
	m := k + s.rows
	s.kkt, s.rhs, s.u = zeroed(s.kkt, m*m), zeroed(s.rhs, m), zeroed(s.u, k)
	a, u := s.kkt, s.u
	for b := range s.ev {
		cw := &s.ev[b]
		sp := s.b[b].p
		if sp <= 0 {
			continue
		}
		alpha := s.b[b].p0 / sp
		c := -cw.Count * curvature(cw.Rest, cw.FullPosition, cw.UniformOverAll, alpha, s.b[b].q/sp) / sp
		if c == 0 || math.IsInf(c, 0) {
			continue
		}
		for x, i := range s.act {
			u[x] = cw.W0[i] - alpha*cw.W[i]
		}
		for x := range k {
			cu := c * u[x]
			for y := x; y < k; y++ {
				a[x*m+y] += cu * u[y]
			}
		}
	}
	// Solve for y = d/sc with sc = Q_xx^(−1/2): a unit diagonal whatever
	// the atoms' masses, and a regularisation relative to each one.
	sc := s.u
	for x := range k {
		sc[x] = 1
		if a[x*m+x] > 0 {
			sc[x] = 1 / math.Sqrt(a[x*m+x])
		}
	}
	for x, i := range s.act {
		for y := x; y < k; y++ {
			a[x*m+y] *= sc[x] * sc[y]
			a[y*m+x] = a[x*m+y]
		}
		a[x*m+x] += 1e-12
		a[x*m+k], a[k*m+x] = sc[x], sc[x]
		if s.rows == 2 {
			a[x*m+k+1], a[(k+1)*m+x] = sc[x]*s.off[i], sc[x]*s.off[i]
		}
		s.rhs[x] = sc[x] * s.g[i]
	}
	solveDense(a, s.rhs, m)
	clear(s.d)
	for x, i := range s.act {
		s.d[i] = sc[x] * s.rhs[x]
	}
	s.fit()
	var slope float64
	for _, i := range s.act {
		slope += s.g[i] * s.d[i]
	}
	return slope > 0
}

// zeroed returns buf resized to n zeros, reusing its storage.
func zeroed(buf []float64, n int) []float64 {
	buf = slices.Grow(buf[:0], n)[:n]
	clear(buf)
	return buf
}

// solveDense overwrites b with the solution of a·x = b (Gaussian
// elimination, partial pivoting); a singular a leaves NaN or ±Inf in b.
func solveDense(a, b []float64, m int) {
	for c := range m {
		piv := c
		for r := c + 1; r < m; r++ {
			if math.Abs(a[r*m+c]) > math.Abs(a[piv*m+c]) {
				piv = r
			}
		}
		for k := c; k < m; k++ {
			a[c*m+k], a[piv*m+k] = a[piv*m+k], a[c*m+k]
		}
		b[c], b[piv] = b[piv], b[c]
		for r := c + 1; r < m; r++ {
			f := a[r*m+c] / a[c*m+c]
			for k := c + 1; k < m; k++ {
				a[r*m+k] -= f * a[c*m+k]
			}
			b[r] -= f * b[c]
		}
	}
	for c := m - 1; c >= 0; c-- {
		for k := c + 1; k < m; k++ {
			b[c] -= a[c*m+k] * b[k]
		}
		b[c] /= a[c*m+c]
	}
}

// search ends a step: a ratio test bounds t by the first atom d drives to
// zero, and an exact line search maximizes the concave φ(t) = H*(p + t·d)
// on [0, tmax]. It reports whether p moved. A bucket with P = 0 at an end
// of the segment (brought in, or emptied) has the constant α = dP0/dP
// along it, so its slope is the constant Count·dP·f(dP0/dP) — the limit,
// not zero, at the emptied end.
//
// The line search brackets the root of φ' and takes Newton steps while
// they land inside the bracket, bisecting otherwise; only the bracket
// guards Newton, so a short first step never holds back the later ones.
// From t > 0 a Newton step is taken in ln t, t·exp(−φ'/(φ″·t)): where a
// light atom holds a bucket near P = 0 at t = 0, φ' runs like −ln t, and
// φ″(0), up to 1e11 times φ″ at the root, makes plain Newton creep up on
// the root. Likewise a bracket spanning more than a factor 4 is split at
// its geometric mean. The search stops on a Newton step shorter than
// 1e-10·t, however rounding places it in the bracket; on a |φ'| below its
// rounding floor, where the direction is flat and the sign of φ' is
// noise; or on a bisection step shorter than 1e-13·t.
func (s *solver) search() bool {
	tmax := math.Inf(1)
	for _, i := range s.act {
		if s.d[i] < 0 {
			tmax = min(tmax, s.p[i]/-s.d[i])
		}
	}
	if math.IsInf(tmax, 1) || !(tmax > 0) {
		return false
	}
	var base float64
	for b := range s.ev {
		cw := &s.ev[b]
		var dp, dp0, dq float64
		emptied := true
		for _, i := range s.act {
			dp += cw.W[i] * s.d[i]
			dp0 += cw.W0[i] * s.d[i]
			dq += (cw.W[i] - cw.W0[i]) * s.d[i]
			if cw.W[i] > 0 && !(s.d[i] < 0 && s.p[i]/-s.d[i] <= tmax) {
				emptied = false // atom i still reaches the bucket at tmax
			}
		}
		if dp != 0 && (s.b[b].p == 0 || emptied) {
			f, _ := entropyTerms(cw.Rest, cw.FullPosition, cw.UniformOverAll, dp0/dp, dq/dp)
			base += cw.Count * dp * f
			dp, dp0, dq = 0, 0, 0
		}
		s.b[b].dp, s.b[b].dp0, s.b[b].dq = dp, dp0, dq
	}
	t := tmax
	if end, _, _ := s.slope(base, tmax); end < 0 {
		d1, d2, _ := s.slope(base, 0)
		if !(d1 > 0) {
			return false
		}
		// φ' > 0 at lo, ≤ 0 at hi, and t is one of the two.
		lo, hi := 0.0, tmax
		t = 0
		for range 200 {
			step := -d1 / d2
			if t > 0 {
				step = t * math.Expm1(step/t)
			}
			if t > 0 && d2 < 0 && math.Abs(step) <= 1e-10*t {
				t += step
				break
			}
			next := t + step
			if !(d2 < 0 && next > lo && next < hi) {
				next = (lo + hi) / 2
				if lo > 0 && hi > 4*lo {
					next = math.Sqrt(lo * hi)
				}
			}
			dx := math.Abs(next - t)
			t = next
			if dx <= 1e-13*t {
				break
			}
			var floor float64
			if d1, d2, floor = s.slope(base, t); math.Abs(d1) <= floor {
				break
			}
			if d1 > 0 {
				lo = t
			} else {
				hi = t
			}
		}
	}
	for _, i := range s.act {
		s.p[i] += t * s.d[i]
	}
	return t > 0
}

// slope returns φ'(t), φ″(t) and φ'’s rounding floor: base, the constant
// slope of the buckets empty at an end of the segment, plus the others'
// terms, and 1e-14 times the sum of the terms' magnitudes, below which
// the sign of φ' is rounding noise.
func (s *solver) slope(base, t float64) (d1, d2, floor float64) {
	s.evals++
	d1, floor = base, math.Abs(base)
	for i := range s.ev {
		cw, b := &s.ev[i], &s.b[i]
		if b.dp == 0 && b.dp0 == 0 {
			continue
		}
		var term float64
		if sp := b.p + t*b.dp; sp > 0 {
			alpha := (b.p0 + t*b.dp0) / sp
			q := (b.q + t*b.dq) / sp
			f, fp := entropyTerms(cw.Rest, cw.FullPosition, cw.UniformOverAll, alpha, q)
			v := b.dp0 - alpha*b.dp
			term = cw.Count * (f*b.dp + fp*v)
			d2 += cw.Count * curvature(cw.Rest, cw.FullPosition, cw.UniformOverAll, alpha, q) * v * v / sp
		} else { // a bucket rounding empties just short of tmax
			f, _ := entropyTerms(cw.Rest, cw.FullPosition, cw.UniformOverAll, b.dp0/b.dp, b.dq/b.dp)
			term = cw.Count * b.dp * f
		}
		d1 += term
		floor += math.Abs(term)
	}
	return d1, d2, 1e-14 * floor
}

// BestUniform performs the §6.4 parametric optimization (Formula 19): among
// uniform distributions U(a, 2·mean−a) with the given integer mean and
// support within [lo, hi], it returns the one maximizing H*(S).
func BestUniform(e *events.Engine, mean, lo, hi int) (dist.Uniform, float64, error) {
	if e == nil {
		return dist.Uniform{}, 0, fmt.Errorf("%w: nil engine", ErrBadProblem)
	}
	if lo < 0 || hi > e.N()-1 || mean < lo || mean > hi {
		return dist.Uniform{}, 0, fmt.Errorf("%w: mean %d, support [%d,%d], N=%d",
			ErrBadProblem, mean, lo, hi, e.N())
	}
	var cands []dist.Uniform
	for a := lo; a <= mean; a++ {
		b := 2*mean - a
		if b > hi {
			continue
		}
		u, err := dist.NewUniform(a, b)
		if err != nil {
			return dist.Uniform{}, 0, err
		}
		cands = append(cands, u)
	}
	// Evaluate the family concurrently, then fold in candidate order so the
	// first-best tie-breaking matches a serial scan.
	hs, err := pool.MapErr(len(cands), func(i int) (float64, error) {
		return e.AnonymityDegree(cands[i])
	})
	if err != nil {
		return dist.Uniform{}, 0, err
	}
	bestH := math.Inf(-1)
	var bestU dist.Uniform
	for i, h := range hs {
		if h > bestH {
			bestH, bestU = h, cands[i]
		}
	}
	if math.IsInf(bestH, -1) {
		return dist.Uniform{}, 0, fmt.Errorf("%w: no uniform with mean %d fits in [%d,%d]",
			ErrInfeasible, mean, lo, hi)
	}
	return bestU, bestH, nil
}

// BestTwoPoint searches all two-atom distributions {l1: p, l2: 1−p} with
// the given mean and support within [lo, hi], returning the maximizer: the
// best vertex of the mean-constrained simplex, an independent check on
// Maximize.
func BestTwoPoint(e *events.Engine, mean float64, lo, hi int) (dist.TwoPoint, float64, error) {
	if e == nil {
		return dist.TwoPoint{}, 0, fmt.Errorf("%w: nil engine", ErrBadProblem)
	}
	if lo < 0 || hi > e.N()-1 || mean < float64(lo) || mean > float64(hi) {
		return dist.TwoPoint{}, 0, fmt.Errorf("%w: mean %v, support [%d,%d], N=%d",
			ErrBadProblem, mean, lo, hi, e.N())
	}
	bestH := math.Inf(-1)
	var bestT dist.TwoPoint
	for l1 := lo; float64(l1) <= mean; l1++ {
		for l2 := int(math.Ceil(mean)); l2 <= hi; l2++ {
			var p1 float64
			if l1 == l2 {
				//anonlint:allow floatcmp(degenerate two-point is feasible only when the mean hits the atom exactly)
				if float64(l1) != mean {
					continue
				}
				p1 = 1
			} else {
				p1 = (float64(l2) - mean) / float64(l2-l1)
			}
			if p1 < 0 || p1 > 1 {
				continue
			}
			tp, err := dist.NewTwoPoint(l1, l2, p1)
			if err != nil {
				return dist.TwoPoint{}, 0, err
			}
			h, err := e.AnonymityDegree(tp)
			if err != nil {
				return dist.TwoPoint{}, 0, err
			}
			if h > bestH {
				bestH, bestT = h, tp
			}
		}
	}
	if math.IsInf(bestH, -1) {
		return dist.TwoPoint{}, 0, fmt.Errorf("%w: no two-point with mean %v in [%d,%d]",
			ErrInfeasible, mean, lo, hi)
	}
	return bestT, bestH, nil
}
