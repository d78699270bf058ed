// Package figures regenerates every figure of the evaluation section (§6)
// of Guan et al. (ICDCS 2002). Each generator returns labeled data series
// (and can render them as TSV) with the paper's exact parameters:
// N = 100 nodes, C = 1 compromised node. The benchmark harness in the
// repository root and the anonbench command both drive these generators;
// EXPERIMENTS.md records the paper-vs-measured comparison for each.
package figures

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"anonmix/internal/dist"
	"anonmix/internal/events"
	"anonmix/internal/optimize"
	"anonmix/internal/pool"
	"anonmix/internal/scenario"
)

// Errors returned by generators.
var (
	// ErrUnknownFigure reports an unrecognized figure name.
	ErrUnknownFigure = errors.New("figures: unknown figure")
)

// PaperN and PaperC are the system parameters used throughout §6.
const (
	PaperN = 100
	PaperC = 1
)

// Series is one labeled curve: Y[i] = H*(S) at X[i].
type Series struct {
	// Label is the curve's legend entry, in the paper's notation.
	Label string
	// X holds the abscissa values (path length or L parameter).
	X []float64
	// Y holds the anonymity degrees.
	Y []float64
}

// Figure is a regenerated figure: a set of curves plus axis metadata.
type Figure struct {
	// Name is the paper's figure identifier, e.g. "3a".
	Name string
	// Title describes the experiment.
	Title string
	// XLabel names the abscissa.
	XLabel string
	// Series holds the curves.
	Series []Series
}

// WriteTSV renders the figure as a tab-separated table with one X column
// and one column per series (empty cells where a series has no sample).
func (f Figure) WriteTSV(w io.Writer) error {
	cols := make([]map[float64]float64, len(f.Series))
	xsSet := make(map[float64]bool)
	for i, s := range f.Series {
		cols[i] = make(map[float64]float64, len(s.X))
		for j, x := range s.X {
			cols[i][x] = s.Y[j]
			xsSet[x] = true
		}
	}
	xs := make([]float64, 0, len(xsSet))
	for x := range xsSet {
		xs = append(xs, x)
	}
	sort.Float64s(xs)

	var b strings.Builder
	b.WriteString(f.XLabel)
	for _, s := range f.Series {
		b.WriteByte('\t')
		b.WriteString(s.Label)
	}
	b.WriteByte('\n')
	for _, x := range xs {
		fmt.Fprintf(&b, "%g", x)
		for i := range f.Series {
			b.WriteByte('\t')
			if y, ok := cols[i][x]; ok {
				fmt.Fprintf(&b, "%.6f", y)
			}
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Peak returns the (x, y) of the maximum of the named series.
func (f Figure) Peak(label string) (x, y float64, err error) {
	for _, s := range f.Series {
		if s.Label != label {
			continue
		}
		best := math.Inf(-1)
		var arg float64
		for i, v := range s.Y {
			if v > best {
				best, arg = v, s.X[i]
			}
		}
		return arg, best, nil
	}
	return 0, 0, fmt.Errorf("%w: series %q", ErrUnknownFigure, label)
}

// sharedEngine returns the process-wide engine for the configuration from
// the scenario layer's cache. Engines are safe for concurrent use and
// memoize their per-class posteriors, so sharing them is what turns a
// repeated figure build (benchmark iterations, anonbench sweeps over many
// figures with common configurations) into cache hits — and the cache now
// being scenario's, those hits are shared with every CLI too.
func sharedEngine(n, c int, mode events.InferenceMode) (*events.Engine, error) {
	return scenario.Engine(n, c, events.WithInference(mode))
}

// engine builds the paper-configuration engine.
func engine() (*events.Engine, error) {
	return sharedEngine(PaperN, PaperC, events.InferenceStandard)
}

// seriesOver evaluates h at every x in xs on the shared worker pool and
// assembles the labeled curve. Each point is an independent posterior
// computation, so the parallel output is bit-identical to a serial sweep.
func seriesOver(label string, xs []int, h func(x int) (float64, error)) (Series, error) {
	ys, err := pool.MapErr(len(xs), func(i int) (float64, error) { return h(xs[i]) })
	if err != nil {
		return Series{}, err
	}
	s := Series{Label: label, X: make([]float64, len(xs)), Y: ys}
	for i, x := range xs {
		s.X[i] = float64(x)
	}
	return s, nil
}

// intRange returns lo, lo+step, ..., capped at hi (inclusive).
func intRange(lo, hi, step int) []int {
	var xs []int
	for x := lo; x <= hi; x += step {
		xs = append(xs, x)
	}
	return xs
}

// fixedDegree evaluates H*(F(l)) on the given engine.
func fixedDegree(e *events.Engine, l int) (float64, error) {
	f, err := dist.NewFixed(l)
	if err != nil {
		return 0, err
	}
	return e.AnonymityDegree(f)
}

// uniformDegree evaluates H*(U(a,b)) on the given engine.
func uniformDegree(e *events.Engine, a, b int) (float64, error) {
	u, err := dist.NewUniform(a, b)
	if err != nil {
		return 0, err
	}
	return e.AnonymityDegree(u)
}

// Fig3a regenerates Figure 3(a): H*(S) versus fixed path length l for
// l = 1..N−1 (the paper plots to 100; simple paths cap at N−1 = 99).
func Fig3a() (Figure, error) {
	e, err := engine()
	if err != nil {
		return Figure{}, err
	}
	s, err := seriesOver("F(l)", intRange(1, PaperN-1, 1), func(l int) (float64, error) {
		return fixedDegree(e, l)
	})
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		Name:   "3a",
		Title:  "Anonymity degree vs. fixed path length (long path effect)",
		XLabel: "path length l",
		Series: []Series{s},
	}, nil
}

// Fig3b regenerates Figure 3(b): the short-path zoom, l = 0..4.
func Fig3b() (Figure, error) {
	e, err := engine()
	if err != nil {
		return Figure{}, err
	}
	s, err := seriesOver("F(l)", intRange(0, 4, 1), func(l int) (float64, error) {
		return fixedDegree(e, l)
	})
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		Name:   "3b",
		Title:  "Anonymity degree vs. short fixed path lengths (short path effect)",
		XLabel: "path length l",
		Series: []Series{s},
	}, nil
}

// uniformFamily builds one H* vs L curve for U(a, a+L), L = 0..maxL.
func uniformFamily(e *events.Engine, a, maxL, step int) (Series, error) {
	var xs []int
	for l := 0; l <= maxL; l += step {
		if a+l > PaperN-1 {
			break
		}
		xs = append(xs, l)
	}
	return seriesOver(fmt.Sprintf("U(%d,%d+L)", a, a), xs, func(l int) (float64, error) {
		return uniformDegree(e, a, a+l)
	})
}

// fig4 regenerates one panel of Figure 4: anonymity degree versus the
// spread L of U(a, a+L) for several lower bounds a (same variance axis,
// different expectations).
func fig4(name string, lowers []int, maxL int) (Figure, error) {
	e, err := engine()
	if err != nil {
		return Figure{}, err
	}
	fig := Figure{
		Name:   name,
		Title:  "Anonymity degree vs. expectation of path length (same variance)",
		XLabel: "L",
	}
	for _, a := range lowers {
		s, err := uniformFamily(e, a, maxL, 2)
		if err != nil {
			return Figure{}, err
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Fig4a regenerates Figure 4(a): small lower bounds a ∈ {4, 6, 10}.
func Fig4a() (Figure, error) { return fig4("4a", []int{4, 6, 10}, 89) }

// Fig4b regenerates Figure 4(b): intermediate lower bounds a ∈ {25, 40}.
func Fig4b() (Figure, error) { return fig4("4b", []int{25, 40}, 59) }

// Fig4c regenerates Figure 4(c): large lower bounds a ∈ {51, 60, 70}
// (the long-path-effect regime where more spread hurts).
func Fig4c() (Figure, error) { return fig4("4c", []int{51, 60, 70}, 48) }

// Fig4d regenerates Figure 4(d): the short-path-effect regime
// a ∈ {0, 1, 6}.
func Fig4d() (Figure, error) { return fig4("4d", []int{0, 1, 6}, 93) }

// fig5 regenerates one panel of Figure 5: fixed F(L) against uniforms
// U(a, 2L−a) sharing the same mean L (same expectation, varying variance).
func fig5(name string, lowers []int, maxL int) (Figure, error) {
	e, err := engine()
	if err != nil {
		return Figure{}, err
	}
	fig := Figure{
		Name:   name,
		Title:  "Anonymity degree vs. variance of path length (same expectation)",
		XLabel: "L",
	}
	fs, err := seriesOver("F(L)", intRange(1, maxL, 1), func(l int) (float64, error) {
		return fixedDegree(e, l)
	})
	if err != nil {
		return Figure{}, err
	}
	fig.Series = append(fig.Series, fs)
	for _, a := range lowers {
		var xs []int
		for l := a; l <= maxL; l++ {
			if 2*l-a > PaperN-1 {
				break
			}
			xs = append(xs, l)
		}
		s, err := seriesOver(fmt.Sprintf("U(%d,2L-%d)", a, a), xs, func(l int) (float64, error) {
			return uniformDegree(e, a, 2*l-a)
		})
		if err != nil {
			return Figure{}, err
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Fig5a regenerates Figure 5(a): a ∈ {4, 6, 10} (curves overlay F(L) —
// Theorem 3's mean-only dependence).
func Fig5a() (Figure, error) { return fig5("5a", []int{4, 6, 10}, 50) }

// Fig5b regenerates Figure 5(b): a ∈ {25, 40}.
func Fig5b() (Figure, error) { return fig5("5b", []int{25, 40}, 70) }

// Fig5c regenerates Figure 5(c): a ∈ {51, 70}.
func Fig5c() (Figure, error) { return fig5("5c", []int{51, 70}, 85) }

// Fig5d regenerates Figure 5(d): a ∈ {1, 2, 6} — the regime of
// inequality (18) where variance helps and variable-length beats fixed.
func Fig5d() (Figure, error) { return fig5("5d", []int{1, 2, 6}, 50) }

// Fig6 regenerates Figure 6: for each target mean L, the fixed strategy
// F(L), the uniform U(2, 2L−2), the best mean-constrained uniform
// (Formula 19), and the general optimal distribution from the simplex
// solver (Formula 15).
func Fig6(maxL int) (Figure, error) {
	e, err := engine()
	if err != nil {
		return Figure{}, err
	}
	if maxL <= 2 || maxL > (PaperN-1)/2 {
		return Figure{}, fmt.Errorf("figures: Fig6 maxL %d outside (2, %d]", maxL, (PaperN-1)/2)
	}
	fig := Figure{
		Name:   "6",
		Title:  "Anonymity degree of the optimal path length distribution",
		XLabel: "L",
	}
	// Each mean L is one independent column of the figure: the fixed and
	// uniform baselines, the parametric best uniform, and a full simplex
	// solve, certified to 1e-9 bits. Columns fan out over the worker pool.
	type column struct{ hf, hu, hb, hopt float64 }
	ls := intRange(2, maxL, 1)
	cols, err := pool.MapErr(len(ls), func(i int) (column, error) {
		l := ls[i]
		var col column
		var err error
		if col.hf, err = fixedDegree(e, l); err != nil {
			return column{}, err
		}
		if col.hu, err = uniformDegree(e, 2, 2*l-2); err != nil {
			return column{}, err
		}
		if _, col.hb, err = optimize.BestUniform(e, l, 0, PaperN-1); err != nil {
			return column{}, err
		}
		res, err := optimize.Maximize(optimize.Problem{
			Engine: e, Lo: 0, Hi: PaperN - 1, Mean: float64(l),
		})
		if err != nil {
			return column{}, err
		}
		col.hopt = res.H
		return col, nil
	})
	if err != nil {
		return Figure{}, err
	}
	fixed := Series{Label: "F(L)"}
	u2 := Series{Label: "U(2,2L-2)"}
	bestU := Series{Label: "BestUniform(L)"}
	opt := Series{Label: "Optimization"}
	for i, l := range ls {
		x := float64(l)
		fixed.X = append(fixed.X, x)
		fixed.Y = append(fixed.Y, cols[i].hf)
		u2.X = append(u2.X, x)
		u2.Y = append(u2.Y, cols[i].hu)
		bestU.X = append(bestU.X, x)
		bestU.Y = append(bestU.Y, cols[i].hb)
		opt.X = append(opt.X, x)
		opt.Y = append(opt.Y, cols[i].hopt)
	}
	fig.Series = []Series{fixed, u2, bestU, opt}
	return fig, nil
}

// All regenerates every figure (Fig6 with the standard range).
func All() ([]Figure, error) {
	gens := []func() (Figure, error){
		Fig3a, Fig3b, Fig4a, Fig4b, Fig4c, Fig4d,
		Fig5a, Fig5b, Fig5c, Fig5d,
		func() (Figure, error) { return Fig6(25) },
	}
	out := make([]Figure, 0, len(gens))
	for _, g := range gens {
		f, err := g()
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// ByName regenerates one figure by its paper identifier
// ("3a", "3b", "4a".."4d", "5a".."5d", "6").
func ByName(name string) (Figure, error) {
	switch name {
	case "3a":
		return Fig3a()
	case "3b":
		return Fig3b()
	case "4a":
		return Fig4a()
	case "4b":
		return Fig4b()
	case "4c":
		return Fig4c()
	case "4d":
		return Fig4d()
	case "5a":
		return Fig5a()
	case "5b":
		return Fig5b()
	case "5c":
		return Fig5c()
	case "5d":
		return Fig5d()
	case "6":
		return Fig6(25)
	case "ablation-c":
		return AblationCSweep()
	case "ablation-n":
		return AblationNSweep()
	case "ablation-inference":
		return AblationInference()
	case "ablation-crowds":
		return AblationCrowdsPf()
	case "ablation-largec":
		return AblationLargeC()
	case "ablation-backends":
		return AblationBackends()
	case "degradation-rounds":
		return DegradationRounds()
	case "churn-sweep":
		return Churn()
	case "reliability-sweep":
		return Reliability()
	case "epoch-optimizer":
		return EpochOptimizer()
	default:
		return Figure{}, fmt.Errorf("%w: %q", ErrUnknownFigure, name)
	}
}

// Names lists the available figure identifiers: the paper's figures in
// paper order, then this repository's ablation extensions.
func Names() []string {
	return []string{
		"3a", "3b", "4a", "4b", "4c", "4d", "5a", "5b", "5c", "5d", "6",
		"ablation-c", "ablation-n", "ablation-inference", "ablation-crowds",
		"ablation-largec", "ablation-backends", "degradation-rounds",
		"churn-sweep", "epoch-optimizer", "reliability-sweep",
	}
}
