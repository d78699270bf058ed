package anonmix

// One benchmark per figure and theorem of the paper's evaluation section,
// plus ablation and raw-performance benches. Figure benches regenerate the
// full data series each iteration and report headline metrics (peak
// locations, anonymity-degree gaps) via b.ReportMetric, so
// `go test -bench=. -benchmem` doubles as the reproduction harness.
// EXPERIMENTS.md records the paper-vs-measured comparison.

import (
	"crypto/rand"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"anonmix/internal/adversary"
	"anonmix/internal/degrade"
	"anonmix/internal/dist"
	"anonmix/internal/events"
	"anonmix/internal/faults"
	"anonmix/internal/figures"
	"anonmix/internal/mixbatch"
	"anonmix/internal/montecarlo"
	"anonmix/internal/onion"
	"anonmix/internal/optimize"
	"anonmix/internal/pathsel"
	"anonmix/internal/scenario"
	"anonmix/internal/simnet"
	"anonmix/internal/stats"
	"anonmix/internal/theory"
	"anonmix/internal/trace"
)

// benchFigure runs a figure generator and reports series count.
func benchFigure(b *testing.B, gen func() (figures.Figure, error)) figures.Figure {
	b.Helper()
	var fig figures.Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = gen()
		if err != nil {
			b.Fatal(err)
		}
	}
	return fig
}

// BenchmarkFig3a regenerates Figure 3(a) — H* vs fixed path length,
// N=100, C=1 — and reports the long-path-effect peak, how flat the curve
// is around it (the range of l within 0.001 bits of the peak), and how
// far below the peak the curve sits at the paper's peak length l ≈ 31.
func BenchmarkFig3a(b *testing.B) {
	const paperPeakL, plateauBits = 31, 0.001
	fig := benchFigure(b, figures.Fig3a)
	x, y, err := fig.Peak("F(l)")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(x, "peak_l")
	b.ReportMetric(y, "peak_H*_bits")
	for _, s := range fig.Series {
		if s.Label != "F(l)" {
			continue
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		atPaper := math.NaN()
		for i, l := range s.X {
			if s.Y[i] >= y-plateauBits {
				lo, hi = min(lo, l), max(hi, l)
			}
			if l == paperPeakL {
				atPaper = s.Y[i]
			}
		}
		b.ReportMetric(lo, "plateau_lo_l")
		b.ReportMetric(hi, "plateau_hi_l")
		b.ReportMetric(y-atPaper, "gap_at_paper_l_bits")
	}
}

// BenchmarkFig3b regenerates Figure 3(b) — the short-path zoom — and
// reports the l=1 plateau value (paper: ≈6.482).
func BenchmarkFig3b(b *testing.B) {
	fig := benchFigure(b, figures.Fig3b)
	b.ReportMetric(fig.Series[0].Y[1], "H*_at_l1_bits")
	b.ReportMetric(fig.Series[0].Y[4], "H*_at_l4_bits")
}

// BenchmarkFig4a..d regenerate the four panels of Figure 4 (H* vs
// expectation at equal variance).
func BenchmarkFig4a(b *testing.B) {
	fig := benchFigure(b, figures.Fig4a)
	_, y, err := fig.Peak("U(4,4+L)")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(y, "peak_H*_bits")
}

func BenchmarkFig4b(b *testing.B) { benchFigure(b, figures.Fig4b) }
func BenchmarkFig4c(b *testing.B) { benchFigure(b, figures.Fig4c) }

func BenchmarkFig4d(b *testing.B) {
	fig := benchFigure(b, figures.Fig4d)
	// The U(0,L) curve recovers from the short-path effect at large L.
	s := fig.Series[0]
	b.ReportMetric(s.Y[len(s.Y)-1]-s.Y[0], "U0_recovery_bits")
}

// BenchmarkFig5a..d regenerate the four panels of Figure 5 (H* vs variance
// at equal expectation). Panel (a) reports the maximum deviation of the
// a ≥ 3 uniform curves from F(L) — Theorem 3 says it should be ~0.
func BenchmarkFig5a(b *testing.B) {
	fig := benchFigure(b, figures.Fig5a)
	ref := map[float64]float64{}
	for i, x := range fig.Series[0].X {
		ref[x] = fig.Series[0].Y[i]
	}
	var maxDev float64
	for _, s := range fig.Series[1:] {
		for i, x := range s.X {
			if want, ok := ref[x]; ok {
				if d := math.Abs(s.Y[i] - want); d > maxDev {
					maxDev = d
				}
			}
		}
	}
	b.ReportMetric(maxDev, "overlay_max_dev_bits")
}

func BenchmarkFig5b(b *testing.B) { benchFigure(b, figures.Fig5b) }
func BenchmarkFig5c(b *testing.B) { benchFigure(b, figures.Fig5c) }

func BenchmarkFig5d(b *testing.B) {
	fig := benchFigure(b, figures.Fig5d)
	// Inequality (18) gap at L=20: U(1,2L−1) over F(L).
	var u1, f float64
	for _, s := range fig.Series {
		for i, x := range s.X {
			if x != 20 {
				continue
			}
			switch s.Label {
			case "U(1,2L-1)":
				u1 = s.Y[i]
			case "F(L)":
				f = s.Y[i]
			}
		}
	}
	b.ReportMetric(u1-f, "ineq18_gap_bits")
}

// BenchmarkFig6 regenerates Figure 6 — the optimal distribution versus
// F(L) and U(2,2L−2) — and reports the optimization gain at the largest
// mean.
func BenchmarkFig6(b *testing.B) {
	fig := benchFigure(b, func() (figures.Figure, error) { return figures.Fig6(12) })
	series := map[string][]float64{}
	for _, s := range fig.Series {
		series[s.Label] = s.Y
	}
	last := len(series["F(L)"]) - 1
	b.ReportMetric(series["Optimization"][last]-series["F(L)"][last], "opt_gain_bits")
}

// BenchmarkTheorem1 sweeps the Theorem-1 closed form against the engine
// and reports the maximum disagreement (should be ≈0).
func BenchmarkTheorem1(b *testing.B) {
	e, err := events.New(100, 1)
	if err != nil {
		b.Fatal(err)
	}
	var maxDev float64
	for i := 0; i < b.N; i++ {
		maxDev = 0
		for l := 0; l <= 99; l++ {
			f, err := dist.NewFixed(l)
			if err != nil {
				b.Fatal(err)
			}
			got, err := e.AnonymityDegree(f)
			if err != nil {
				b.Fatal(err)
			}
			want, err := theory.FixedSimpleC1(100, l)
			if err != nil {
				b.Fatal(err)
			}
			if d := math.Abs(got - want); d > maxDev {
				maxDev = d
			}
		}
	}
	b.ReportMetric(maxDev, "max_dev_bits")
}

// BenchmarkTheorem2 sweeps the geometric (coin-flip, Formula 12) closed
// form against the engine over forwarding probabilities.
func BenchmarkTheorem2(b *testing.B) {
	e, err := events.New(100, 1)
	if err != nil {
		b.Fatal(err)
	}
	var maxDev float64
	for i := 0; i < b.N; i++ {
		maxDev = 0
		for _, pf := range []float64{0.1, 0.25, 0.5, 0.66, 0.75, 0.9, 0.99} {
			g, err := dist.NewGeometric(pf, 1, 99)
			if err != nil {
				b.Fatal(err)
			}
			got, err := e.AnonymityDegree(g)
			if err != nil {
				b.Fatal(err)
			}
			want, err := theory.GeometricC1(100, pf, 1, 99)
			if err != nil {
				b.Fatal(err)
			}
			if d := math.Abs(got - want); d > maxDev {
				maxDev = d
			}
		}
	}
	b.ReportMetric(maxDev, "max_dev_bits")
}

// BenchmarkTheorem3 verifies the mean-only property of uniform strategies
// with lower bound ≥ 3 across the support and reports the worst deviation.
func BenchmarkTheorem3(b *testing.B) {
	e, err := events.New(100, 1)
	if err != nil {
		b.Fatal(err)
	}
	var maxDev float64
	for i := 0; i < b.N; i++ {
		maxDev = 0
		for mean := 5; mean <= 45; mean += 5 {
			want, err := theory.MeanOnlyC1(100, float64(mean))
			if err != nil {
				b.Fatal(err)
			}
			for a := 3; a <= mean; a += 4 {
				u, err := dist.NewUniform(a, 2*mean-a)
				if err != nil {
					b.Fatal(err)
				}
				got, err := e.AnonymityDegree(u)
				if err != nil {
					b.Fatal(err)
				}
				if d := math.Abs(got - want); d > maxDev {
					maxDev = d
				}
			}
		}
	}
	b.ReportMetric(maxDev, "max_dev_bits")
}

// BenchmarkSystemsSurvey evaluates the §2 system presets exactly and
// reports the spread between the best and worst surveyed strategy.
func BenchmarkSystemsSurvey(b *testing.B) {
	e, err := events.New(100, 1)
	if err != nil {
		b.Fatal(err)
	}
	remailer, err := pathsel.Remailer(4)
	if err != nil {
		b.Fatal(err)
	}
	strats := []pathsel.Strategy{
		pathsel.Anonymizer(), pathsel.LPWA(), pathsel.Freedom(),
		pathsel.PipeNet(), pathsel.OnionRoutingI(), remailer,
	}
	var best, worst float64
	for i := 0; i < b.N; i++ {
		best, worst = math.Inf(-1), math.Inf(1)
		for _, s := range strats {
			h, err := e.AnonymityDegree(s.Length)
			if err != nil {
				b.Fatal(err)
			}
			if h > best {
				best = h
			}
			if h < worst {
				worst = h
			}
		}
	}
	b.ReportMetric(best-worst, "survey_spread_bits")
}

// BenchmarkTestbedAgreement runs the goroutine testbed end to end and
// reports |empirical − exact| for the anonymity degree.
func BenchmarkTestbedAgreement(b *testing.B) {
	const n, trials = 14, 1500
	compromised := []trace.NodeID{2, 7, 11}
	u, err := dist.NewUniform(0, 6)
	if err != nil {
		b.Fatal(err)
	}
	strat := pathsel.Strategy{Name: "U(0,6)", Length: u, Kind: pathsel.Simple}
	engine, err := events.New(n, len(compromised))
	if err != nil {
		b.Fatal(err)
	}
	exact, err := engine.AnonymityDegree(u)
	if err != nil {
		b.Fatal(err)
	}
	analyst, err := adversary.NewAnalyst(engine, u, compromised)
	if err != nil {
		b.Fatal(err)
	}
	sel, err := pathsel.NewSelector(n, strat)
	if err != nil {
		b.Fatal(err)
	}
	var delta float64
	for i := 0; i < b.N; i++ {
		nw, err := simnet.New(simnet.Config{N: n, Compromised: compromised})
		if err != nil {
			b.Fatal(err)
		}
		nw.Start()
		rng := stats.NewRand(int64(i) + 1)
		senders := make(map[trace.MessageID]trace.NodeID, trials)
		for t := 0; t < trials; t++ {
			sender := trace.NodeID(rng.Intn(n))
			path, err := sel.SelectPath(rng, sender)
			if err != nil {
				b.Fatal(err)
			}
			id, err := nw.SendRoute(sender, path, nil)
			if err != nil {
				b.Fatal(err)
			}
			senders[id] = sender
		}
		if err := nw.WaitSettled(time.Minute); err != nil {
			b.Fatal(err)
		}
		var sum stats.Summary
		for id, mt := range trace.Collate(nw.Tuples()) {
			if analyst.Compromised(senders[id]) {
				sum.Add(0)
				continue
			}
			post, err := analyst.Posterior(mt)
			if err != nil {
				b.Fatal(err)
			}
			sum.Add(post.H)
		}
		nw.Close()
		delta = math.Abs(sum.Mean() - exact)
	}
	b.ReportMetric(delta, "emp_vs_exact_bits")
	b.ReportMetric(float64(trials), "messages")
}

// BenchmarkAblationInference compares the fixed-length peak location under
// the standard adversary and the full-position oracle (DESIGN.md §2).
func BenchmarkAblationInference(b *testing.B) {
	peak := func(mode events.InferenceMode) (int, float64) {
		e, err := events.New(100, 1, events.WithInference(mode))
		if err != nil {
			b.Fatal(err)
		}
		bestL, bestH := 0, math.Inf(-1)
		for l := 1; l <= 99; l++ {
			f, err := dist.NewFixed(l)
			if err != nil {
				b.Fatal(err)
			}
			h, err := e.AnonymityDegree(f)
			if err != nil {
				b.Fatal(err)
			}
			if h > bestH {
				bestH, bestL = h, l
			}
		}
		return bestL, bestH
	}
	var stdL, posL int
	for i := 0; i < b.N; i++ {
		stdL, _ = peak(events.InferenceStandard)
		posL, _ = peak(events.InferenceFullPosition)
	}
	b.ReportMetric(float64(stdL), "peak_standard_l")
	b.ReportMetric(float64(posL), "peak_fullposition_l")
}

// BenchmarkAblationCompromiseSweep reports how the anonymity degree of the
// Onion Routing I strategy decays as the number of compromised nodes grows.
func BenchmarkAblationCompromiseSweep(b *testing.B) {
	var h1, h8 float64
	for i := 0; i < b.N; i++ {
		for _, c := range []int{1, 2, 4, 8} {
			e, err := events.New(100, c)
			if err != nil {
				b.Fatal(err)
			}
			h, err := e.AnonymityDegree(pathsel.OnionRoutingI().Length)
			if err != nil {
				b.Fatal(err)
			}
			switch c {
			case 1:
				h1 = h
			case 8:
				h8 = h
			}
		}
	}
	b.ReportMetric(h1-h8, "decay_c1_to_c8_bits")
}

// BenchmarkAblationLargeC regenerates the large-C figure (anonymity vs
// compromised fraction at N ∈ {100, 1000}) and reports the normalized
// anonymity remaining at 50% corruption of the large system.
func BenchmarkAblationLargeC(b *testing.B) {
	fig := benchFigure(b, figures.AblationLargeC)
	s := fig.Series[len(fig.Series)-1]
	b.ReportMetric(s.Y[len(s.Y)-1], "norm_H*_at_half_N1000")
}

// BenchmarkDegreeLargeC measures one cold exact evaluation far beyond the
// old enumeration cap: N = 1000, C = 400 (40% corruption), U(2,20). A
// fresh engine per iteration keeps the memo out of the measurement.
func BenchmarkDegreeLargeC(b *testing.B) {
	u, err := dist.NewUniform(2, 20)
	if err != nil {
		b.Fatal(err)
	}
	var h float64
	for i := 0; i < b.N; i++ {
		e, err := events.New(1000, 400)
		if err != nil {
			b.Fatal(err)
		}
		if h, err = e.AnonymityDegree(u); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(h, "H*_bits")
}

// BenchmarkWeightsLargeC measures building the optimizer's bucketed weight
// decomposition at N = 1000, C = 400 over the U(2,20) support range.
func BenchmarkWeightsLargeC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e, err := events.New(1000, 400)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Weights(0, 20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDegreeBucketed times a fresh engine's first AnonymityDegree,
// its shape-group table built and folded, at N = 100 for C from 8 to 64.
func BenchmarkDegreeBucketed(b *testing.B) {
	u, err := dist.NewUniform(2, 20)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []int{8, 10, 12, 32, 64} {
		b.Run(fmt.Sprintf("C=%d", c), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e, err := events.New(100, c)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := e.AnonymityDegree(u); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineEval measures a single exact H*(S) evaluation (N=100,
// C=1, full-support uniform) — the optimizer's inner-loop cost.
func BenchmarkEngineEval(b *testing.B) {
	e, err := events.New(100, 1)
	if err != nil {
		b.Fatal(err)
	}
	u, err := dist.NewUniform(0, 99)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.AnonymityDegree(u); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineEvalC8 measures the exact engine with a large class space
// (C=8: ~9.8k observation classes).
func BenchmarkEngineEvalC8(b *testing.B) {
	e, err := events.New(100, 8)
	if err != nil {
		b.Fatal(err)
	}
	u, err := dist.NewUniform(0, 99)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.AnonymityDegree(u); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWeights measures building the per-class weight vectors the
// optimizer consumes (N=100, C=8: ~9.8k observation classes over the full
// length range).
func BenchmarkWeights(b *testing.B) {
	e, err := events.New(100, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Weights(0, 99); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizer measures a full mean-constrained Maximize solve.
func BenchmarkOptimizer(b *testing.B) {
	e, err := events.New(100, 1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := optimize.Maximize(optimize.Problem{
			Engine: e, Lo: 0, Hi: 99, Mean: 10,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonteCarlo measures the sampling estimator's throughput
// through scenario.Run.
func BenchmarkMonteCarlo(b *testing.B) {
	strat, err := pathsel.UniformLength(0, 10)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scenario.Run(scenario.Config{
			N: 50, Backend: scenario.BackendMonteCarlo, Strategy: strat,
			Adversary: scenario.Adversary{Compromised: []trace.NodeID{3, 11, 29}},
			Workload:  scenario.Workload{Messages: 10000, Seed: int64(i), Workers: 4},
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(10000, "trials/op")
}

// BenchmarkTestbedThroughput measures raw event-kernel message throughput
// with 5-hop routes on one long-lived network.
func BenchmarkTestbedThroughput(b *testing.B) {
	nw, err := simnet.New(simnet.Config{N: 64, Compromised: []trace.NodeID{1, 2}})
	if err != nil {
		b.Fatal(err)
	}
	nw.Start()
	defer nw.Close()
	route := []trace.NodeID{5, 9, 13, 17, 21}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nw.SendRoute(0, route, nil); err != nil {
			b.Fatal(err)
		}
		if i%1024 == 1023 {
			if err := nw.WaitSettled(time.Minute); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := nw.WaitSettled(time.Minute); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkOnionBuildPeel measures building and fully peeling a 5-layer
// onion.
func BenchmarkOnionBuildPeel(b *testing.B) {
	kr, err := onion.NewKeyRing([]byte("bench ring"), 32)
	if err != nil {
		b.Fatal(err)
	}
	route := []trace.NodeID{3, 7, 11, 19, 23}
	payload := make([]byte, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob, err := onion.Build(kr, route, payload, rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		for _, hop := range route {
			_, blob, err = onion.Peel(kr, hop, blob)
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkDegradation measures the repeated-communication experiment:
// Bayesian accumulation until 90%-confidence identification, reporting the
// mean number of messages the sender survives.
func BenchmarkDegradation(b *testing.B) {
	strat, err := pathsel.UniformLength(1, 7)
	if err != nil {
		b.Fatal(err)
	}
	var rounds float64
	for i := 0; i < b.N; i++ {
		res, err := degrade.Run(degrade.Config{
			N: 20, Compromised: []trace.NodeID{3, 11}, Strategy: strat,
			Sender: 7, Confidence: 0.9, MaxRounds: 200, Trials: 20, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		rounds = res.MeanRounds
	}
	b.ReportMetric(rounds, "mean_rounds_to_id")
}

// BenchmarkDegradationRounds measures the scenario layer's multi-round
// degradation path (Workload.Rounds) on the Monte-Carlo backend — the hot
// path behind the degradation figure and the degrade façade — and reports
// the first- and final-round anonymity of the curve.
func BenchmarkDegradationRounds(b *testing.B) {
	cfg := scenario.Config{
		N:            50,
		Backend:      scenario.BackendMonteCarlo,
		StrategySpec: "uniform:1,7",
		Adversary:    scenario.Adversary{Count: 3},
		Workload:     scenario.Workload{Messages: 1500, Rounds: 16, Seed: 1, Workers: 4},
	}
	// Warm the engine caches so the allocation budget below measures the
	// steady-state sampling loop, not first-run memoization.
	if _, err := scenario.Run(cfg); err != nil {
		b.Fatal(err)
	}
	var h1, hk float64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := scenario.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		h1, hk = res.HRounds[0], res.HRounds[15]
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	allocsPerOp := float64(after.Mallocs-before.Mallocs) / float64(b.N)
	b.ReportMetric(allocsPerOp, "trial_allocs/op")
	// The pre-arena hot loop spent ~366k allocations per op; the zero-
	// allocation fast path must stay two orders of magnitude below that.
	if allocsPerOp > 3660 {
		b.Fatalf("sampling fast path regressed: %.0f allocs/op, budget 3660 (seed baseline ~366000)", allocsPerOp)
	}
	b.ReportMetric(h1, "H1_bits")
	b.ReportMetric(hk, "H16_bits")
	b.ReportMetric(h1-hk, "decay_bits")
}

// BenchmarkMCTrialsPerSecond is the headline sampling-throughput number:
// one op estimates single-shot anonymity from 5000 Monte-Carlo trials, and
// the metric reports raw trials per second through the arena fast path.
func BenchmarkMCTrialsPerSecond(b *testing.B) {
	const trials = 5000
	strat, err := pathsel.UniformLength(1, 7)
	if err != nil {
		b.Fatal(err)
	}
	cfg := scenario.Config{
		N:         50,
		Backend:   scenario.BackendMonteCarlo,
		Strategy:  strat,
		Adversary: scenario.Adversary{Compromised: []trace.NodeID{3, 11, 27}},
		Workload:  scenario.Workload{Messages: trials, Seed: 1, Workers: 4},
	}
	if _, err := scenario.Run(cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var h float64
	for i := 0; i < b.N; i++ {
		res, err := scenario.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		h = res.H
	}
	b.ReportMetric(float64(b.N)*trials/b.Elapsed().Seconds(), "trials/s")
	b.ReportMetric(h, "H_bits")
}

// BenchmarkChurnSweep measures the dynamic-population figure: three
// canonical churn timelines (grow, shrink, creeping compromise) on the
// Monte-Carlo backend, sessions accumulating across epoch boundaries
// through the spike/slab accumulator's phases, at the shared pool's
// width. The reported metrics are
// the horizon anonymity of the growth and creep dynamics — the spread
// between them is the cost of a time-phased adversary.
func BenchmarkChurnSweep(b *testing.B) {
	var growEnd, creepEnd float64
	for i := 0; i < b.N; i++ {
		fig, err := figures.ChurnSweep(30, 3, 400, 1, []string{"uniform:1,7"})
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range fig.Series {
			switch s.Label {
			case "uniform:1,7/grow":
				growEnd = s.Y[len(s.Y)-1]
			case "uniform:1,7/creep":
				creepEnd = s.Y[len(s.Y)-1]
			}
		}
	}
	b.ReportMetric(growEnd, "grow_H12_bits")
	b.ReportMetric(creepEnd, "creep_H12_bits")
	b.ReportMetric(growEnd-creepEnd, "creep_cost_bits")
}

// BenchmarkCrowdsDegradation measures the predecessor-counting attack
// across path reformations.
func BenchmarkCrowdsDegradation(b *testing.B) {
	var share float64
	for i := 0; i < b.N; i++ {
		res, err := degrade.CrowdsDegradation(30, 3, 0.75, 100, 200, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		share = res.IdentifiedShare
	}
	b.ReportMetric(share, "identified_share_100r")
}

// BenchmarkPoolMixLinkage measures the pool-mix departure-round entropy
// simulation.
func BenchmarkPoolMixLinkage(b *testing.B) {
	var h float64
	for i := 0; i < b.N; i++ {
		res, err := mixbatch.SimulatePoolLinkage(8, 4, 100, 20, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		h = res.DepartureRoundEntropy
	}
	b.ReportMetric(h, "departure_entropy_bits")
}

// BenchmarkPosterior measures one adversary inference (classification +
// Bayes + posterior construction).
func BenchmarkPosterior(b *testing.B) {
	engine, err := events.New(100, 3)
	if err != nil {
		b.Fatal(err)
	}
	u, err := dist.NewUniform(0, 20)
	if err != nil {
		b.Fatal(err)
	}
	compromised := []trace.NodeID{10, 20, 30}
	analyst, err := adversary.NewAnalyst(engine, u, compromised)
	if err != nil {
		b.Fatal(err)
	}
	path := []trace.NodeID{4, 10, 55, 20, 30, 61, 77}
	mt := montecarlo.Synthesize(1, 9, path, analyst.Compromised)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analyst.Posterior(mt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenarioMillionNodes drives the full scenario stack — sharded
// event kernel, sparse path selection, O(1)-per-message adversarial
// analysis — at N = 1,000,000 nodes with 1,000 messages per iteration,
// and reports kernel throughput.
func BenchmarkScenarioMillionNodes(b *testing.B) {
	var events, perSec float64
	for i := 0; i < b.N; i++ {
		res, err := scenario.Run(scenario.Config{
			N:            1_000_000,
			Backend:      scenario.BackendTestbed,
			StrategySpec: "uniform:1,7",
			Adversary:    scenario.Adversary{Count: 1000},
			Workload:     scenario.Workload{Messages: 1000, Seed: int64(i) + 1},
		})
		if err != nil {
			b.Fatal(err)
		}
		events = float64(res.Kernel.Events)
		perSec = res.Kernel.EventsPerSec
	}
	b.ReportMetric(events, "events/op")
	b.ReportMetric(perSec, "events/s")
}

// BenchmarkTimelineExactDelta pits the delta engine path against fresh
// construction on a timeline-scale workload: a 32-epoch population drift
// at N ≈ 10^5 with C = 0.4N, evaluating U(2,20) exactly at every epoch.
// The delta chain derives each epoch's engine from its predecessor
// (events.Engine.Neighbor), sharing one family of shape tables across the
// whole timeline; the fresh path builds a new engine, and so a new
// family's table, per epoch. Both fold the same groups, so their answers
// are bit-identical, and their ratio is what sharing the table saves. Both
// are timed inside the iteration and reported per epoch, plus the ratio.
func BenchmarkTimelineExactDelta(b *testing.B) {
	const (
		baseN  = 100_000
		baseC  = 40_000
		epochs = 32
	)
	u, err := dist.NewUniform(2, 20)
	if err != nil {
		b.Fatal(err)
	}
	base, err := events.New(baseN, baseC)
	if err != nil {
		b.Fatal(err)
	}
	step := func(k int) (int, int) { // dn, dc for epoch k: N drifts up, C every 4th
		if k%4 == 3 {
			return 1, 1
		}
		return 1, 0
	}
	var freshNS, deltaNS float64
	var hDelta, hFresh float64
	for i := 0; i < b.N; i++ {
		start := time.Now()
		e := base
		for k := 0; k < epochs; k++ {
			dn, dc := step(k)
			if e, err = e.Neighbor(dn, dc); err != nil {
				b.Fatal(err)
			}
			if hDelta, err = e.AnonymityDegree(u); err != nil {
				b.Fatal(err)
			}
		}
		deltaNS = float64(time.Since(start).Nanoseconds()) / epochs

		start = time.Now()
		n, c := baseN, baseC
		for k := 0; k < epochs; k++ {
			dn, dc := step(k)
			n, c = n+dn, c+dc
			f, err := events.New(n, c)
			if err != nil {
				b.Fatal(err)
			}
			if hFresh, err = f.AnonymityDegree(u); err != nil {
				b.Fatal(err)
			}
		}
		freshNS = float64(time.Since(start).Nanoseconds()) / epochs
	}
	if math.Float64bits(hDelta) != math.Float64bits(hFresh) {
		b.Fatalf("final epoch disagrees: delta %v, fresh %v", hDelta, hFresh)
	}
	b.ReportMetric(freshNS, "fresh_ns/epoch")
	b.ReportMetric(deltaNS, "delta_ns/epoch")
	b.ReportMetric(freshNS/deltaNS, "speedup_x")
}

// BenchmarkMaximizeTimeline measures the epoch-aware solver on a
// mean-constrained 9-epoch drift: a cold first epoch, warm starts after,
// then the joint blended solve. Reports the blended anonymity of both
// policies, the total per-epoch iterations and the largest certified gap
// of the ten solves.
func BenchmarkMaximizeTimeline(b *testing.B) {
	base, err := events.New(60, 2)
	if err != nil {
		b.Fatal(err)
	}
	p := optimize.TimelineProblem{Lo: 0, Hi: 30, Mean: 12}
	e := base
	for k := 0; ; k++ {
		p.Epochs = append(p.Epochs, optimize.EpochProblem{Engine: e, Weight: 1})
		if k == 8 {
			break
		}
		dc := 0
		if k%3 == 2 {
			dc = 1
		}
		if e, err = e.Neighbor(1, dc); err != nil {
			b.Fatal(err)
		}
	}
	var res optimize.TimelineResult
	for i := 0; i < b.N; i++ {
		if res, err = optimize.MaximizeTimeline(p); err != nil {
			b.Fatal(err)
		}
	}
	var iters int
	gap := res.Joint.Gap
	for _, r := range res.PerEpoch {
		iters += r.Iterations
		gap = max(gap, r.Gap)
	}
	b.ReportMetric(float64(iters), "perepoch_iters")
	b.ReportMetric(gap, "gap_bits")
	b.ReportMetric(res.PerEpochH, "perepoch_H_bits")
	b.ReportMetric(res.Joint.H, "joint_H_bits")
}

// BenchmarkScenarioBackends runs one small scenario on each backend.
func BenchmarkScenarioBackends(b *testing.B) {
	for _, kind := range []scenario.BackendKind{
		scenario.BackendExact, scenario.BackendMonteCarlo, scenario.BackendTestbed,
	} {
		b.Run(string(kind), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := scenario.Run(scenario.Config{
					N:            100,
					Backend:      kind,
					StrategySpec: "uniform:0,10",
					Adversary:    scenario.Adversary{Count: 3},
					Workload:     scenario.Workload{Messages: 2000, Seed: 1, Workers: 4},
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReliabilitySweep regenerates the reliability figure — the
// testbed kernel across loss rates × delivery policies with retry-leak
// analysis per point — and reports the headline trade-off at the highest
// loss rate: reroute's delivery next to its retry-anonymity cost.
func BenchmarkReliabilitySweep(b *testing.B) {
	var delivery, cost float64
	for i := 0; i < b.N; i++ {
		fig, err := figures.ReliabilitySweep(20, 3, 1000, 1, []float64{0, 0.05, 0.2}, []string{"uniform:1,5"})
		if err != nil {
			b.Fatal(err)
		}
		series := map[string][]float64{}
		for _, s := range fig.Series {
			series[s.Label] = s.Y
		}
		h := series["uniform:1,5/reroute/H"]
		hd := series["uniform:1,5/reroute/Hdeg"]
		d := series["uniform:1,5/reroute/delivery"]
		last := len(d) - 1
		delivery, cost = d[last], h[last]-hd[last]
	}
	b.ReportMetric(delivery, "reroute_delivery_q20")
	b.ReportMetric(cost, "retry_cost_bits_q20")
}

// BenchmarkLossyChurnMillion drives the fault-injection layer at scale: a
// two-epoch churn timeline (a thousand joins, a hundred fresh
// compromises) over N = 1,000,000 nodes with 5% link loss, a mid-run
// crash outage, and the retransmit policy — the sharded kernel, the loss
// process, the retry-observation analysis, and the union-space churn
// accounting all in one run. Reports kernel throughput (the last
// iteration's wall-clock rate) and the delivery rate and attempts per
// message of the seed-1 run, which do not depend on b.N.
func BenchmarkLossyChurnMillion(b *testing.B) {
	timeline, err := scenario.ParseTimeline("msgs=500;msgs=500,join=1000,comp=100")
	if err != nil {
		b.Fatal(err)
	}
	var perSec, delivery, attempts float64
	for i := 0; i < b.N; i++ {
		res, err := scenario.Run(scenario.Config{
			N:            1_000_000,
			Backend:      scenario.BackendTestbed,
			StrategySpec: "uniform:1,7",
			Adversary:    scenario.Adversary{Count: 1000},
			Timeline:     timeline,
			Faults: &faults.Plan{
				LinkLoss: 0.05,
				Crashes:  []faults.Crash{{Node: 1234, At: 50, Recover: 500}},
			},
			Reliability: faults.Reliability{Policy: faults.PolicyRetransmit},
			Workload:    scenario.Workload{Seed: int64(i) + 1},
		})
		if err != nil {
			b.Fatal(err)
		}
		perSec = res.Kernel.EventsPerSec
		if i == 0 {
			delivery, attempts = res.DeliveryRate, res.MeanAttempts
		}
	}
	b.ReportMetric(perSec, "events/s")
	b.ReportMetric(delivery, "delivery_rate")
	b.ReportMetric(attempts, "attempts/msg")
}
