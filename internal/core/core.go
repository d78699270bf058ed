// Package core is the public face of the library: it ties the exact
// anonymity-degree engine, the path-selection strategy catalog, the
// optimizer, and the Monte-Carlo estimator together behind one System
// type, mirroring the workflow of Guan et al. (ICDCS 2002):
//
//	sys, _ := core.NewSystem(100, 1)             // N nodes, C compromised
//	h, _ := sys.AnonymityDegree(pathsel.Freedom()) // H*(S) of a strategy
//	best, _ := sys.OptimalStrategy(10)            // §5.4 optimal distribution
//
// All computations are exact unless explicitly labeled as estimates.
package core

import (
	"fmt"
	"sort"

	"anonmix/internal/dist"
	"anonmix/internal/entropy"
	"anonmix/internal/events"
	"anonmix/internal/optimize"
	"anonmix/internal/pathsel"
	"anonmix/internal/scenario"
	"anonmix/internal/scenario/capability"
	"anonmix/internal/trace"
)

// ErrComplicated reports a request for exact analysis of a cyclic-route
// strategy; exact analysis covers simple paths (use package crowds for the
// predecessor analysis of cyclic routes, or the testbed backend).
//
// It is an alias of the scenario layer's canonical capability sentinel, so
// errors.Is(err, core.ErrComplicated) and
// errors.Is(err, capability.ErrComplicatedPaths) are interchangeable.
var ErrComplicated = capability.ErrComplicatedPaths

// System models an anonymous communication system of N nodes, C of which
// are compromised, plus a compromised receiver — the paper's default
// threat model (options can relax it).
type System struct {
	engine *events.Engine
}

// NewSystem builds a system with the given node and compromised counts.
// Engine options (inference mode, receiver assumptions) are forwarded.
// Engines come from the scenario layer's process-wide cache, so every
// System, figure generator, and CLI sharing a configuration shares one
// memoizing engine.
func NewSystem(n, c int, opts ...events.Option) (*System, error) {
	e, err := scenario.Engine(n, c, opts...)
	if err != nil {
		return nil, err
	}
	return &System{engine: e}, nil
}

// N returns the number of nodes.
func (s *System) N() int { return s.engine.N() }

// C returns the number of compromised nodes.
func (s *System) C() int { return s.engine.C() }

// Engine exposes the underlying exact engine for advanced use.
func (s *System) Engine() *events.Engine { return s.engine }

// MaxAnonymity returns log2(N), the paper's upper bound (conclusion 4).
func (s *System) MaxAnonymity() float64 { return s.engine.MaxAnonymity() }

// AnonymityDegree returns the exact H*(S) for a strategy on simple paths.
func (s *System) AnonymityDegree(strat pathsel.Strategy) (float64, error) {
	if err := strat.Validate(s.N()); err != nil {
		return 0, err
	}
	if strat.Kind != pathsel.Simple {
		return 0, fmt.Errorf("%w: %s", ErrComplicated, strat.Name)
	}
	return s.engine.AnonymityDegree(strat.Length)
}

// AnonymityDegreeOf returns the exact H*(S) for a raw length distribution
// (simple paths).
func (s *System) AnonymityDegreeOf(d dist.Length) (float64, error) {
	return s.engine.AnonymityDegree(d)
}

// NormalizedDegree returns H*(S)/log2(N) ∈ [0,1].
func (s *System) NormalizedDegree(strat pathsel.Strategy) (float64, error) {
	h, err := s.AnonymityDegree(strat)
	if err != nil {
		return 0, err
	}
	return entropy.Normalized(h, s.N()), nil
}

// OptimalStrategy solves the paper's optimization problem (§5.4) for a
// target expected path length: it returns the strategy whose length
// distribution maximizes H*(S) among all distributions on [0, N−1] with
// that mean, together with the achieved anonymity degree.
func (s *System) OptimalStrategy(mean float64) (pathsel.Strategy, float64, error) {
	res, err := optimize.Maximize(optimize.Problem{
		Engine: s.engine,
		Lo:     0,
		Hi:     s.N() - 1,
		Mean:   mean,
	})
	if err != nil {
		return pathsel.Strategy{}, 0, err
	}
	strat, err := pathsel.WithLength(fmt.Sprintf("Optimal(mean=%g)", mean), res.Dist)
	if err != nil {
		return pathsel.Strategy{}, 0, err
	}
	return strat, res.H, nil
}

// GloballyOptimalStrategy solves the unconstrained problem: the best
// distribution on [0, N−1] regardless of expected path length (and hence
// of latency/bandwidth cost).
func (s *System) GloballyOptimalStrategy() (pathsel.Strategy, float64, error) {
	res, err := optimize.Maximize(optimize.Problem{
		Engine: s.engine,
		Lo:     0,
		Hi:     s.N() - 1,
		Mean:   optimize.UnconstrainedMean(),
	})
	if err != nil {
		return pathsel.Strategy{}, 0, err
	}
	strat, err := pathsel.WithLength("Optimal(unconstrained)", res.Dist)
	if err != nil {
		return pathsel.Strategy{}, 0, err
	}
	return strat, res.H, nil
}

// Comparison is one row of a strategy comparison.
type Comparison struct {
	// Strategy is the compared strategy.
	Strategy pathsel.Strategy
	// H is the exact anonymity degree (simple-path strategies) or the
	// Monte-Carlo estimate (complicated-path strategies, Estimated=true).
	H float64
	// Normalized is H/log2(N).
	Normalized float64
	// MeanLength is the strategy's expected path length (its latency and
	// bandwidth cost proxy).
	MeanLength float64
	// Estimated marks Monte-Carlo rows (±CI95).
	Estimated bool
	// CI95 is the 95% confidence half-width for estimated rows.
	CI95 float64
}

// CompareStrategies evaluates strategies side by side, sorted by
// descending anonymity degree. Simple-path strategies are computed
// exactly. Complicated-path strategies (Crowds, Onion Routing II) are
// approximated by running the Monte-Carlo estimator on the simple-path
// strategy sharing their length distribution — pass trials > 0 and the
// compromised node IDs to enable this; otherwise they are rejected with
// ErrComplicated. The cycles-vs-no-cycles substitution is documented in
// DESIGN.md §5; package crowds provides the dedicated cyclic-route
// predecessor analysis.
func (s *System) CompareStrategies(strats []pathsel.Strategy, compromised []trace.NodeID, trials int, seed int64) ([]Comparison, error) {
	out := make([]Comparison, 0, len(strats))
	for _, st := range strats {
		cmp := Comparison{Strategy: st, MeanLength: 0}
		if st.Length != nil {
			cmp.MeanLength = st.Length.Mean()
		}
		switch {
		case st.Kind == pathsel.Simple:
			h, err := s.AnonymityDegree(st)
			if err != nil {
				return nil, fmt.Errorf("core: comparing %s: %w", st.Name, err)
			}
			cmp.H = h
		case trials > 0:
			if len(compromised) != s.C() {
				return nil, fmt.Errorf("core: comparing %s: need %d compromised node IDs for estimation",
					st.Name, s.C())
			}
			// Complicated-path strategies are estimated with the
			// simple-path strategy that shares their length distribution;
			// the difference (cycles) is documented in DESIGN.md §5.
			approx := pathsel.Strategy{Name: st.Name, Length: st.Length, Kind: pathsel.Simple}
			res, err := scenario.Run(scenario.Config{
				N:         s.N(),
				Backend:   scenario.BackendMonteCarlo,
				Strategy:  approx,
				Adversary: scenario.Adversary{Compromised: compromised},
				Workload:  scenario.Workload{Messages: trials, Seed: seed},
			})
			if err != nil {
				return nil, fmt.Errorf("core: estimating %s: %w", st.Name, err)
			}
			cmp.H = res.H
			cmp.Estimated = true
			cmp.CI95 = res.CI95
		default:
			return nil, fmt.Errorf("core: comparing %s: %w",
				st.Name, capability.Unsupported("exact", ErrComplicated, "pass trials > 0 to estimate"))
		}
		cmp.Normalized = entropy.Normalized(cmp.H, s.N())
		out = append(out, cmp)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].H > out[j].H })
	return out, nil
}
