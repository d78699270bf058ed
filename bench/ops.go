package main

// In-process execution of operations and the checks every result must
// pass. The config conversion mirrors the daemon's (internal/anond), so an
// operation means the same thing in-process and over HTTP.

import (
	"fmt"
	"math"

	"anonmix/internal/anond"
	"anonmix/internal/events"
	"anonmix/internal/faults"
	"anonmix/internal/optimize"
	"anonmix/internal/pathsel"
	"anonmix/internal/scenario"
	"anonmix/internal/trace"
)

// config materializes a wire request as a scenario.Config.
func config(req *anond.ScenarioRequest) (scenario.Config, error) {
	cfg := scenario.Config{
		N:            req.N,
		StrategySpec: req.Strategy,
		CrowdsPf:     req.CrowdsPf,
		Adversary: scenario.Adversary{
			Count:                 req.Compromised,
			UncompromisedReceiver: req.UncompromisedReceiver,
			NoSenderSelfReport:    req.NoSenderSelfReport,
		},
		Workload: scenario.Workload{
			Messages:    req.Messages,
			Rounds:      req.Rounds,
			Confidence:  req.Confidence,
			FixedSender: req.FixedSender,
			Sender:      trace.NodeID(req.Sender),
			Seed:        req.Seed,
			Workers:     req.Workers,
		},
	}
	var err error
	if req.Backend != "" {
		if cfg.Backend, err = scenario.ParseBackend(req.Backend); err != nil {
			return cfg, err
		}
	}
	if req.Protocol != "" {
		if cfg.Protocol, err = scenario.ParseProtocol(req.Protocol); err != nil {
			return cfg, err
		}
	}
	if cfg.Timeline, err = scenario.ParseTimeline(req.Timeline); err != nil {
		return cfg, err
	}
	if req.Faults != "" {
		if cfg.Faults, err = faults.ParseFaults(req.Faults); err != nil {
			return cfg, err
		}
	}
	if req.Policy != "" {
		pol, err := faults.ParsePolicy(req.Policy)
		if err != nil {
			return cfg, err
		}
		cfg.Reliability = faults.Reliability{Policy: pol, MaxAttempts: req.MaxAttempts}
	}
	return cfg, nil
}

// runInProcess runs a wire request with scenario.Run.
func runInProcess(req *anond.ScenarioRequest) (scenario.Result, error) {
	cfg, err := config(req)
	if err != nil {
		return scenario.Result{}, err
	}
	return scenario.Run(cfg)
}

// solution is the outcome of an optimizer operation.
type solution struct {
	H          float64
	Iterations int
	// Evaluated is the objective recomputed at the returned distribution.
	Evaluated float64
}

// solve runs an optimizer operation the way the daemon does: engines from
// the shared cache, Maximize for a static problem, MaximizeTimeline when
// epochs are given.
func solve(req *anond.OptimizeRequest) (solution, error) {
	mean := optimize.UnconstrainedMean()
	if req.Mean != nil {
		mean = *req.Mean
	}
	if req.Epochs == "" {
		e, err := scenario.Engine(req.N, req.C)
		if err != nil {
			return solution{}, err
		}
		res, err := optimize.Maximize(optimize.Problem{Engine: e, Lo: req.Lo, Hi: req.Hi, Mean: mean})
		if err != nil {
			return solution{}, err
		}
		h, err := e.AnonymityDegree(res.Dist)
		return solution{H: res.H, Iterations: res.Iterations, Evaluated: h}, err
	}
	timeline, err := scenario.ParseTimeline(req.Epochs)
	if err != nil {
		return solution{}, err
	}
	states, err := scenario.TimelineStates(req.N, req.C, timeline)
	if err != nil {
		return solution{}, err
	}
	tp := optimize.TimelineProblem{Lo: req.Lo, Hi: req.Hi, Mean: mean}
	for _, st := range states {
		e, err := scenario.Engine(st.N, st.C)
		if err != nil {
			return solution{}, err
		}
		tp.Epochs = append(tp.Epochs, optimize.EpochProblem{Engine: e, Weight: st.Weight})
	}
	res, err := optimize.MaximizeTimeline(tp)
	if err != nil {
		return solution{}, err
	}
	iters := res.Joint.Iterations
	for _, r := range res.PerEpoch {
		iters += r.Iterations
	}
	h, err := optimize.EvaluateTimeline(tp, res.Joint.Dist)
	return solution{H: res.Joint.H, Iterations: iters, Evaluated: h}, err
}

// maxPopulation is the largest population a scenario ever has: its base
// size plus every joiner.
func maxPopulation(req *anond.ScenarioRequest) int {
	n := req.N
	timeline, err := scenario.ParseTimeline(req.Timeline)
	if err != nil {
		return n
	}
	for _, e := range timeline {
		n += e.Join
	}
	return n
}

// tolerance is the slack of the invariant checks for float rounding.
const tolerance = 1e-9

// checkResult verifies the invariants every scenario result must satisfy:
// 0 ≤ H ≤ MaxH ≤ log2 N, HDegraded ≤ H, and, for rerouting at a loss rate
// of at most 5%, a delivery rate of at least 0.99.
func checkResult(req *anond.ScenarioRequest, h, maxH, hDegraded, delivery float64) error {
	bound := math.Log2(float64(maxPopulation(req)))
	switch {
	case !(h >= -tolerance && h <= maxH+tolerance):
		return fmt.Errorf("H = %v outside [0, MaxH = %v]", h, maxH)
	case maxH > bound+tolerance:
		return fmt.Errorf("MaxH = %v above log2 N = %v", maxH, bound)
	case hDegraded > h+tolerance:
		return fmt.Errorf("HDegraded = %v above H = %v", hDegraded, h)
	}
	if req.Policy == "reroute" && req.Faults != "" {
		plan, err := faults.ParseFaults(req.Faults)
		if err == nil && plan.LinkLoss <= 0.05 && delivery < 0.99 {
			return fmt.Errorf("reroute delivered %v < 0.99 at loss %v", delivery, plan.LinkLoss)
		}
	}
	return nil
}

// checkSolution verifies an optimizer outcome: the optimum lies in
// [0, log2 N] and is the objective at the distribution returned.
func checkSolution(req *anond.OptimizeRequest, s solution) error {
	if !(s.H >= -tolerance && s.H <= math.Log2(float64(req.N))+tolerance) {
		return fmt.Errorf("optimum H = %v outside [0, log2 %d]", s.H, req.N)
	}
	if math.Abs(s.Evaluated-s.H) > tolerance*max(1, s.H) {
		return fmt.Errorf("optimum H = %v but its distribution evaluates to %v", s.H, s.Evaluated)
	}
	return nil
}

// freshExact recomputes an exact single-shot result with fresh engines that
// bypass the shared cache and its delta derivations: one events.New per
// epoch, blended by traffic weight as the exact backend blends them.
func freshExact(req *anond.ScenarioRequest) (float64, error) {
	strategy, err := pathsel.Lookup(req.Strategy)
	if err != nil {
		return 0, err
	}
	var opts []events.Option
	if req.UncompromisedReceiver {
		opts = append(opts, events.WithUncompromisedReceiver())
	}
	timeline, err := scenario.ParseTimeline(req.Timeline)
	if err != nil {
		return 0, err
	}
	states := []scenario.EpochState{{N: req.N, C: req.Compromised, Weight: 1}}
	if timeline != nil {
		if states, err = scenario.TimelineStates(req.N, req.Compromised, timeline); err != nil {
			return 0, err
		}
	}
	var h float64
	for _, st := range states {
		if st.Weight == 0 {
			continue
		}
		e, err := events.New(st.N, st.C, opts...)
		if err != nil {
			return 0, err
		}
		he, err := e.AnonymityDegree(strategy.Length)
		if err != nil {
			return 0, err
		}
		h += st.Weight * he
	}
	return h, nil
}

// exactReference is the exact-backend form of a sampled single-shot
// scenario: the same population, adversary, strategy and loss rate. The
// threshold mix has the plain substrate's observable structure, so its
// reference is the plain one.
func exactReference(req *anond.ScenarioRequest) anond.ScenarioRequest {
	ref := anond.ScenarioRequest{N: req.N, Strategy: req.Strategy, Compromised: req.Compromised,
		UncompromisedReceiver: req.UncompromisedReceiver, Faults: req.Faults, Policy: req.Policy}
	if req.Protocol == "onion" {
		ref.Protocol = "onion"
	}
	return ref
}

// sigmaCheckable reports whether a sampled result has an exact reference
// to lie within a few standard errors of: single-shot Monte-Carlo runs,
// and static testbed runs that are lossless or lose without retrying and
// without crashes.
func sigmaCheckable(req *anond.ScenarioRequest) bool {
	if req.Backend != "mc" && req.Backend != "testbed" {
		return false
	}
	if req.Rounds > 1 || req.Confidence > 0 || req.FixedSender || req.Timeline != "" {
		return false
	}
	return req.Policy == "" || req.Policy == "none" && !containsCrash(req.Faults)
}

func containsCrash(plan string) bool {
	p, err := faults.ParseFaults(plan)
	return err == nil && len(p.Crashes) > 0
}

// estimate is a sampled result awaiting its exact reference.
type estimate struct {
	req    *anond.ScenarioRequest
	h, err float64
	trials int
}

// sigmaChecks compares estimates with their exact references after the
// timed phase. The band is the 4σ band shared across all len(ests) checks
// (see sigmaBand). It returns the number of estimates outside the band.
//
// σ adds to the reported standard error the variance of the
// compromised-sender branch: a sender is compromised with probability
// p = C/N and then contributes zero entropy, so with a few hundred
// messages and p ≈ 0.1% a run often sees no such sender, reports a
// near-zero standard error, and sits p·H above the exact value.
func sigmaChecks(ests []estimate, report func(string)) (int, error) {
	band := sigmaBand(len(ests))
	var bad int
	for _, e := range ests {
		ref := exactReference(e.req)
		exact, err := runInProcess(&ref)
		if err != nil {
			return bad, fmt.Errorf("exact reference for %+v: %w", *e.req, err)
		}
		p := float64(e.req.Compromised) / float64(e.req.N)
		sigma := math.Sqrt(e.err*e.err + exact.H*exact.H*p*(1-p)/float64(max(e.trials, 1)))
		if d := math.Abs(e.h - exact.H); d > band*sigma+tolerance {
			bad++
			report(fmt.Sprintf("estimate %v (σ %v) is %.1fσ from exact %v (band %.2fσ) for %+v",
				e.h, sigma, d/sigma, exact.H, band, *e.req))
		}
	}
	return bad, nil
}
