package main

// The in-process workloads: one closed-loop caller drives the public API
// (scenario.Run, optimize.Maximize, optimize.MaximizeTimeline) through a
// workload's operation list.

import (
	"fmt"
	"math"
	"time"

	"anonmix/internal/anond"
	"anonmix/internal/scenario"
)

// layerCounts are the per-layer counters a traced pass accumulates around
// its calls into the public API, and (for the daemon) from /v1/metrics.
type layerCounts struct {
	ops                int
	cache              scenario.EngineCacheStats // summed per-op deltas
	solves, iterations int
	// Testbed results: their kernel events and messages.
	kernelEvents uint64
	messages     int
	// Sums over scenario results, for the mean attempts and delivery rate.
	attempts, delivery float64
	results            int
	// Replays: time covered by the probes, against the time of the calls
	// they replay.
	mcCovered, mcRun             time.Duration
	kernel, analysis, testbedRun time.Duration
}

func (c *layerCounts) add(o layerCounts) {
	c.ops += o.ops
	c.cache.Hits += o.cache.Hits
	c.cache.Misses += o.cache.Misses
	c.cache.Evictions += o.cache.Evictions
	c.cache.DeltaDerived += o.cache.DeltaDerived
	c.solves += o.solves
	c.iterations += o.iterations
	c.kernelEvents += o.kernelEvents
	c.messages += o.messages
	c.attempts += o.attempts
	c.delivery += o.delivery
	c.results += o.results
	c.mcCovered += o.mcCovered
	c.mcRun += o.mcRun
	c.kernel += o.kernel
	c.analysis += o.analysis
	c.testbedRun += o.testbedRun
}

// report sets the per-layer metrics the counters give. Every count is per
// operation, per solve or per message, so a run that completes more work
// in its time does not read as doing more of it.
func (c layerCounts) report(rep *report) {
	ops := float64(c.ops)
	hits, misses, delta := float64(c.cache.Hits), float64(c.cache.Misses), float64(c.cache.DeltaDerived)
	rep.set("scenario.cache_hit_ratio", ratio(hits, hits+misses))
	rep.set("scenario.cache_misses_per_op", ratio(misses, ops))
	rep.set("scenario.cache_delta_share", ratio(delta, misses))
	rep.set("scenario.cache_evictions_per_op", ratio(float64(c.cache.Evictions), ops))
	rep.set("events.engine_fresh_per_op", ratio(misses-delta, ops))
	rep.set("optimize.iterations_per_solve", ratio(float64(c.iterations), float64(c.solves)))
	rep.set("simnet.events_per_msg", ratio(float64(c.kernelEvents), float64(c.messages)))
	rep.set("faults.attempts_per_msg", ratio(c.attempts, float64(c.results)))
	rep.set("faults.delivery_rate", ratio(c.delivery, float64(c.results)))
	rep.set("montecarlo.residual_share", 0)
	if c.mcRun > 0 {
		rep.set("montecarlo.residual_share", max(0, 1-float64(c.mcCovered)/float64(c.mcRun)))
	}
	rep.set("simnet.kernel_share", ratio(float64(c.kernel), float64(c.testbedRun)))
	rep.set("testbed.residual_share", 0)
	if c.testbedRun > 0 {
		rep.set("testbed.residual_share", max(0, 1-float64(c.kernel+c.analysis)/float64(c.testbedRun)))
	}
}

// noResult marks an operation that failed in a pass's results. Every
// result is an entropy, at least 0 once checked.
const noResult = -1.0

// libraryRun is the outcome of running an operation list in-process.
type libraryRun struct {
	latency   []time.Duration
	results   []float64 // H or the optimum of every op, in list order
	attempted int
	failed    int
	wall      time.Duration
	counts    layerCounts
	estimates []estimate
	verify    []verifyExact
}

// verifyExact is an exact result to recompute with fresh engines.
type verifyExact struct {
	req *anond.ScenarioRequest
	h   float64
}

// runLibrary executes an operation list, reporting each failure. With a
// recorder it records spans and replays sampled ops through the per-layer
// probes after they complete: outside their latency, inside the wall time.
// With a gauge it times calibration slices between ops, outside both.
func runLibrary(ops []Op, rec *recorder, m *gauge, problems func(string)) libraryRun {
	out := libraryRun{results: make([]float64, len(ops))}
	verified := map[*anond.ScenarioRequest]bool{}
	start := time.Now()
	var calibrating time.Duration
	for i, op := range ops {
		calibrating += m.tick()
		out.results[i] = noResult
		before := scenario.CacheStats()
		t0 := time.Now()
		root := rec.begin("op."+op.Class, 0, op.Index)
		call := rec.begin(apiName(op), root, op.Index)
		var res scenario.Result
		var sol solution
		var err error
		if op.Scenario != nil {
			res, err = runInProcess(op.Scenario)
		} else {
			sol, err = solve(op.Optimize)
		}
		rec.end(call)
		rec.end(root)
		lat := time.Since(t0)
		delta := scenario.CacheStats().Delta(before)
		out.attempted++
		if err == nil {
			if op.Scenario != nil {
				err = checkResult(op.Scenario, res.H, res.MaxH, res.HDegraded, res.DeliveryRate)
			} else {
				err = checkSolution(op.Optimize, sol)
			}
		}
		if err != nil {
			out.failed++
			problems(fmt.Sprintf("op %d (%s): %v", op.Index, op.Class, err))
			continue
		}
		out.latency = append(out.latency, lat)
		c := &out.counts
		c.ops++
		c.cache.Hits += delta.Hits
		c.cache.Misses += delta.Misses
		c.cache.Evictions += delta.Evictions
		c.cache.DeltaDerived += delta.DeltaDerived
		if op.Scenario == nil {
			out.results[i] = sol.H
			c.solves++
			c.iterations += sol.Iterations
			continue
		}
		out.results[i] = res.H
		req := op.Scenario
		c.attempts += res.MeanAttempts
		c.delivery += res.DeliveryRate
		c.results++
		if res.Kernel != nil {
			c.kernelEvents += res.Kernel.Events
			c.messages += res.Trials
		}
		if sigmaCheckable(req) {
			out.estimates = append(out.estimates, estimate{req: req, h: res.H, err: res.StdErr, trials: res.Trials})
		}
		if op.Verify && !verified[req] {
			verified[req] = true
			out.verify = append(out.verify, verifyExact{req: req, h: res.H})
		}
		if rec != nil {
			if err := replayOp(rec, op, res, c); err != nil {
				out.failed++
				problems(fmt.Sprintf("op %d (%s) replay: %v", op.Index, op.Class, err))
			}
		}
	}
	out.wall = time.Since(start) - calibrating
	return out
}

// apiName names the public call an op makes.
func apiName(op Op) string {
	switch {
	case op.Scenario != nil:
		return "scenario.Run"
	case op.Optimize.Epochs != "":
		return "optimize.MaximizeTimeline"
	default:
		return "optimize.Maximize"
	}
}

// replayOp splits a completed sampled op with the probes: a single-shot
// Monte-Carlo run against its replayed trial loop, a static testbed run
// against a direct kernel replay and its analysis.
func replayOp(rec *recorder, op Op, res scenario.Result, c *layerCounts) error {
	req := op.Scenario
	static := req.Timeline == "" && req.Rounds <= 1 && req.Confidence == 0 && !req.FixedSender
	switch {
	case req.Backend == "mc" && static:
		id := rec.begin("replay.trials", 0, op.Index)
		s, err := newSampling(req)
		if err != nil {
			return err
		}
		tc, err := s.trials(req.Seed, min(req.Messages, replayTrials))
		rec.end(id)
		if err != nil {
			return err
		}
		// The backend spreads the trials over its workers.
		c.mcCovered += time.Duration(tc.perTrial * float64(res.Trials) / float64(max(req.Workers, 1)))
		c.mcRun += res.Elapsed
	case req.Backend == "testbed" && static && req.Policy != "reroute" && !containsCrash(req.Faults):
		id := rec.begin("replay.simnet", 0, op.Index)
		kr, err := replayKernel(req, req.Messages, req.Seed)
		rec.end(id)
		if err != nil {
			return err
		}
		c.kernel += kr.kernel
		c.analysis += kr.analysis
		c.testbedRun += res.Elapsed
	}
	return nil
}

// deepChecks runs the checks that follow a list's first pass: sampled
// estimates against the exact backend, and sampled exact results against
// fresh engines. It returns the number of results that failed them.
func deepChecks(lr libraryRun, problems func(string)) (int, error) {
	bad, err := sigmaChecks(lr.estimates, problems)
	if err != nil {
		return bad, err
	}
	n, err := verifyFresh(lr.verify, problems)
	return bad + n, err
}

// verifyFresh recomputes the sampled exact results with fresh engines and
// returns how many differ by more than 1e-12.
func verifyFresh(vs []verifyExact, report func(string)) (int, error) {
	var bad int
	for _, v := range vs {
		h, err := freshExact(v.req)
		if err != nil {
			return bad, err
		}
		if !close12(v.h, h) {
			bad++
			report(fmt.Sprintf("cached H = %v, fresh engine H = %v for %+v", v.h, h, *v.req))
		}
	}
	return bad, nil
}

// close12 reports whether two results agree to 1e-12, relative above 1.
func close12(a, b float64) bool { return math.Abs(a-b) <= 1e-12*max(1, math.Abs(b)) }

// crossCheck compares a later pass over a list with its first pass: every
// operation must give the first pass's result to 1e-12. (Results are
// deterministic given the seed; exact ones may differ in the last bits
// where the engine cache derived an engine from a different resident one.)
// An operation that failed in either pass was counted there. It returns
// the number of results that differ.
func crossCheck(ops []Op, first, later []float64, problems func(string)) int {
	var bad int
	for i, h := range later {
		if h == noResult || first[i] == noResult {
			continue
		}
		if !close12(h, first[i]) {
			bad++
			problems(fmt.Sprintf("op %d (%s): H = %v, but %v in the first pass", ops[i].Index, ops[i].Class, h, first[i]))
		}
	}
	return bad
}

// warmLibrary runs the warm-up operations in-process.
func warmLibrary(ops []Op) error {
	for _, op := range ops {
		var err error
		if op.Scenario != nil {
			_, err = runInProcess(op.Scenario)
		} else {
			_, err = solve(op.Optimize)
		}
		if err != nil {
			return fmt.Errorf("warm-up op %s: %w", op.Class, err)
		}
	}
	return nil
}
