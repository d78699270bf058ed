package main

// The traced run: the per-layer metrics, from spans recorded around the
// harness's calls into each layer, counters, and the layer probes.

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"anonmix/internal/scenario"
)

// traced runs the workload's op list, the one an untraced run times, four
// times, untraced and traced in turn, for the workload's layer counters
// and trace.overhead_ratio; then, for the daemon layer, a traced serve
// pass (after a library workload) and the open-loop ladder; then the layer
// probes. The spans go to .bench_build/trace-<workload>-<seed>.jsonl.
func traced(o options, g *generator, rep *report, problems func(string)) (int, int, error) {
	step := min(max(o.length()/20, 100*time.Millisecond), 5*time.Second)
	rec := newRecorder()
	list := g.take(g.listLen(o.length() / passShare))
	sg := g
	if o.workload != serveMixed {
		var err error
		if sg, err = newGenerator(serveMixed, o.seed); err != nil {
			return 0, 0, err
		}
	}
	// The serve mix's hot-set references come first, from the cold cache
	// (see serveChecker).
	chk, err := newServeChecker(sg.hot)
	if err != nil {
		return 0, 0, err
	}
	var t tally
	if o.workload == serveMixed {
		err = traceServe(o, list, g.warmup(), chk, rec, rep, &t, problems)
	} else {
		err = traceLibrary(list, g.warmup(), rec, rep, &t, problems)
	}
	if err != nil {
		return 0, 0, err
	}
	if o.workload != serveMixed {
		// The daemon layer, on a short traced pass of the serve mix.
		ops := sg.take(sg.listLen(step))
		sp, err := servePass(o.anond, ops, sg.warmup(), rec, nil, problems)
		if err != nil {
			return 0, 0, err
		}
		t.add(sp.passStats)
		t.failed += chk.checkAll(ops, sp.replies)
		var a anondLayer
		a.add(sp)
		a.report(rep, rec)
	}
	if err := openLoop(o.anond, sg, chk, step, rep, &t, problems); err != nil {
		return 0, 0, err
	}
	bad, err := chk.finish(problems)
	if err != nil {
		return 0, 0, err
	}
	t.failed += bad
	// Eight configurations at full length; short runs probe fewer.
	probes, err := probeLayers(g.probeConfigs(min(max(int(o.seconds/3), 1), 8)), o.seed)
	if err != nil {
		return 0, 0, err
	}
	for name, v := range probes {
		rep.set(name, v)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return 0, 0, err
	}
	if err := rec.writeJSONL(fmt.Sprintf(".bench_build/trace-%s-%d.jsonl", o.workload, o.seed)); err != nil {
		return 0, 0, err
	}
	return t.attempted, t.failed, nil
}

// tally counts a traced run's operations.
type tally struct{ attempted, failed int }

func (t *tally) add(p passStats) {
	t.attempted += p.Attempted
	t.failed += p.Failed
}

// alloc measures the harness process's allocation and collector pauses
// over traced passes.
type alloc struct {
	before  runtime.MemStats
	bytes   uint64
	pauseNs uint64
}

func (a *alloc) start() {
	runtime.GC()
	runtime.ReadMemStats(&a.before)
}

func (a *alloc) stop() {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	a.bytes += after.TotalAlloc - a.before.TotalAlloc
	a.pauseNs += after.PauseTotalNs - a.before.PauseTotalNs
}

func (a alloc) report(rep *report, ops int) {
	rep.set("run.alloc_kb_per_op", ratio(float64(a.bytes)/1024, float64(ops)))
	rep.set("run.gc_pause_us_per_op", ratio(float64(a.pauseNs)/1e3, float64(ops)))
}

// overhead reports trace.overhead_ratio: the traced passes' wall time over
// the untraced passes' on the same list. Tracing costs the spans and,
// after a library op, the replays through the layer probes.
func overhead(rep *report, walls [2]time.Duration) {
	rep.set("trace.overhead_ratio", ratio(walls[1].Seconds(), walls[0].Seconds()))
	rep.note("trace.overhead_ratio", "%.3f s traced, %.3f s untraced", walls[1].Seconds(), walls[0].Seconds())
}

// traceLibrary runs a library workload's list in-process four times,
// untraced and traced in turn, each from a freshly emptied and re-warmed
// engine cache.
func traceLibrary(list, warm []Op, rec *recorder, rep *report, t *tally, problems func(string)) error {
	var walls [2]time.Duration
	var first []float64
	var counts layerCounts
	var mem alloc
	for k := range 4 {
		var r *recorder
		if k%2 == 1 {
			r = rec
		}
		scenario.ResetEngines()
		if err := warmLibrary(warm); err != nil {
			return err
		}
		mem.start()
		lr := runLibrary(list, r, nil, problems)
		if r != nil {
			mem.stop()
			counts.add(lr.counts)
		}
		walls[k%2] += lr.wall
		t.add(passStats{Attempted: lr.attempted, Failed: lr.failed})
		if k == 0 {
			first = lr.results
			bad, err := deepChecks(lr, problems)
			if err != nil {
				return err
			}
			t.failed += bad
		} else {
			t.failed += crossCheck(list, first, lr.results, problems)
		}
	}
	peak, err := vmHWM(os.Getpid())
	if err != nil {
		return err
	}
	counts.report(rep)
	rep.set("run.peak_rss_mb", peak)
	mem.report(rep, counts.ops)
	overhead(rep, walls)
	return nil
}

// traceServe runs the serve mix's list four times, untraced and traced in
// turn, each over a fresh daemon.
func traceServe(o options, list, warm []Op, chk *serveChecker, rec *recorder, rep *report, t *tally, problems func(string)) error {
	var walls [2]time.Duration
	var first []float64
	var counts layerCounts
	var a anondLayer
	var mem alloc
	var peak float64
	for k := range 4 {
		var r *recorder
		if k%2 == 1 {
			r = rec
		}
		mem.start()
		sp, err := servePass(o.anond, list, warm, r, nil, problems)
		if err != nil {
			return err
		}
		walls[k%2] += sp.Wall
		t.add(sp.passStats)
		if k == 0 {
			first = sp.Results
			t.failed += chk.checkAll(list, sp.replies)
		} else {
			t.failed += crossCheck(list, first, sp.Results, problems)
		}
		if r != nil {
			mem.stop()
			counts.add(serveCounts(sp))
			a.add(sp)
			peak = max(peak, sp.peak)
		}
	}
	counts.report(rep)
	a.report(rep, rec)
	rep.set("run.peak_rss_mb", peak)
	rep.note("run.peak_rss_mb", "the daemon's")
	mem.report(rep, counts.ops)
	rep.note("run.alloc_kb_per_op", "the load generator's")
	rep.note("run.gc_pause_us_per_op", "the load generator's")
	overhead(rep, walls)
	return nil
}

// serveCounts derives the workload's layer counters from a served pass:
// the daemon's engine cache from /v1/metrics, the rest from the answers.
func serveCounts(sp servedPass) layerCounts {
	now, was := sp.after.EngineCache, sp.before.EngineCache
	c := layerCounts{ops: len(sp.replies), cache: scenario.EngineCacheStats{
		Hits: now.Hits - was.Hits, Misses: now.Misses - was.Misses,
		Evictions: now.Evictions - was.Evictions, DeltaDerived: now.DeltaDerived - was.DeltaDerived,
	}}
	for _, r := range sp.replies {
		if r.err == nil {
			c.attempts += r.resp.MeanAttempts
			c.delivery += r.resp.DeliveryRate
			c.results++
		}
	}
	return c
}

// anondLayer accumulates the daemon layer's counters over traced passes.
type anondLayer struct {
	requests          int
	backend           []time.Duration // the elapsed time each answer reports
	coalesced, non200 int64
}

func (a *anondLayer) add(sp servedPass) {
	a.requests += len(sp.replies)
	for _, r := range sp.replies {
		if r.err == nil {
			a.backend = append(a.backend, r.backend)
		}
	}
	a.coalesced += sp.after.Coalesced - sp.before.Coalesced
	for code, n := range sp.after.Statuses {
		if code != "200" {
			a.non200 += n - sp.before.Statuses[code]
		}
	}
}

// report sets the daemon layer's metrics. A request span's self time,
// once its backend child is subtracted, is the daemon layer's overhead:
// HTTP, JSON, routing and single-flight.
func (a anondLayer) report(rep *report, rec *recorder) {
	all := rec.snapshot()
	self := selfTimes(all)
	var requests []time.Duration
	for _, s := range all {
		if strings.HasPrefix(s.Name, "http.") {
			requests = append(requests, self[s.ID])
		}
	}
	overhead := latencies(requests)
	rep.set("anond.backend_ms_p50", percentile(latencies(a.backend), 50))
	rep.set("anond.overhead_us_p50", 1e3*percentile(overhead, 50))
	rep.set("anond.overhead_us_p99", 1e3*percentile(overhead, 99))
	rep.note("anond.overhead_us_p99", "of %d requests", len(overhead))
	rep.set("anond.coalesced_ratio", ratio(float64(a.coalesced), float64(a.requests)))
	rep.set("anond.non200_ratio", ratio(float64(a.non200), float64(a.requests)))
}

// openLoop drives a fresh daemon up the open-loop ladder with step-long
// rates of the serve mix and reports each step.
func openLoop(anondPath string, g *generator, chk *serveChecker, step time.Duration, rep *report, t *tally, problems func(string)) error {
	d, err := startDaemon(anondPath)
	if err != nil {
		return err
	}
	defer d.kill()
	if err := warmDaemon(d, g.warmup()); err != nil {
		return err
	}
	steps, failed := ladder(d, g, chk, step)
	t.failed += failed
	t.attempted++ // the drain
	for _, st := range steps {
		t.attempted += st.Offered
	}
	if err := d.stop(); err != nil {
		problems(err.Error())
		t.failed++
	}
	for _, st := range steps {
		r := int(st.Rate)
		rep.set(fmt.Sprintf("anond.open_p50_ms.r%d", r), st.P50)
		rep.set(fmt.Sprintf("anond.open_p99_ms.r%d", r), st.P99)
		rep.set(fmt.Sprintf("anond.open_lag_p99_ms.r%d", r), st.LagP99)
		rep.note(fmt.Sprintf("anond.open_p99_ms.r%d", r), "%d offered, backlog %d at the end", st.Offered, st.Backlog)
	}
	rep.set("anond.open_max_rps_under_slo", maxRateUnderSLO(steps))
	rep.note("anond.open_max_rps_under_slo", "p99 ≤ %v, no growing backlog", slo)
	return nil
}
