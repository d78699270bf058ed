package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"time"
)

// metricDef names a metric, its unit, and which direction is better.
// The tables below are the ones BENCHMARK.json declares.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics an untraced run reports.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"op_tail_ms", "ms", "lower"},
	{"throughput_ops_s", "1/s", "higher"},
	{"rss_mb", "MB", "lower"},
}

// perLayer are the metrics a traced run reports.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"scenario.cache_hit_ratio", "ratio", "higher"},
		{"scenario.cache_misses_per_op", "count", "lower"},
		{"scenario.cache_delta_share", "ratio", "higher"},
		{"scenario.cache_evictions_per_op", "count", "lower"},
		{"scenario.engine_lookup_us_p50", "us", "lower"},
		{"scenario.delta_derive_us_p50", "us", "lower"},
		{"scenario.dispatch_us_p50", "us", "lower"},
		{"events.engine_fresh_per_op", "count", "lower"},
		{"events.fresh_build_ms_p50", "ms", "lower"},
		{"events.degree_cold_us_p50", "us", "lower"},
		{"events.weights_ms_p50", "ms", "lower"},
		{"combin.logchoose_ns", "ns", "lower"},
		{"optimize.iterations_per_solve", "count", "lower"},
		{"optimize.ms_per_iteration", "ms", "lower"},
		{"optimize.solve_ms_p50", "ms", "lower"},
		{"pathsel.select_ns_sparse", "ns", "lower"},
		{"pathsel.select_ns_dense", "ns", "lower"},
		{"montecarlo.synthesize_ns", "ns", "lower"},
		{"adversary.entropy_ns", "ns", "lower"},
		{"adversary.fold_ns_per_round", "ns", "lower"},
		{"dist.alias_draw_ns", "ns", "lower"},
		{"stats.stream_draw_ns", "ns", "lower"},
		{"montecarlo.trials_per_s", "1/s", "higher"},
		{"montecarlo.residual_share", "ratio", "lower"},
		{"simnet.events_per_msg", "count", "lower"},
		{"simnet.events_per_s", "1/s", "higher"},
		{"simnet.kernel_share", "ratio", "lower"},
		{"adversary.analyze_us_per_msg", "us", "lower"},
		{"faults.attempts_per_msg", "count", "lower"},
		{"faults.delivery_rate", "ratio", "higher"},
		{"testbed.residual_share", "ratio", "lower"},
		{"anond.backend_ms_p50", "ms", "lower"},
		{"anond.overhead_us_p50", "us", "lower"},
		{"anond.overhead_us_p99", "us", "lower"},
		{"anond.json_encode_us", "us", "lower"},
		{"anond.json_decode_us", "us", "lower"},
		{"anond.coalesced_ratio", "ratio", "higher"},
		{"anond.non200_ratio", "ratio", "lower"},
	}
	for _, kind := range []string{"open_p50_ms", "open_p99_ms", "open_lag_p99_ms"} {
		for _, rate := range ladderRates {
			defs = append(defs, metricDef{fmt.Sprintf("anond.%s.r%d", kind, int(rate)), "ms", "lower"})
		}
	}
	return append(defs,
		metricDef{"anond.open_max_rps_under_slo", "1/s", "higher"},
		metricDef{"run.peak_rss_mb", "MB", "lower"},
		metricDef{"run.alloc_kb_per_op", "kB", "lower"},
		metricDef{"run.gc_pause_us_per_op", "us", "lower"},
		metricDef{"trace.overhead_ratio", "ratio", "lower"},
	)
}()

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report collects a run's metric values, with an optional note each, and
// prints them.
type report struct {
	values map[string]float64
	notes  map[string]string
}

func newReport() *report {
	return &report{values: map[string]float64{}, notes: map[string]string{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) note(name, format string, args ...any) {
	r.notes[name] = fmt.Sprintf(format, args...)
}

// emit prints every metric of defs by name with its unit, then the result
// line. A metric the run did not produce, or a value that is not finite,
// makes the run incorrect.
func (r *report) emit(w io.Writer, header string, defs []metricDef, attempted, failed int, problems func(string)) result {
	res := result{Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	fmt.Fprintln(w, header)
	ok := true
	for _, d := range defs {
		v, have := r.values[d.Name]
		if !have || math.IsNaN(v) || math.IsInf(v, 0) {
			problems(fmt.Sprintf("metric %s has no finite value (%v)", d.Name, v))
			ok, v = false, 0
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		line := fmt.Sprintf("  %-32s %16.6f %s", d.Name, v, d.Unit)
		if n := r.notes[d.Name]; n != "" {
			line += "  (" + n + ")"
		}
		fmt.Fprintln(w, line)
	}
	res.Correct = ok && failed == 0
	fmt.Fprintf(w, "  %-32s %16d ops, %d failed (fail ratio %.6f)\n", "attempted", attempted, failed,
		float64(failed)/float64(max(attempted, 1)))
	return res
}

// print writes the result as one JSON line.
func (res result) print(w io.Writer) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// passStats is one timed pass over a workload's operation list. A
// library pass runs in a child process, which sends it as JSON.
type passStats struct {
	// Setup is the seconds from the exec of the process doing the work
	// (the pass's own process, or the daemon) to its first timed op.
	Setup float64
	// Latency holds the successful ops' latencies; Wall is the list's.
	Latency []time.Duration
	Wall    time.Duration
	// RSS is the median resident set of the process doing the work over
	// the list, in MB.
	RSS float64
	// Steal is the share of the machine's CPU time that the hypervisor gave
	// to other guests during the list.
	Steal float64
	// Scale converts the pass's times to the machine's reference speed:
	// calRef over the mean time of the pass's calibration slices.
	Scale float64
	// Results holds every op's H or optimum, noResult where it failed.
	Results   []float64
	Attempted int
	Failed    int
}

// setPasses reports the end-to-end metrics of a run's passes, every time
// scaled by its pass's Scale. Latencies and the rate pool every op of
// every pass: the machine the benchmark was sized on slows single ops by
// up to 2× at random, so the more ops a statistic rests on, the better it
// repeats. The tail is the tail rule's percentile for one pass's list,
// taken over the pool, so it does not depend on how many passes a run
// makes. Set-up and memory, one value per pass, are medians over the
// passes.
func (r *report) setPasses(ps []passStats) {
	var setups, rss, steal, scales, pooled []float64
	var wall float64
	for _, p := range ps {
		setups = append(setups, p.Setup*p.Scale)
		rss = append(rss, p.RSS)
		steal = append(steal, 100*p.Steal)
		scales = append(scales, p.Scale)
		for _, l := range latencies(p.Latency) {
			pooled = append(pooled, l*p.Scale)
		}
		wall += p.Wall.Seconds() * p.Scale
	}
	slices.Sort(pooled)
	ops := len(ps[0].Results)
	t := tailAt(pooled, tailPercentile(ops))
	r.set("setup_s", median(setups))
	r.note("setup_s", "median of %d passes, each from a fresh exec; steal %.0f%%", len(ps), steal)
	r.set("op_p50_ms", percentile(pooled, 50))
	r.note("op_p50_ms", "of %d ops in %d passes of %d", len(pooled), len(ps), ops)
	r.set("op_tail_ms", t.Value)
	r.note("op_tail_ms", "p%.2f, %d beyond", t.Pct, t.Beyond)
	r.set("throughput_ops_s", float64(len(pooled))/wall)
	r.note("throughput_ops_s", "times scaled to the reference speed by %.3f", scales)
	r.set("rss_mb", median(rss))
}

// ratio is a/b, or 0 when b is 0 (the layer did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
