// Command benchcompare diffs the two newest BENCH_<date>_<sha>.json
// snapshots (as written by `make bench`, i.e. `go test -json -bench
// -benchmem`) and fails when any benchmark of the smoke set regressed by
// more than the threshold — in wall clock (ns/op) or in memory (B/op,
// allocs/op). `make bench-compare` and the non-blocking CI step run
// exactly this command, so the local gate and the CI gate cannot diverge.
//
// Usage:
//
//	benchcompare                      # newest two BENCH_*.json in .
//	benchcompare old.json new.json    # explicit baseline and candidate
//	benchcompare -threshold 1.5       # tolerate up to +50% ns/op
//	benchcompare -memthreshold 2      # tolerate up to 2x B/op, allocs/op
//
// Memory gating only applies where both snapshots carry -benchmem columns,
// and small absolute movements (≤64 B/op, ≤16 allocs/op) never fail the
// gate: near-zero footprints — the point of the arena fast path — would
// otherwise turn one stray allocation into a 2x "regression".
//
// "Newest" is the Time of a snapshot's first test2json record — when its
// run started — not the file's modification time, which a fresh checkout
// sets to the same instant for every file, and not git history, which a
// shallow clone lacks. A snapshot whose stream does not end in the
// package's "pass" record (a truncated or failed run) is skipped and named.
//
// With fewer than two complete snapshots available the command reports
// that there is nothing to compare and exits 0 — the first snapshot of a
// trajectory is never a failure. The opposite degradation is loud: when
// an explicit -smoke pattern is given, a gated benchmark that is absent
// from either snapshot, carries NaN metrics, or matches nothing at all
// fails the comparison instead of silently dropping out of the gate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchcompare:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("benchcompare", flag.ContinueOnError)
	var (
		threshold    = fs.Float64("threshold", 1.2, "maximum allowed new/old ns-per-op ratio")
		memThreshold = fs.Float64("memthreshold", 1.3, "maximum allowed new/old B-per-op and allocs-per-op ratio")
		// The Makefile's SMOKE variable is the single definition of the
		// gated set and is passed in by `make bench-compare`; the empty
		// default gates every benchmark the snapshots share, so a bare
		// invocation is strictly stricter, never stale.
		smoke = fs.String("smoke", "", "regexp selecting the gated benchmarks (matched after stripping Benchmark and -procs; empty gates all)")
		dir   = fs.String("dir", ".", "directory to glob BENCH_*.json from")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	re, err := regexp.Compile(*smoke)
	if err != nil {
		return fmt.Errorf("-smoke: %w", err)
	}

	files := fs.Args()
	if len(files) != 0 {
		// Explicit arguments must name exactly a baseline and a candidate;
		// a lone file is a usage error (typo, unexpanded glob), not the
		// empty-trajectory case.
		if len(files) != 2 {
			return fmt.Errorf("pass exactly two files (baseline, candidate), have %d", len(files))
		}
	} else {
		var skipped []string
		files, skipped, err = newestSnapshots(*dir)
		if err != nil {
			return err
		}
		for _, f := range skipped {
			fmt.Fprintf(w, "benchcompare: skipping %s: no terminal package pass record (truncated or failed run)\n", f)
		}
		if len(files) < 2 {
			// The first snapshot of a trajectory is never a failure.
			fmt.Fprintf(w, "benchcompare: %d snapshot(s) found — nothing to compare\n", len(files))
			return nil
		}
	}
	oldFile, newFile := files[0], files[1]
	oldRes, err := parseBench(oldFile)
	if err != nil {
		return err
	}
	newRes, err := parseBench(newFile)
	if err != nil {
		return err
	}

	if err := checkGated(re, *smoke, oldRes, newRes, oldFile, newFile); err != nil {
		return err
	}

	names := make([]string, 0, len(newRes))
	for name := range newRes {
		if _, ok := oldRes[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("no common benchmarks between %s and %s", oldFile, newFile)
	}

	fmt.Fprintf(w, "baseline  %s\ncandidate %s\n\n", oldFile, newFile)
	fmt.Fprintf(w, "%-28s %14s %14s %8s %11s %11s %8s\n",
		"benchmark", "old ns/op", "new ns/op", "ratio", "old allocs", "new allocs", "ratio")
	var failed []string
	for _, name := range names {
		o, n := oldRes[name], newRes[name]
		ratio := n.ns / o.ns
		gated := re.MatchString(name)
		var marks []string
		if gated && ratio > *threshold {
			marks = append(marks, "ns/op")
		}
		allocCols := fmt.Sprintf("%11s %11s %8s", "-", "-", "-")
		if o.hasMem && n.hasMem {
			allocCols = fmt.Sprintf("%11.0f %11.0f %7.2fx", o.allocs, n.allocs, memRatio(o.allocs, n.allocs))
			if gated {
				// Floors keep near-zero footprints from flagging noise: a
				// benchmark at 5 allocs/op may jitter to 8 without meaning
				// anything, while 500 → 700 is a real leak.
				if n.bytes > o.bytes**memThreshold && n.bytes-o.bytes > 64 {
					marks = append(marks, "B/op")
				}
				if n.allocs > o.allocs**memThreshold && n.allocs-o.allocs > 16 {
					marks = append(marks, "allocs/op")
				}
			}
		}
		mark := ""
		switch {
		case len(marks) > 0:
			mark = "  REGRESSION(" + strings.Join(marks, ",") + ")"
			failed = append(failed, name+" ("+strings.Join(marks, ",")+")")
		case gated:
			mark = "  (gated)"
		}
		fmt.Fprintf(w, "%-28s %14.0f %14.0f %7.2fx %s%s\n", name, o.ns, n.ns, ratio, allocCols, mark)
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d smoke benchmark(s) regressed beyond ns +%.0f%% / mem +%.0f%%: %s",
			len(failed), (*threshold-1)*100, (*memThreshold-1)*100, strings.Join(failed, ", "))
	}
	fmt.Fprintf(w, "\nOK: no gated benchmark regressed beyond ns +%.0f%% / mem +%.0f%%\n",
		(*threshold-1)*100, (*memThreshold-1)*100)
	return nil
}

// checkGated validates the smoke set before any ratios are computed. A
// gated benchmark that is absent from one snapshot, or whose metrics
// parsed as NaN or non-positive, must fail loudly: falling through to
// the common-name comparison would silently drop it from the gate, so a
// benchmark that vanished (renamed, build-tagged away, crashed mid-run)
// or recorded garbage would read as "no regression". Absence is only
// enforced when an explicit -smoke pattern names the gated set; with the
// gate-everything default, snapshots from different commits legitimately
// disagree about which benchmarks exist.
func checkGated(re *regexp.Regexp, pattern string, oldRes, newRes map[string]result, oldFile, newFile string) error {
	union := make(map[string]bool, len(oldRes)+len(newRes))
	for name := range oldRes {
		union[name] = true
	}
	for name := range newRes {
		union[name] = true
	}
	var problems []string
	gated := 0
	for name := range union {
		if !re.MatchString(name) {
			continue
		}
		gated++
		for _, side := range []struct {
			res  map[string]result
			file string
		}{{oldRes, oldFile}, {newRes, newFile}} {
			r, ok := side.res[name]
			if !ok {
				if pattern != "" {
					problems = append(problems, fmt.Sprintf("%s absent from %s", name, side.file))
				}
				continue
			}
			if math.IsNaN(r.ns) || r.ns <= 0 {
				problems = append(problems, fmt.Sprintf("%s has unusable ns/op %v in %s", name, r.ns, side.file))
			}
			if r.hasMem && (math.IsNaN(r.bytes) || math.IsNaN(r.allocs)) {
				problems = append(problems, fmt.Sprintf("%s has NaN memory columns in %s", name, side.file))
			}
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("smoke set is not comparable: %s", strings.Join(problems, "; "))
	}
	if pattern != "" && gated == 0 {
		return fmt.Errorf("smoke pattern %q matched no benchmark in either snapshot: the gate would check nothing", pattern)
	}
	return nil
}

// minResult folds two samples of the same benchmark into their per-metric
// minimum; a sample without -benchmem columns contributes only ns/op.
func minResult(a, b result) result {
	out := result{ns: math.Min(a.ns, b.ns)}
	switch {
	case a.hasMem && b.hasMem:
		out.bytes, out.allocs, out.hasMem = math.Min(a.bytes, b.bytes), math.Min(a.allocs, b.allocs), true
	case a.hasMem:
		out.bytes, out.allocs, out.hasMem = a.bytes, a.allocs, true
	case b.hasMem:
		out.bytes, out.allocs, out.hasMem = b.bytes, b.allocs, true
	}
	return out
}

// memRatio guards the display ratio against a zero baseline.
func memRatio(old, new float64) float64 {
	if old == 0 {
		if new == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return new / old
}

// newestSnapshots returns the two most recently started complete
// BENCH_*.json files, oldest first (fewer if not available), and the
// incomplete ones it skipped. Snapshots order by the Time of their first
// test2json record, then by name.
func newestSnapshots(dir string) (files, skipped []string, err error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil, nil, err
	}
	type snap struct {
		path  string
		start time.Time
	}
	var snaps []snap
	for _, m := range matches {
		start, complete, err := snapshotSpan(m)
		if err != nil {
			return nil, nil, err
		}
		if !complete {
			skipped = append(skipped, m)
			continue
		}
		snaps = append(snaps, snap{m, start})
	}
	sort.Slice(snaps, func(i, j int) bool {
		if !snaps[i].start.Equal(snaps[j].start) {
			return snaps[i].start.Before(snaps[j].start)
		}
		return snaps[i].path < snaps[j].path
	})
	if len(snaps) > 2 {
		snaps = snaps[len(snaps)-2:]
	}
	for _, s := range snaps {
		files = append(files, s.path)
	}
	return files, skipped, nil
}

// snapshotSpan reads a test2json stream's start, the Time of its first
// record, and whether it is complete: its last record is the package's
// terminal "pass" (a test2json record without a Test field).
func snapshotSpan(path string) (start time.Time, complete bool, err error) {
	file, err := os.Open(path)
	if err != nil {
		return time.Time{}, false, err
	}
	defer file.Close()
	sc := bufio.NewScanner(file)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	first := true
	for sc.Scan() {
		var ev struct {
			Time   time.Time `json:"Time"`
			Action string    `json:"Action"`
			Test   string    `json:"Test"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			continue // tolerate non-JSON noise in the stream
		}
		if first {
			start, first = ev.Time, false
		}
		complete = ev.Action == "pass" && ev.Test == ""
	}
	if err := sc.Err(); err != nil {
		return time.Time{}, false, fmt.Errorf("%s: %w", path, err)
	}
	return start, complete && !first, nil
}

// result carries one benchmark's parsed metrics. hasMem marks lines that
// ran under -benchmem; custom b.ReportMetric columns are ignored.
type result struct {
	ns     float64
	bytes  float64
	allocs float64
	hasMem bool
}

// benchLine matches a benchmark result line inside a test2json Output
// field, e.g. "BenchmarkFig3a-4   1   123456789 ns/op". Custom metrics may
// follow ns/op before the -benchmem columns, so those are matched
// separately by memCols.
// NaN is matched so a corrupt sample surfaces in checkGated instead of
// silently failing the line match and vanishing from the gate.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+|NaN) ns/op`)

// memCols matches the -benchmem suffix anywhere after ns/op, tolerating
// the ReportMetric columns benchmarks insert in between.
var memCols = regexp.MustCompile(`([0-9.]+(?:e[+-]?[0-9]+)?|NaN) B/op\s+([0-9.]+(?:e[+-]?[0-9]+)?|NaN) allocs/op`)

// parseBench extracts name → metrics from a `go test -json -bench` stream.
// The testing package prints a benchmark's name before running it and its
// numbers after, so test2json usually splits one result line across
// several output events; the events are therefore reassembled into a flat
// text stream before line-wise matching. A benchmark appearing multiple
// times (`-count=N`) keeps its per-metric minimum: contention on a shared
// runner only ever slows a sample down, so min-of-N is the robust
// estimator of the code's actual cost and is what the snapshot targets
// record (`make bench-smoke-snapshot` runs -count=3).
func parseBench(path string) (map[string]result, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	var text strings.Builder
	sc := bufio.NewScanner(file)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev struct {
			Action string `json:"Action"`
			Output string `json:"Output"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			continue // tolerate non-JSON noise in the stream
		}
		if ev.Action == "output" {
			text.WriteString(ev.Output)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make(map[string]result)
	for _, line := range strings.Split(text.String(), "\n") {
		line = strings.TrimSpace(line)
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		r := result{ns: ns}
		if mm := memCols.FindStringSubmatch(line); mm != nil {
			b, errB := strconv.ParseFloat(mm[1], 64)
			a, errA := strconv.ParseFloat(mm[2], 64)
			if errB == nil && errA == nil {
				r.bytes, r.allocs, r.hasMem = b, a, true
			}
		}
		name := strings.TrimPrefix(m[1], "Benchmark")
		if prev, ok := out[name]; ok {
			r = minResult(prev, r)
		}
		out[name] = r
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no benchmark results found", path)
	}
	return out, nil
}
