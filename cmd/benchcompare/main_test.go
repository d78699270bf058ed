package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// baseStart stamps the snapshots of tests that do not depend on order.
var baseStart = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// writeStream writes a complete go-test-json bench stream: a start record
// stamped at start, one output record per line, and the package's
// terminal pass record.
func writeStream(t *testing.T, dir, name string, start time.Time, lines []string) string {
	t.Helper()
	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	records := []any{map[string]any{"Time": start, "Action": "start", "Package": "anonmix"}}
	for _, line := range lines {
		records = append(records, map[string]string{"Action": "output", "Output": line + "\n"})
	}
	records = append(records, map[string]string{"Action": "pass", "Package": "anonmix"})
	for _, r := range records {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// snapshot writes a minimal bench stream.
func snapshot(t *testing.T, dir, name string, ns map[string]float64) string {
	t.Helper()
	return timedSnapshot(t, dir, name, baseStart, ns)
}

// timedSnapshot writes a minimal bench stream whose run started at start.
func timedSnapshot(t *testing.T, dir, name string, start time.Time, ns map[string]float64) string {
	t.Helper()
	var lines []string
	for bench, v := range ns {
		lines = append(lines, fmt.Sprintf("Benchmark%s-4 \t       1\t%10.0f ns/op", bench, v))
	}
	return writeStream(t, dir, name, start, lines)
}

// memSnapshot writes a bench stream with -benchmem columns and a custom
// ReportMetric column between ns/op and B/op, mirroring real output.
func memSnapshot(t *testing.T, dir, name string, res map[string][3]float64) string {
	t.Helper()
	var lines []string
	for bench, v := range res {
		lines = append(lines, fmt.Sprintf("Benchmark%s-4 \t       1\t%10.0f ns/op\t         2.908 H16_bits\t%8.0f B/op\t%8.0f allocs/op",
			bench, v[0], v[1], v[2]))
	}
	return writeStream(t, dir, name, baseStart, lines)
}

// smokeSet mirrors the Makefile's SMOKE variable for tests that exercise
// the narrowed gate.
const smokeSet = `^(Fig3a|Fig4[abcd]|Weights|DegreeLargeC|WeightsLargeC)$`

func TestComparePasses(t *testing.T) {
	dir := t.TempDir()
	old := snapshot(t, dir, "BENCH_20260101_aaaa.json", map[string]float64{
		"Fig3a": 1000, "Weights": 500, "Other": 100,
	})
	new := snapshot(t, dir, "BENCH_20260102_bbbb.json", map[string]float64{
		"Fig3a": 1100, "Weights": 450, "Other": 1000, // Other is outside the smoke set
	})
	var sb strings.Builder
	if err := run([]string{"-smoke", smokeSet, old, new}, &sb); err != nil {
		t.Fatalf("unexpected failure: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "OK: no gated benchmark regressed") {
		t.Errorf("output:\n%s", sb.String())
	}
	// Without -smoke every common benchmark is gated, so the Other
	// regression now fails the comparison.
	sb.Reset()
	if err := run([]string{old, new}, &sb); err == nil || !strings.Contains(err.Error(), "Other") {
		t.Errorf("default gate-all: err = %v", err)
	}
}

func TestCompareFailsOnRegression(t *testing.T) {
	dir := t.TempDir()
	old := snapshot(t, dir, "BENCH_20260101_aaaa.json", map[string]float64{"Fig3a": 1000})
	new := snapshot(t, dir, "BENCH_20260102_bbbb.json", map[string]float64{"Fig3a": 1500})
	var sb strings.Builder
	err := run([]string{old, new}, &sb)
	if err == nil || !strings.Contains(err.Error(), "Fig3a") {
		t.Fatalf("err = %v\n%s", err, sb.String())
	}
	// A looser threshold tolerates the same delta.
	sb.Reset()
	if err := run([]string{"-threshold", "1.6", old, new}, &sb); err != nil {
		t.Fatalf("threshold 1.6: %v", err)
	}
}

func TestCompareGatesAllocRegression(t *testing.T) {
	dir := t.TempDir()
	// ns/op is flat; allocs/op grows 100 → 1000, B/op 1kB → 100kB.
	old := memSnapshot(t, dir, "BENCH_20260101_aaaa.json", map[string][3]float64{
		"Fig3a": {1000, 1024, 100},
	})
	new := memSnapshot(t, dir, "BENCH_20260102_bbbb.json", map[string][3]float64{
		"Fig3a": {1000, 102400, 1000},
	})
	var sb strings.Builder
	err := run([]string{old, new}, &sb)
	if err == nil || !strings.Contains(err.Error(), "Fig3a") ||
		!strings.Contains(err.Error(), "allocs/op") || !strings.Contains(err.Error(), "B/op") {
		t.Fatalf("err = %v\n%s", err, sb.String())
	}
	// A looser memory threshold tolerates the same delta.
	sb.Reset()
	if err := run([]string{"-memthreshold", "1000", old, new}, &sb); err != nil {
		t.Fatalf("memthreshold 1000: %v\n%s", err, sb.String())
	}
}

func TestCompareAllocFloorToleratesNoise(t *testing.T) {
	dir := t.TempDir()
	// 2 → 10 allocs is a 5x ratio but only +8 allocs — below the floor, so
	// a near-zero footprint never fails on one stray allocation.
	old := memSnapshot(t, dir, "BENCH_20260101_aaaa.json", map[string][3]float64{
		"Fig3a": {1000, 32, 2},
	})
	new := memSnapshot(t, dir, "BENCH_20260102_bbbb.json", map[string][3]float64{
		"Fig3a": {1000, 80, 10},
	})
	var sb strings.Builder
	if err := run([]string{old, new}, &sb); err != nil {
		t.Fatalf("floor did not absorb small drift: %v\n%s", err, sb.String())
	}
}

// rawSnapshot writes pre-formatted bench lines verbatim, for streams the
// map-based helpers cannot express (e.g. -count=N duplicate samples).
func rawSnapshot(t *testing.T, dir, name string, lines []string) string {
	t.Helper()
	return writeStream(t, dir, name, baseStart, lines)
}

func TestCompareMinOfCountSamples(t *testing.T) {
	dir := t.TempDir()
	old := memSnapshot(t, dir, "BENCH_20260101_aaaa.json", map[string][3]float64{
		"Fig3a": {1000, 1024, 100},
	})
	// Three -count samples of the candidate: two contention-inflated, one
	// clean. Min-of-N must gate on the clean one (1100 ns, 1.1x) instead of
	// the last (2500 ns, 2.5x).
	new := rawSnapshot(t, dir, "BENCH_20260102_bbbb.json", []string{
		"BenchmarkFig3a-4 \t 1\t 2000 ns/op\t 1024 B/op\t 100 allocs/op",
		"BenchmarkFig3a-4 \t 1\t 1100 ns/op\t 1024 B/op\t 100 allocs/op",
		"BenchmarkFig3a-4 \t 1\t 2500 ns/op\t 1024 B/op\t 100 allocs/op",
	})
	var sb strings.Builder
	if err := run([]string{old, new}, &sb); err != nil {
		t.Fatalf("min-of-count did not absorb contention spikes: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "1100") {
		t.Errorf("table should show the minimum sample:\n%s", sb.String())
	}
}

func TestCompareMixedMemColumns(t *testing.T) {
	dir := t.TempDir()
	// Baseline without -benchmem, candidate with: only ns/op is gated.
	old := snapshot(t, dir, "BENCH_20260101_aaaa.json", map[string]float64{"Fig3a": 1000})
	new := memSnapshot(t, dir, "BENCH_20260102_bbbb.json", map[string][3]float64{
		"Fig3a": {1050, 1 << 20, 100000},
	})
	var sb strings.Builder
	if err := run([]string{old, new}, &sb); err != nil {
		t.Fatalf("mixed columns: %v\n%s", err, sb.String())
	}
}

func TestCompareGlobNewestTwo(t *testing.T) {
	dir := t.TempDir()
	oldest := timedSnapshot(t, dir, "BENCH_20260101_aaaa.json", baseStart, map[string]float64{"Fig3a": 99999})
	mid := timedSnapshot(t, dir, "BENCH_20260102_bbbb.json", baseStart.Add(time.Hour), map[string]float64{"Fig3a": 1000})
	newest := timedSnapshot(t, dir, "BENCH_20260103_cccc.json", baseStart.Add(2*time.Hour), map[string]float64{"Fig3a": 1050})
	// Modification times run against the runs' start times: only the
	// latter count.
	for i, p := range []string{oldest, mid, newest} {
		mt := time.Now().Add(-time.Duration(i) * time.Hour)
		if err := os.Chtimes(p, mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	if err := run([]string{"-dir", dir}, &sb); err != nil {
		t.Fatalf("%v\n%s", err, sb.String())
	}
	out := sb.String()
	if strings.Contains(out, "aaaa") || !strings.Contains(out, "bbbb") || !strings.Contains(out, "cccc") {
		t.Errorf("wrong snapshot pair:\n%s", out)
	}
}

// TestCompareOrdersByRunStart is a fresh checkout: every snapshot has the
// same modification time, and name order is the reverse of run order. The
// gate must still diff the earlier run against the later one.
func TestCompareOrdersByRunStart(t *testing.T) {
	dir := t.TempDir()
	older := timedSnapshot(t, dir, "BENCH_20260807_e06b7fc.json", baseStart, map[string]float64{"Fig3a": 1000})
	newer := timedSnapshot(t, dir, "BENCH_20260807_2db607c.json", baseStart.Add(time.Hour), map[string]float64{"Fig3a": 1500})
	mt := time.Now()
	for _, p := range []string{older, newer} {
		if err := os.Chtimes(p, mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	err := run([]string{"-dir", dir}, &sb)
	// 1000 → 1500 ns/op is a regression only in run order.
	if err == nil || !strings.Contains(err.Error(), "Fig3a") {
		t.Fatalf("err = %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "baseline  "+older) || !strings.Contains(sb.String(), "candidate "+newer) {
		t.Errorf("wrong order:\n%s", sb.String())
	}
}

// TestCompareSkipsIncompleteSnapshot: a run that stopped before its
// package's pass record is named and left out, so the gate compares the
// two newest complete runs.
func TestCompareSkipsIncompleteSnapshot(t *testing.T) {
	dir := t.TempDir()
	old := timedSnapshot(t, dir, "BENCH_20260101_aaaa.json", baseStart, map[string]float64{"Fig3a": 1000})
	cand := timedSnapshot(t, dir, "BENCH_20260102_bbbb.json", baseStart.Add(time.Hour), map[string]float64{"Fig3a": 1050})
	truncated := filepath.Join(dir, "BENCH_20260103_cccc.json")
	stream := fmt.Sprintf(`{"Time":%q,"Action":"start","Package":"anonmix"}
{"Action":"output","Package":"anonmix","Test":"BenchmarkFig3a","Output":"BenchmarkFig3a\n"}
`, baseStart.Add(2*time.Hour).Format(time.RFC3339Nano))
	failed := filepath.Join(dir, "BENCH_20260104_dddd.json")
	failedStream := fmt.Sprintf(`{"Time":%q,"Action":"start","Package":"anonmix"}
{"Action":"output","Package":"anonmix","Output":"BenchmarkFig3a-4 \t 1\t 10 ns/op\n"}
{"Action":"fail","Package":"anonmix"}
`, baseStart.Add(3*time.Hour).Format(time.RFC3339Nano))
	for path, body := range map[string]string{truncated: stream, failed: failedStream} {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	if err := run([]string{"-dir", dir}, &sb); err != nil {
		t.Fatalf("%v\n%s", err, sb.String())
	}
	out := sb.String()
	for _, want := range []string{"skipping " + truncated, "skipping " + failed, "baseline  " + old, "candidate " + cand} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

func TestCompareNothingToCompare(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	if err := run([]string{"-dir", dir}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "nothing to compare") {
		t.Errorf("output:\n%s", sb.String())
	}
	snapshot(t, dir, "BENCH_20260101_aaaa.json", map[string]float64{"Fig3a": 1})
	sb.Reset()
	if err := run([]string{"-dir", dir}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "nothing to compare") {
		t.Errorf("output:\n%s", sb.String())
	}
}

func TestCompareErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-smoke", "("}, &sb); err == nil {
		t.Error("bad regexp accepted")
	}
	dir := t.TempDir()
	empty := filepath.Join(dir, "BENCH_20260101_x.json")
	if err := os.WriteFile(empty, []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ok := snapshot(t, dir, "BENCH_20260102_y.json", map[string]float64{"Fig3a": 1})
	if err := run([]string{empty, ok}, &sb); err == nil {
		t.Error("empty snapshot accepted")
	}
}

func TestCompareRejectsNaNSmokeEntry(t *testing.T) {
	dir := t.TempDir()
	old := snapshot(t, dir, "BENCH_20260101_aaaa.json", map[string]float64{"Fig3a": 1000})
	// A crashed or truncated run can record NaN; gating must fail loudly,
	// not treat the entry as 0 (which would read as an infinite speedup).
	new := rawSnapshot(t, dir, "BENCH_20260102_bbbb.json", []string{
		"BenchmarkFig3a-4 \t 1\t NaN ns/op",
	})
	var sb strings.Builder
	err := run([]string{"-smoke", smokeSet, old, new}, &sb)
	if err == nil || !strings.Contains(err.Error(), "unusable ns/op") || !strings.Contains(err.Error(), "Fig3a") {
		t.Fatalf("err = %v\n%s", err, sb.String())
	}
	// NaN memory columns are equally unusable.
	sb.Reset()
	nanMem := rawSnapshot(t, dir, "BENCH_20260103_cccc.json", []string{
		"BenchmarkFig3a-4 \t 1\t 1000 ns/op\t NaN B/op\t NaN allocs/op",
	})
	err = run([]string{"-smoke", smokeSet, old, nanMem}, &sb)
	if err == nil || !strings.Contains(err.Error(), "NaN memory columns") {
		t.Fatalf("err = %v\n%s", err, sb.String())
	}
}

func TestCompareRejectsAbsentSmokeEntry(t *testing.T) {
	dir := t.TempDir()
	old := snapshot(t, dir, "BENCH_20260101_aaaa.json", map[string]float64{
		"Fig3a": 1000, "Weights": 500,
	})
	new := snapshot(t, dir, "BENCH_20260102_bbbb.json", map[string]float64{
		"Fig3a": 1000, // Weights vanished from the candidate
	})
	var sb strings.Builder
	err := run([]string{"-smoke", smokeSet, old, new}, &sb)
	if err == nil || !strings.Contains(err.Error(), "Weights absent from") {
		t.Fatalf("err = %v\n%s", err, sb.String())
	}
	// Without an explicit smoke pattern, differing benchmark sets are the
	// normal cross-commit case and only common names are compared.
	sb.Reset()
	if err := run([]string{old, new}, &sb); err != nil {
		t.Fatalf("gate-all with differing sets: %v\n%s", err, sb.String())
	}
}

func TestCompareRejectsEmptySmokeMatch(t *testing.T) {
	dir := t.TempDir()
	old := snapshot(t, dir, "BENCH_20260101_aaaa.json", map[string]float64{"Fig3a": 1000})
	new := snapshot(t, dir, "BENCH_20260102_bbbb.json", map[string]float64{"Fig3a": 1000})
	var sb strings.Builder
	err := run([]string{"-smoke", "^NoSuchBenchmark$", old, new}, &sb)
	if err == nil || !strings.Contains(err.Error(), "matched no benchmark") {
		t.Fatalf("err = %v\n%s", err, sb.String())
	}
}

func TestCompareSingleExplicitFileRejected(t *testing.T) {
	dir := t.TempDir()
	one := snapshot(t, dir, "BENCH_20260101_aaaa.json", map[string]float64{"Fig3a": 1})
	var sb strings.Builder
	if err := run([]string{one}, &sb); err == nil {
		t.Error("single explicit file accepted")
	}
}
