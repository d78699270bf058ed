package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark: the harness
// re-executes its own binary for every pass of a library workload, and
// those children carry the benchmark's flags instead of the test flags.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && !strings.HasPrefix(os.Args[1], "-test.") {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// benchmarkFile is BENCHMARK.json, at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var f benchmarkFile
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

func TestBenchmarkFileMatchesHarness(t *testing.T) {
	f := readBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", names, workloadNames)
	}
	var e2e []metricDef
	for _, m := range f.EndToEnd {
		e2e = append(e2e, m.metricDef)
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, harness %v", e2e, endToEnd)
	}
	if !slices.Equal(f.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, harness %v", f.PerLayer, perLayer)
	}
}

// TestSmoke runs every workload for a fraction of a second, untraced and
// traced, two runs at a time, and checks that every run is correct and
// prints exactly the metrics BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds anond and runs every workload")
	}
	f := readBenchmarkFile(t)
	dir := t.TempDir()
	anond := filepath.Join(dir, "anond")
	if out, err := exec.Command("go", "build", "-o", anond, "anonmix/cmd/anond").CombinedOutput(); err != nil {
		t.Fatalf("build anond: %v\n%s", err, out)
	}
	// Traced runs write their spans under .bench_build in the working
	// directory.
	t.Chdir(dir)
	want := map[int][]string{}
	for _, m := range f.EndToEnd {
		want[0] = append(want[0], m.Name)
	}
	for _, m := range f.PerLayer {
		want[1] = append(want[1], m.Name)
	}
	for _, w := range workloadNames {
		for trace := range 2 {
			t.Run(w+"/trace="+strconv.Itoa(trace), func(t *testing.T) {
				t.Parallel()
				var stdout, stderr bytes.Buffer
				code := run([]string{"-workload", w, "-seed", "1", "-seconds", "0.2",
					"-trace", strconv.Itoa(trace), "-anond", anond}, &stdout, &stderr)
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("exit %d, no result line: %v\n%s", code, err, stderr.String())
				}
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("exit %d, correct %v, %d of %d failed\n%s", code, res.Correct, res.Failed, res.Attempted, stderr.String())
				}
				var got []string
				for name := range res.Metrics {
					got = append(got, name)
				}
				slices.Sort(got)
				names := slices.Sorted(slices.Values(want[trace]))
				if !slices.Equal(got, names) {
					t.Errorf("printed metrics %v, BENCHMARK.json declares %v", got, names)
				}
				if trace == 1 {
					spans, err := os.ReadFile(filepath.Join(".bench_build", "trace-"+w+"-1.jsonl"))
					if err != nil || !bytes.Contains(spans, []byte(`"name":"http.scenario"`)) {
						t.Errorf("span file without request spans: %v", err)
					}
				}
			})
		}
	}
}
