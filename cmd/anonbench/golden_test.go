package main

// Golden-file tests: small-N reference outputs for the parameterized
// figures are committed under testdata/ and compared bit-exactly. Every
// covered figure is a pure function of its parameters — exact sweeps are
// closed-form, sampled sweeps pin (seed, trials, workers) — so the TSVs
// reproduce on any machine and any shard count; a diff here means the
// numbers changed, not the weather. Regenerate intentionally with
//
//	go test ./cmd/anonbench -run TestGoldenFigures -update
//
// and review the diff like any other behavior change.

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "regenerate golden figure TSVs")

func TestGoldenFigures(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		// The paper configuration, fully closed-form.
		{"fig3b", []string{"-figure", "3b"}},
		// Every backend on one small scenario set (MC workers pinned
		// inside the generator).
		{"ablation-backends", []string{
			"-figure", "ablation-backends", "-backends-n", "16", "-backends-c", "2",
			"-backends-messages", "1500", "-backends-seed", "3",
			"-backends-strategies", "freedom;uniform:1,7",
		}},
		// Repeated communication.
		{"degradation-rounds", []string{
			"-figure", "degradation-rounds", "-degrade-n", "14", "-degrade-c", "3",
			"-degrade-sessions", "300", "-degrade-rounds", "6", "-degrade-seed", "2",
			"-degrade-strategies", "fixed:3;uniform:1,5",
		}},
		// Dynamic populations.
		{"churn-sweep", []string{
			"-figure", "churn-sweep", "-churn-n", "15", "-churn-c", "2",
			"-churn-sessions", "300", "-churn-seed", "4",
			"-churn-strategies", "fixed:3",
		}},
		// Epoch-aware optimization (exact engines + deterministic solver,
		// no sampling — pure function of the parameters).
		{"epoch-optimizer", []string{
			"-figure", "epoch-optimizer", "-epochopt-n", "24", "-epochopt-c", "2",
			"-epochopt-max", "8",
		}},
		// Fault injection on the testbed kernel (hash-derived loss draws,
		// sorted retry folds — bit-stable across shard interleavings).
		{"reliability-sweep", []string{
			"-figure", "reliability-sweep", "-rel-n", "14", "-rel-c", "3",
			"-rel-messages", "800", "-rel-seed", "5",
			"-rel-losses", "0,0.05,0.2", "-rel-strategies", "uniform:1,4",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(tc.args, &buf); err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", tc.name+".golden.tsv")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes)", golden, buf.Len())
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("output differs from %s (regenerate with -update if intended)\ngot:\n%s\nwant:\n%s",
					golden, buf.Bytes(), want)
			}
		})
	}
}

// TestGoldenRepeatable: the golden figures are bit-stable within a process
// too — two generations from warm caches match exactly.
func TestGoldenRepeatable(t *testing.T) {
	args := []string{
		"-figure", "churn-sweep", "-churn-n", "15", "-churn-c", "2",
		"-churn-sessions", "100", "-churn-seed", "4",
		"-churn-strategies", "fixed:3",
	}
	var a, b bytes.Buffer
	if err := run(args, &a); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("repeated generation differs:\n%s\nvs\n%s", a.Bytes(), b.Bytes())
	}
}
