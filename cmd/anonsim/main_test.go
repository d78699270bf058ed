package main

import (
	"strings"
	"testing"
)

func TestRunUniformStrategy(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-n", "20", "-c", "2", "-strategy", "uniform", "-a", "0", "-b", "6",
		"-messages", "2000", "-seed", "3",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"Testbed: N=20, C=2",
		"Empirical anonymity degree",
		"Exact engine H*(S)",
		"within 4σ) ✓",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestRunFixedAndPresets(t *testing.T) {
	for _, strat := range []string{"fixed", "pipenet", "onionrouting1"} {
		var sb strings.Builder
		err := run([]string{
			"-n", "15", "-c", "1", "-strategy", strat, "-l", "4",
			"-messages", "500", "-seed", "1",
		}, &sb)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if !strings.Contains(sb.String(), "Exact engine") {
			t.Errorf("%s: missing comparison:\n%s", strat, sb.String())
		}
	}
}

func TestRunCrowds(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-n", "15", "-c", "2", "-strategy", "crowds", "-pf", "0.7",
		"-messages", "2000", "-seed", "5",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"Crowds testbed",
		"Reiter–Rubin closed form",
		"Probable innocence",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestRunRoundsDegradation(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-n", "20", "-c", "2", "-backend", "mc", "-strategy", "uniform", "-a", "1", "-b", "5",
		"-messages", "600", "-rounds", "5", "-seed", "3",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"Degradation over 5 rounds (600 sessions)",
		"round k",
		"H_k (bits)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestRunCrowdsRounds(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-n", "16", "-c", "2", "-strategy", "crowds", "-pf", "0.7",
		"-messages", "300", "-rounds", "4", "-seed", "2",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"1200 messages from honest jondos",
		"top predecessor count",
		"Degradation over 4 rounds (300 sessions)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-strategy", "bogus"}, &sb); err == nil {
		t.Error("unknown strategy accepted")
	}
	if err := run([]string{"-n", "1"}, &sb); err == nil {
		t.Error("n=1 accepted")
	}
	if err := run([]string{"-zzz"}, &sb); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run([]string{"-rounds", "-2"}, &sb); err == nil {
		t.Error("negative rounds accepted")
	}
	if err := run([]string{"-strategy", "crowds", "-pf", "1.5"}, &sb); err == nil {
		t.Error("pf=1.5 accepted")
	}
}

// TestRunEpochs: the -epochs flag drives a dynamic-population run end to
// end, printing the per-epoch trajectory; a messages timeline supersedes
// the -messages default without requiring -messages 0.
func TestRunEpochs(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-n", "20", "-c", "3", "-strategy", "uniform", "-a", "1", "-b", "5",
		"-epochs", "msgs=2000;msgs=2000,join=10,comp=2;msgs=2000,leave=5",
		"-seed", "3",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"Dynamic population (3 epochs)",
		"within 4σ) ✓", // blended empirical vs exact mixture
		"30      5",    // epoch 1: N=30 after 10 joins, C=5 after 2 compromises
		"25      5",    // epoch 2: N=25 after 5 leaves
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
}

// TestRunEpochsRounds: a rounds timeline degrades across phases and prints
// both the epoch table and the blended curve.
func TestRunEpochsRounds(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-n", "16", "-c", "2", "-strategy", "fixed", "-l", "3",
		"-backend", "exact", "-epochs", "rounds=3;rounds=3,comp=3",
		"-messages", "400", "-seed", "5",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"Dynamic population (2 epochs)",
		"Degradation over 6 rounds (400 sessions)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
}

// TestRunEpochsErrors: malformed epoch specs fail with the scenario
// layer's uniform configuration error.
func TestRunEpochsErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-epochs", "warp=3"},
		{"-epochs", "msgs=100;rounds=2"},
		{"-epochs", "msgs=100", "-messages", "50"},
	} {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestRunFaults(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-n", "20", "-c", "2", "-strategy", "uniform", "-a", "1", "-b", "5",
		"-messages", "2000", "-seed", "3",
		"-faults", "loss=0.1", "-policy", "reroute", "-attempts", "6",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"Fault plan loss=0.1, policy reroute:",
		"Delivery rate",
		"attempts/message",
		"Retry-degraded H*(S)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestRunFaultsErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-faults", "loss=1.5"},               // bad plan value
		{"-faults", "loss"},                   // not key=value
		{"-policy", "teleport"},               // unknown policy
		{"-policy", "reroute"},                // policy without a plan
		{"-faults", "crash=99@5", "-n", "10"}, // crash node outside population
	} {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("args %v: expected error, got output:\n%s", args, sb.String())
		}
	}
}
