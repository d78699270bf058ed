package scenario

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"anonmix/internal/faults"
	"anonmix/internal/pathsel"
	"anonmix/internal/scenario/capability"
)

// TestClassify pins the class of every error family a Run caller can
// see, including wrapped chains.
func TestClassify(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want ErrorClass
	}{
		{"nil", nil, ClassRuntime},
		{"bad config", fmt.Errorf("%w: n = 1", ErrBadConfig), ClassBadConfig},
		{"unknown backend", fmt.Errorf("%w: %q", ErrUnknownBackend, "x"), ClassBadConfig},
		{"strategy", fmt.Errorf("%w: empty spec", pathsel.ErrBadStrategy), ClassBadConfig},
		{"fault plan", fmt.Errorf("%w: loss", faults.ErrBadPlan), ClassBadConfig},
		{"capability", capability.Unsupported("exact", capability.ErrProtocol, "crowds"), ClassCapability},
		{"wrapped capability", fmt.Errorf("phase 2: %w",
			capability.Unsupported("mc", capability.ErrFaults, "crash")), ClassCapability},
		{"canceled", context.Canceled, ClassCanceled},
		{"wrapped canceled", fmt.Errorf("%w: %w", ErrCanceled, context.Canceled), ClassCanceled},
		{"deadline", fmt.Errorf("slow: %w", context.DeadlineExceeded), ClassCanceled},
		{"runtime", errors.New("disk on fire"), ClassRuntime},
	}
	for _, tc := range cases {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("%s: Classify(%v) = %v, want %v", tc.name, tc.err, got, tc.want)
		}
	}
}

// TestClassifyEndToEnd classifies errors produced by real Run calls, not
// hand-wrapped ones, so the classification tracks what the layer
// actually returns.
func TestClassifyEndToEnd(t *testing.T) {
	// Invalid configuration.
	_, err := Run(Config{N: 1})
	if Classify(err) != ClassBadConfig {
		t.Errorf("N=1: class %v, want ClassBadConfig (err: %v)", Classify(err), err)
	}
	if ExitCode(err) != 2 {
		t.Errorf("N=1: exit %d, want 2", ExitCode(err))
	}
	// Capability refusal: exact backend on the crowds substrate.
	_, err = Run(Config{
		N: 20, Backend: BackendExact, Protocol: ProtocolCrowds, CrowdsPf: 0.7,
		Adversary: Adversary{Count: 1}, Workload: Workload{Messages: 10},
	})
	if Classify(err) != ClassCapability {
		t.Errorf("exact+crowds: class %v, want ClassCapability (err: %v)", Classify(err), err)
	}
	if ExitCode(err) != 1 {
		t.Errorf("exact+crowds: exit %d, want 1", ExitCode(err))
	}
	// Success.
	_, err = Run(Config{N: 20, StrategySpec: "uniform:0,5", Adversary: Adversary{Count: 1}})
	if err != nil {
		t.Fatalf("valid config failed: %v", err)
	}
	if ExitCode(nil) != 0 {
		t.Errorf("ExitCode(nil) = %d, want 0", ExitCode(nil))
	}
}

// TestErrorClassString pins the wire names the anond API exposes.
func TestErrorClassString(t *testing.T) {
	want := map[ErrorClass]string{
		ClassRuntime:    "runtime",
		ClassBadConfig:  "bad_config",
		ClassCapability: "capability",
		ClassCanceled:   "canceled",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), s)
		}
	}
}
