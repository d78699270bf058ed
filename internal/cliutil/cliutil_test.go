package cliutil

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"testing"

	"anonmix/internal/scenario"
)

// TestCode pins the shared exit-code contract: 0 success, 2 for
// usage/configuration errors (flag-parse failures included), 1 for
// runtime failures and capability refusals.
func TestCode(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"nil", nil, 0},
		{"bad config", fmt.Errorf("%w: n = 1", scenario.ErrBadConfig), 2},
		{"unknown backend", fmt.Errorf("%w: %q", scenario.ErrUnknownBackend, "x"), 2},
		{"flag error", Usage(errors.New("flag provided but not defined: -x")), 2},
		{"help", flag.ErrHelp, 2},
		{"capability", &scenario.CapabilityError{Backend: "exact", Reason: scenario.ErrProtocol, Detail: "crowds"}, 1},
		{"runtime", errors.New("kernel fault"), 1},
	}
	for _, tc := range cases {
		if got := Code(tc.err); got != tc.want {
			t.Errorf("%s: Code(%v) = %d, want %d", tc.name, tc.err, got, tc.want)
		}
	}
}

// TestUsagePreservesChain asserts that wrapping keeps the original error
// visible to errors.Is and in the printed message.
func TestUsagePreservesChain(t *testing.T) {
	base := fmt.Errorf("%w: bad spec", scenario.ErrBadConfig)
	wrapped := Usage(base)
	if !errors.Is(wrapped, scenario.ErrBadConfig) {
		t.Error("Usage broke the sentinel chain")
	}
	if wrapped.Error() != base.Error() {
		t.Errorf("Usage changed the message: %q != %q", wrapped.Error(), base.Error())
	}
	if Usage(nil) != nil {
		t.Error("Usage(nil) != nil")
	}
	if !errors.Is(Usage(flag.ErrHelp), flag.ErrHelp) || !Silent(Usage(flag.ErrHelp)) {
		t.Error("Usage must pass flag.ErrHelp through as a silent exit")
	}
}

// TestRealFlagSet exercises the intended call pattern against a real
// FlagSet parse failure.
func TestRealFlagSet(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.Int("n", 1, "")
	err := Usage(fs.Parse([]string{"-n", "notanumber"}))
	if err == nil {
		t.Fatal("expected parse error")
	}
	if Code(err) != 2 {
		t.Errorf("flag parse failure: Code = %d, want 2", Code(err))
	}
}
