package pathsel_test

// Fuzz target for the strategy registry, mirroring onion.FuzzBuildPeel:
// arbitrary specs must never panic Lookup, a repeated Lookup must answer
// as the first did, every rejection must carry the ErrBadStrategy
// identity, and a resolved strategy must survive the sampler pipeline.

import (
	"errors"
	"reflect"
	"testing"
	"unicode"

	"anonmix/internal/pathsel"
	"anonmix/internal/stats"
)

// FuzzStrategyLookup is seeded from the registry's documented spec shapes
// plus the known-rejected forms of the registry tests.
func FuzzStrategyLookup(f *testing.F) {
	for _, seed := range []string{
		"freedom", "pipenet", "anonymizer", "lpwa", "onionrouting1",
		"fixed:5", "uniform:0,10", "remailer:2",
		"crowds:0.75,20", "onionrouting2:0.8", "hordes:0.7,12",
		"FIXED: 5 ", " crowds : 0.7 ",
		"", ":", "fixed", "fixed:", "fixed:x", "fixed:1,2", "uniform:5",
		"crowds:1.5", "crowds:-1", "warp:9", "freedom:1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		// Bound construction cost, not the parse space: the truncated
		// geometric constructor is linear in maxLen, so specs with huge
		// numeric arguments would turn the fuzzer into a benchmark.
		digits := 0
		for _, r := range spec {
			if unicode.IsDigit(r) {
				if digits++; digits > 6 {
					return
				}
			} else {
				digits = 0
			}
		}
		s, err := pathsel.Lookup(spec)
		// A second Lookup, memoized or parsed again, answers the same.
		again, errAgain := pathsel.Lookup(spec)
		switch {
		case (err == nil) != (errAgain == nil):
			t.Fatalf("Lookup(%q) answered %v, then %v", spec, err, errAgain)
		case err != nil && err.Error() != errAgain.Error():
			t.Fatalf("Lookup(%q) failed with %q, then %q", spec, err, errAgain)
		case err == nil && !reflect.DeepEqual(s, again):
			t.Fatalf("Lookup(%q) returned %v, then %v", spec, s, again)
		}
		if err != nil {
			if !errors.Is(err, pathsel.ErrBadStrategy) {
				t.Fatalf("Lookup(%q) escaped with %v", spec, err)
			}
			return
		}
		// A resolved strategy is a real strategy: it validates against a
		// system large enough for every registry family, or fails with the
		// strategy error identity (e.g. simple paths longer than n−1).
		const n = 50
		if err := s.Validate(n); err != nil {
			if !errors.Is(err, pathsel.ErrBadStrategy) {
				t.Fatalf("Validate of %q escaped with %v", spec, err)
			}
			return
		}
		sel, err := pathsel.NewSelector(n, s)
		if err != nil {
			t.Fatalf("NewSelector of valid %q: %v", spec, err)
		}
		sp, err := sel.NewSampler()
		if err != nil {
			t.Fatalf("NewSampler of valid %q: %v", spec, err)
		}
		rng := stats.NewStream(1, 0)
		path, err := sp.SelectPath(&rng, 3)
		if err != nil {
			t.Fatalf("SelectPath of valid %q: %v", spec, err)
		}
		lo, hi := s.Length.Support()
		if len(path) < lo || len(path) > hi {
			t.Fatalf("path length %d outside support [%d,%d] for %q", len(path), lo, hi, spec)
		}
	})
}
