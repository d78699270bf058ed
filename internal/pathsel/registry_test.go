package pathsel

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"anonmix/internal/stats"
	"anonmix/internal/trace"
)

func TestLookupPresets(t *testing.T) {
	cases := []struct {
		spec string
		name string
		kind PathKind
		mean float64
	}{
		{"anonymizer", "Anonymizer", Simple, 1},
		{"lpwa", "LPWA", Simple, 1},
		{"freedom", "Freedom", Simple, 3},
		{"onionrouting1", "Onion Routing I", Simple, 5},
		{"pipenet", "PipeNet", Simple, 3.5},
		{"fixed:5", "F(5)", Simple, 5},
		{" Fixed:5 ", "F(5)", Simple, 5}, // case/space-insensitive
		{"uniform:0,10", "U(0,10)", Simple, 5},
		{"remailer:4", "Anonymous Remailer", Simple, 4},
	}
	for _, tc := range cases {
		s, err := Lookup(tc.spec)
		if err != nil {
			t.Errorf("%q: %v", tc.spec, err)
			continue
		}
		if s.Name != tc.name || s.Kind != tc.kind {
			t.Errorf("%q: got %s/%v, want %s/%v", tc.spec, s.Name, s.Kind, tc.name, tc.kind)
		}
		if math.Abs(s.Length.Mean()-tc.mean) > 1e-12 {
			t.Errorf("%q: mean %v, want %v", tc.spec, s.Length.Mean(), tc.mean)
		}
	}
}

func TestLookupGeometricFamilies(t *testing.T) {
	s, err := Lookup("crowds:0.75,20")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "Crowds" || s.Kind != Complicated {
		t.Errorf("crowds: %+v", s)
	}
	if _, hi := s.Length.Support(); hi != 20 {
		t.Errorf("crowds maxLen = %d", hi)
	}
	// Omitted maxLen falls back to the documented default.
	s, err = Lookup("onionrouting2:0.5")
	if err != nil {
		t.Fatal(err)
	}
	if _, hi := s.Length.Support(); hi != DefaultGeometricMax {
		t.Errorf("default maxLen = %d, want %d", hi, DefaultGeometricMax)
	}
	if _, err := Lookup("hordes:0.7,15"); err != nil {
		t.Error(err)
	}
}

func TestLookupErrors(t *testing.T) {
	for _, spec := range []string{
		"bogus", "", "fixed", "fixed:x", "fixed:1,2", "uniform:3",
		"crowds", "crowds:1.5", "pipenet:3", "uniform:5,2",
	} {
		if _, err := Lookup(spec); err == nil {
			t.Errorf("%q accepted", spec)
		} else if !errors.Is(err, ErrBadStrategy) {
			t.Errorf("%q: err %v not ErrBadStrategy", spec, err)
		}
	}
	// An unknown name lists every entry, sorted (Specs).
	const known = "known: anonymizer, crowds, fixed, freedom, hordes, lpwa, onionrouting1, onionrouting2, pipenet, remailer, uniform)"
	if _, err := Lookup("nope:1"); !errors.Is(err, ErrUnknownStrategy) || !strings.HasSuffix(err.Error(), known) {
		t.Errorf("unknown name err = %v, want ErrUnknownStrategy ending %q", err, known)
	}
}

// memoLen reads the parsed-spec memo's size under its lock.
func memoLen() int {
	memoMu.RLock()
	defer memoMu.RUnlock()
	return len(memo)
}

// memoized reports whether spec has a memoized parse.
func memoized(spec string) bool {
	memoMu.RLock()
	defer memoMu.RUnlock()
	_, ok := memo[spec]
	return ok
}

// TestLookupMemoRepeats pins that a repeated spec returns a strategy
// equal to its first parse, from the memo and without allocating.
func TestLookupMemoRepeats(t *testing.T) {
	first, err := Lookup("uniform:2,9")
	if err != nil {
		t.Fatal(err)
	}
	if !memoized("uniform:2,9") {
		t.Fatal("a successful parse was not memoized")
	}
	again, err := Lookup("uniform:2,9")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Errorf("repeated Lookup returned %v, first %v", again, first)
	}
	if raceEnabled {
		return // allocation counts are meaningless under the race detector
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = Lookup("uniform:2,9") }); allocs != 0 {
		t.Errorf("memoized Lookup made %v allocations, want 0", allocs)
	}
}

// TestLookupMemoFailures pins that a failed spec is never memoized and
// fails with the same error text every time.
func TestLookupMemoFailures(t *testing.T) {
	for _, spec := range []string{"fixed:x", "uniform:5,2", "nope:1", ""} {
		_, first := Lookup(spec)
		_, again := Lookup(spec)
		if first == nil || again == nil {
			t.Fatalf("%q: errors %v, %v; want two failures", spec, first, again)
		}
		if first.Error() != again.Error() {
			t.Errorf("%q: error text changed from %q to %q", spec, first, again)
		}
		if memoized(spec) {
			t.Errorf("%q: failed parse was memoized", spec)
		}
	}
}

// TestLookupMemoBound pins the memo's bounds: more distinct valid specs
// than maxMemoSpecs leave at most maxMemoSpecs entries, and a valid spec
// longer than maxMemoSpecLen parses but is not kept.
func TestLookupMemoBound(t *testing.T) {
	for i := range maxMemoSpecs + 100 {
		if _, err := Lookup(fmt.Sprintf("fixed:%d", i)); err != nil {
			t.Fatal(err)
		}
		if n := memoLen(); n > maxMemoSpecs {
			t.Fatalf("memo holds %d entries after %d specs, bound %d", n, i+1, maxMemoSpecs)
		}
	}
	long := "fixed:" + strings.Repeat(" ", maxMemoSpecLen) + "5"
	s, err := Lookup(long)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "F(5)" {
		t.Errorf("padded spec parsed to %v", s)
	}
	if memoized(long) {
		t.Errorf("a %d-byte spec was memoized, bound %d", len(long), maxMemoSpecLen)
	}
}

// TestLookupMemoConcurrent runs concurrent Lookups that fill and read
// the memo; under -race it checks the memo's locking. Every Lookup
// returns its own spec's parse.
func TestLookupMemoConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				hi := 2 + (g+i)%8
				s, err := Lookup(fmt.Sprintf("uniform:1,%d", hi))
				if err != nil {
					t.Error(err)
					return
				}
				if _, got := s.Length.Support(); got != hi {
					t.Errorf("uniform:1,%d resolved to %v", hi, s)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestSparsePathFastPath: the rejection-sampling path must produce valid
// simple paths (distinct intermediates, never the sender) on a large
// system without O(N) work per draw.
func TestSparsePathFastPath(t *testing.T) {
	const n = 500_000
	s, err := Lookup("uniform:0,8")
	if err != nil {
		t.Fatal(err)
	}
	sel, err := NewSelector(n, s)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sel.NewSampler()
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		rng := stats.NewStream(42, int64(trial))
		sender := trace.NodeID(rng.Intn(n))
		path, err := sp.SelectPath(&rng, sender)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[trace.NodeID]bool{sender: true}
		for _, v := range path {
			if seen[v] {
				t.Fatalf("trial %d: repeated node %v in %v", trial, v, path)
			}
			seen[v] = true
		}
	}
}

func TestSplitSpecs(t *testing.T) {
	got := SplitSpecs(" freedom ; uniform:1,5 ;; fixed:7 ")
	want := []string{"freedom", "uniform:1,5", "fixed:7"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("got[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if SplitSpecs("") != nil {
		t.Error("empty list should be nil")
	}
}
