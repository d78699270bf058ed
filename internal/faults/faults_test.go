package faults

import (
	"errors"
	"math"
	"testing"
	"time"

	"anonmix/internal/dist"
	"anonmix/internal/trace"
)

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		in   string
		want Policy
		ok   bool
	}{
		{"", PolicyNone, true},
		{"none", PolicyNone, true},
		{"Retransmit", PolicyRetransmit, true},
		{"retry", PolicyRetransmit, true},
		{" reroute ", PolicyReroute, true},
		{"bogus", 0, false},
	}
	for _, c := range cases {
		got, err := ParsePolicy(c.in)
		if c.ok != (err == nil) {
			t.Fatalf("ParsePolicy(%q): err = %v, want ok=%v", c.in, err, c.ok)
		}
		if err == nil && got != c.want {
			t.Errorf("ParsePolicy(%q) = %v, want %v", c.in, got, c.want)
		}
		if err != nil && !errors.Is(err, ErrBadPlan) {
			t.Errorf("ParsePolicy(%q) error %v not ErrBadPlan", c.in, err)
		}
	}
	if PolicyReroute.String() != "reroute" || Policy(77).String() == "" {
		t.Errorf("Policy.String misbehaves: %v %v", PolicyReroute, Policy(77))
	}
}

func TestParseFaults(t *testing.T) {
	plan, err := ParseFaults("loss=0.05, jitter=3, crash=3@100-200, crash=7@150")
	if err != nil {
		t.Fatalf("ParseFaults: %v", err)
	}
	if plan.LinkLoss != 0.05 || plan.Jitter != 3 {
		t.Errorf("plan = %+v", plan)
	}
	want := []Crash{{Node: 3, At: 100, Recover: 200}, {Node: 7, At: 150}}
	if len(plan.Crashes) != 2 || plan.Crashes[0] != want[0] || plan.Crashes[1] != want[1] {
		t.Errorf("crashes = %+v, want %+v", plan.Crashes, want)
	}
	if !plan.Active() {
		t.Error("plan should be active")
	}
	// Round trip through String.
	again, err := ParseFaults(plan.String())
	if err != nil || again.LinkLoss != plan.LinkLoss || len(again.Crashes) != 2 {
		t.Errorf("round trip %q: %+v, %v", plan.String(), again, err)
	}

	bad := []string{
		"loss",                     // not key=value
		"loss=x",                   // unparsable float
		"loss=2",                   // outside [0,1] (check-level)
		"loss=0.1,loss=0.2",        // duplicate
		"jitter=-1",                // negative
		"jitter=1,jitter=2",        // duplicate
		"crash=3",                  // missing @time
		"crash=x@5",                // bad node
		"crash=-1@5",               // negative node
		"crash=3@x",                // bad time
		"crash=3@5-x",              // bad recover
		"crash=3@10-5",             // recover before crash
		"crash=3@10,crash=3@20",    // overlap: first never recovers
		"crash=3@10-50,crash=3@20", // overlapping windows
		"volume=11",                // unknown key
	}
	for _, s := range bad {
		if _, err := ParseFaults(s); !errors.Is(err, ErrBadPlan) {
			t.Errorf("ParseFaults(%q) = %v, want ErrBadPlan", s, err)
		}
	}

	// Empty plan parses (injects nothing).
	empty, err := ParseFaults("")
	if err != nil || empty.Active() {
		t.Errorf("empty plan: %+v, %v", empty, err)
	}
}

func TestPlanValidate(t *testing.T) {
	plan := &Plan{LinkLoss: 0.1, Crashes: []Crash{{Node: 9, At: 5}}}
	if err := plan.Validate(10); err != nil {
		t.Fatalf("Validate(10): %v", err)
	}
	if err := plan.Validate(9); !errors.Is(err, ErrBadPlan) {
		t.Errorf("Validate(9) = %v, want ErrBadPlan (node out of range)", err)
	}
	var nilPlan *Plan
	if nilPlan.Active() {
		t.Error("nil plan is active")
	}
	if err := nilPlan.Validate(10); !errors.Is(err, ErrBadPlan) {
		t.Errorf("nil Validate = %v, want ErrBadPlan", err)
	}
	if err := (&Plan{LinkLoss: math.NaN()}).Validate(10); !errors.Is(err, ErrBadPlan) {
		t.Errorf("NaN loss accepted")
	}
	if err := (&Plan{Jitter: -time.Nanosecond}).Validate(10); !errors.Is(err, ErrBadPlan) {
		t.Errorf("negative jitter accepted")
	}
	// Adjacent windows (recover == next crash) are fine.
	seq := &Plan{Crashes: []Crash{{Node: 1, At: 10, Recover: 20}, {Node: 1, At: 20, Recover: 30}}}
	if err := seq.Validate(5); err != nil {
		t.Errorf("adjacent windows rejected: %v", err)
	}
}

func TestBackoff(t *testing.T) {
	if got := Backoff(4, 0); got != 4 {
		t.Errorf("Backoff(4,0) = %d", got)
	}
	if got := Backoff(4, 3); got != 32 {
		t.Errorf("Backoff(4,3) = %d", got)
	}
	// The cap freezes growth.
	if Backoff(4, BackoffCap) != Backoff(4, BackoffCap+10) {
		t.Error("backoff not capped")
	}
	want := uint64(4 + 8 + 16)
	if got := BackoffBudget(4, 4); got != want {
		t.Errorf("BackoffBudget(4,4) = %d, want %d", got, want)
	}
	if BackoffBudget(4, 1) != 0 || BackoffBudget(4, 0) != 0 {
		t.Error("budget of a single attempt must be zero")
	}
}

func TestLostDeterministicAndCalibrated(t *testing.T) {
	// Pure function: identical arguments, identical outcome.
	for i := 0; i < 100; i++ {
		msg, hop, att := trace.MessageID(i*7), uint64(i%5), uint64(i%3)
		if Lost(42, msg, hop, att, 0.3) != Lost(42, msg, hop, att, 0.3) {
			t.Fatal("Lost is not deterministic")
		}
	}
	if Lost(1, 2, 3, 4, 0) || !Lost(1, 2, 3, 4, 1) {
		t.Error("degenerate probabilities mishandled")
	}
	// Empirical rate within a loose tolerance of p.
	const p, trials = 0.2, 200000
	lost := 0
	for i := 0; i < trials; i++ {
		if Lost(7, trace.MessageID(i), 1, 0, p) {
			lost++
		}
	}
	rate := float64(lost) / trials
	if math.Abs(rate-p) > 0.01 {
		t.Errorf("empirical loss rate %.4f, want ~%.2f", rate, p)
	}
	// Attempt index decorrelates draws of the same (msg, hop).
	same := 0
	for i := 0; i < trials; i++ {
		if Lost(7, trace.MessageID(i), 1, 0, 0.5) == Lost(7, trace.MessageID(i), 1, 1, 0.5) {
			same++
		}
	}
	if f := float64(same) / trials; math.Abs(f-0.5) > 0.01 {
		t.Errorf("attempt draws correlated: agreement %.4f", f)
	}
}

func TestEffectiveLength(t *testing.T) {
	base, err := dist.NewUniform(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	// q = 0 is the identity.
	eff, rate, err := EffectiveLength(base, 0)
	if err != nil || rate != 1 || eff != dist.Length(base) {
		t.Fatalf("q=0: %v %v %v", eff, rate, err)
	}
	const q = 0.1
	eff, rate, err = EffectiveLength(base, q)
	if err != nil {
		t.Fatal(err)
	}
	// Hand-computed: rate = mean over l∈{1,2,3} of (1-q)^(l+1).
	want := (math.Pow(0.9, 2) + math.Pow(0.9, 3) + math.Pow(0.9, 4)) / 3
	if math.Abs(rate-want) > 1e-12 {
		t.Errorf("rate = %v, want %v", rate, want)
	}
	if err := dist.Validate(eff); err != nil {
		t.Errorf("effective dist invalid: %v", err)
	}
	// Shorter paths survive more often: the effective mean shrinks.
	if eff.Mean() >= base.Mean() {
		t.Errorf("effective mean %v not below base mean %v", eff.Mean(), base.Mean())
	}
	// Total loss: no delivery, nil distribution.
	eff, rate, err = EffectiveLength(base, 1)
	if err != nil || eff != nil || rate != 0 {
		t.Errorf("q=1: %v %v %v", eff, rate, err)
	}
	if _, _, err := EffectiveLength(nil, 0.5); err == nil {
		t.Error("nil distribution accepted")
	}
	if _, _, err := EffectiveLength(base, 1.5); !errors.Is(err, ErrBadPlan) {
		t.Error("out-of-range q accepted")
	}
}
