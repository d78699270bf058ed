package main

import (
	"math"
	"testing"
	"time"
)

// ramp returns the sorted samples 1, 2, ..., n.
func ramp(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want tail
	}{
		{0, tail{}},
		{5, tail{Value: 5, Pct: 100}},
		{10, tail{Value: 10, Pct: 100}},
		{11, tail{Value: 1, Pct: 100.0 / 11, Beyond: 10}},
		{200, tail{Value: 190, Pct: 95, Beyond: 10}},
		{999, tail{Value: 989, Pct: 100 * 989.0 / 999, Beyond: 10}},
		{1000, tail{Value: 990, Pct: 99, Beyond: 10}},
		{5000, tail{Value: 4950, Pct: 99, Beyond: 50}},
	} {
		got := tailAt(ramp(tc.n), tailPercentile(tc.n))
		if got.Value != tc.want.Value || got.Beyond != tc.want.Beyond || math.Abs(got.Pct-tc.want.Pct) > 1e-9 {
			t.Errorf("n = %d: tail = %+v, want %+v", tc.n, got, tc.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := ramp(10)
	for p, want := range map[float64]float64{10: 1, 50: 5, 51: 6, 99: 10, 100: 10} {
		if got := percentile(s, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestSigmaBand(t *testing.T) {
	if got := sigmaBand(1); got != 4 {
		t.Errorf("one check: band %v, want 4", got)
	}
	prev := 4.0
	for _, m := range []int{2, 10, 1000, 100000} {
		got := sigmaBand(m)
		if got <= prev {
			t.Errorf("band for %d checks %v not wider than %v", m, got, prev)
		}
		// m checks at the widened band fail by chance as often as one
		// check at 4σ.
		if p, want := float64(m)*math.Erfc(got/math.Sqrt2), math.Erfc(4/math.Sqrt2); math.Abs(p/want-1) > 1e-6 {
			t.Errorf("m = %d: family-wise false alarm %v, want %v", m, p, want)
		}
		prev = got
	}
}

func TestLatenciesSortsMilliseconds(t *testing.T) {
	got := latencies([]time.Duration{3 * time.Millisecond, 1500 * time.Microsecond})
	if got[0] != 1.5 || got[1] != 3 {
		t.Errorf("latencies = %v", got)
	}
}

func TestAnotherPassEndsRunsInTime(t *testing.T) {
	s := time.Second
	for _, tc := range []struct {
		passes  int
		elapsed time.Duration
		want    bool
	}{
		{0, 0, true},
		{2, time.Hour, true}, // fewer than minPasses
		{3, 6 * s, true},     // a fourth pass of 2 s ends at 8 s
		{3, 7 * s, false},    // one of 2.33 s would end at 9.33 s
		{4, 8 * s, false},
	} {
		if got := another(tc.passes, tc.elapsed, 8*s); got != tc.want {
			t.Errorf("%d passes in %v of 8 s: another = %v, want %v", tc.passes, tc.elapsed, got, tc.want)
		}
	}
}

func TestSetPassesPoolsOps(t *testing.T) {
	// Five passes of 100 ops; in pass k every op takes k+1 ms and the pass
	// takes (k+1)/10 s. The pool holds 100 ops of each duration: its median
	// is 3 ms, and the tail rule's p90 for a list of 100 is 5 ms. Passes
	// measured on a machine twice as fast as the reference (Scale 2) read
	// twice as long, every time but memory.
	for _, scale := range []float64{1, 2} {
		var ps []passStats
		for k := range 5 {
			d := time.Duration(k+1) * time.Millisecond
			p := passStats{Setup: float64(k + 1), RSS: float64(10 * (k + 1)), Results: make([]float64, 100), Wall: 100 * d, Scale: scale}
			for range 100 {
				p.Latency = append(p.Latency, d)
			}
			ps = append(ps, p)
		}
		r := newReport()
		r.setPasses(ps)
		want := map[string]float64{"setup_s": 3 * scale, "op_p50_ms": 3 * scale, "op_tail_ms": 5 * scale,
			"throughput_ops_s": 500 / (1.5 * scale), "rss_mb": 30}
		for name, w := range want {
			if got := r.values[name]; math.Abs(got-w) > 1e-9 {
				t.Errorf("scale %v: %s = %v, want %v", scale, name, got, w)
			}
		}
	}
}
