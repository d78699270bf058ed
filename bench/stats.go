package main

import (
	"math"
	"slices"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// sorted: the smallest sample with at least p% of the samples at or below
// it. It returns 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// median is the 50th nearest-rank percentile of unsorted samples.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return percentile(s, 50)
}

// tail is a latency tail that the sample can support.
type tail struct {
	// Value is the sample at the tail percentile.
	Value float64
	// Pct is the percentile reported.
	Pct float64
	// Beyond is the number of samples above it.
	Beyond int
}

// tailPercentile is the benchmark's tail rule for n samples: p99 when
// there are at least 1,000 of them, and otherwise the highest percentile
// that still has ten samples beyond it. Below eleven samples no percentile
// has ten beyond; the maximum is reported.
func tailPercentile(n int) float64 {
	switch {
	case n >= 1000:
		return 99
	case n <= 10:
		return 100
	default:
		return 100 * float64(n-10) / float64(n)
	}
}

// tailAt is the nearest-rank p-th percentile of sorted samples, with the
// number of samples beyond it.
func tailAt(sorted []float64, p float64) tail {
	if len(sorted) == 0 {
		return tail{}
	}
	// Less a hair, so that a product like n·(1 - 10/n) that rounds up past
	// a whole rank still lands on it.
	rank := min(max(int(math.Ceil(p/100*float64(len(sorted))-1e-9)), 1), len(sorted))
	return tail{Value: sorted[rank-1], Pct: p, Beyond: len(sorted) - rank}
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// latencies sorts per-op durations as fractional milliseconds.
func latencies(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	slices.Sort(out)
	return out
}

// normalQuantile is the standard normal quantile function Φ⁻¹(p), by
// bisection on math.Erfc (accurate to far below what a check band needs).
func normalQuantile(p float64) float64 {
	lo, hi := -40.0, 40.0
	for range 200 {
		mid := (lo + hi) / 2
		if 0.5*math.Erfc(-mid/math.Sqrt2) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// sigmaBand returns the z-score a sampled estimate may deviate from its
// exact reference when m estimates are checked in one run. A single check
// gets the 4σ band; m checks share its two-sided false-alarm probability
// (Bonferroni), so a run with thousands of estimates is no more likely to
// fail by chance than a run with one.
func sigmaBand(m int) float64 {
	if m <= 1 {
		return 4
	}
	alpha := math.Erfc(4 / math.Sqrt2) // two-sided P(|Z| > 4)
	return normalQuantile(1 - alpha/(2*float64(m)))
}
