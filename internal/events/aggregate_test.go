package events_test

// Equivalence tests for the shape-group engine: everything the aggregate
// queries compute must match the Θ(3^C) per-class enumeration of the test
// oracle (enumerate_test.go) wherever it is still feasible (C ≤ 12),
// across distribution families, receiver assumptions, and inference modes.

import (
	"math"
	"testing"
	"time"

	"anonmix/internal/dist"
	"anonmix/internal/events"
	"anonmix/internal/pool"
	"anonmix/internal/stats"
)

// equivalenceDists is the distribution-family grid of the equivalence
// sweep. Supports stay ≤ 12 so the c = 10..12 class spaces (up to ~800k
// concrete classes) remain enumerable in test time.
func equivalenceDists(t *testing.T) []dist.Length {
	t.Helper()
	geom, err := dist.NewGeometric(0.75, 1, 12)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := dist.NewTwoPoint(3, 11, 0.35)
	if err != nil {
		t.Fatal(err)
	}
	poi, err := dist.NewPoisson(5, 0, 12)
	if err != nil {
		t.Fatal(err)
	}
	return []dist.Length{
		mustFixed(t, 7),
		mustUniform(t, 2, 12),
		geom,
		tp,
		poi,
	}
}

// enumeratedDegree recomputes H*(S) from the per-class enumeration, the
// reference for AnonymityDegree.
func enumeratedDegree(t *testing.T, e *events.Engine, d dist.Length) float64 {
	t.Helper()
	all, err := e.ClassStats(d)
	if err != nil {
		t.Fatal(err)
	}
	var h float64
	for _, st := range all {
		h += st.P * st.H
	}
	return h * float64(e.N()-e.C()) / float64(e.N())
}

// TestBucketedMatchesEnumeratedDegree sweeps every C the enumeration can
// still reach across the distribution-family grid, both receiver options,
// and every inference mode (hop-count at C ≤ 1 with a compromised
// receiver), asserting the group fold of AnonymityDegree agrees with the
// enumerated sum to ≤ 1e-12.
func TestBucketedMatchesEnumeratedDegree(t *testing.T) {
	ds := equivalenceDists(t)
	modes := []events.InferenceMode{events.InferenceStandard, events.InferenceFullPosition, events.InferenceHopCount}
	for c := 0; c <= 10; c++ {
		for _, recv := range []bool{true, false} {
			for _, mode := range modes {
				if mode == events.InferenceHopCount && (c > 1 || !recv) {
					continue
				}
				opts := []events.Option{events.WithInference(mode)}
				if !recv {
					opts = append(opts, events.WithUncompromisedReceiver())
				}
				e := mustEngine(t, 40, c, opts...)
				for _, d := range ds {
					got, err := e.AnonymityDegree(d)
					if err != nil {
						t.Fatal(err)
					}
					want := enumeratedDegree(t, e, d)
					if math.Abs(got-want) > 1e-12 {
						t.Errorf("c=%d recv=%v mode=%v %s: bucketed %.15f, enumerated %.15f (Δ=%.3g)",
							c, recv, mode, d, got, want, got-want)
					}
				}
			}
		}
	}
	// The top of the enumerable range (c = 11, 12 ≈ 265k / 797k concrete
	// classes) gets one configuration per c to bound test time.
	for _, c := range []int{11, 12} {
		for _, mode := range modes[:2] {
			e := mustEngine(t, 40, c, events.WithInference(mode))
			d := mustUniform(t, 2, 10)
			got, err := e.AnonymityDegree(d)
			if err != nil {
				t.Fatal(err)
			}
			want := enumeratedDegree(t, e, d)
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("c=%d mode=%v: bucketed %.15f, enumerated %.15f", c, mode, got, want)
			}
		}
	}
}

// TestBucketedWeightsMatchEnumeratedDegree drives the Count-weighted
// objective reconstruction from Weights across random mass functions and
// checks it against the enumerated reference, tying the optimizer's
// decomposition to the per-class ground truth.
func TestBucketedWeightsMatchEnumeratedDegree(t *testing.T) {
	rng := stats.NewRand(20260730)
	for _, c := range []int{2, 5, 9} {
		e := mustEngine(t, 35, c)
		weights, err := e.Weights(0, 16)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 6; trial++ {
			d, err := randomPMF(rng, 16)
			if err != nil {
				t.Fatal(err)
			}
			var h float64
			for _, cw := range weights {
				var sp, sp0 float64
				for l := 0; l <= 16; l++ {
					p := d.PMF(l)
					sp += cw.W[l] * p
					sp0 += cw.W0[l] * p
				}
				if sp <= 0 {
					continue
				}
				alpha := sp0 / sp
				var f float64
				switch {
				case cw.UniformOverAll:
					f = math.Log2(float64(cw.Rest))
				case cw.Rest <= 0:
					f = 0
				case alpha >= 1:
					f = 0
				case alpha <= 0:
					f = math.Log2(float64(cw.Rest))
				default:
					q := 1 - alpha
					f = -alpha*math.Log2(alpha) - q*math.Log2(q/float64(cw.Rest))
				}
				h += cw.Count * sp * f
			}
			h *= float64(35-c) / 35
			want := enumeratedDegree(t, e, d)
			if math.Abs(h-want) > 1e-12 {
				t.Errorf("c=%d trial %d: weights objective %.15f, enumerated %.15f", c, trial, h, want)
			}
		}
	}
}

// TestLargeCDegreeFast is the acceptance gate of the shape-group engine: the
// configuration the exponential path could never touch (N = 1000, C = 400,
// 40% corruption) must evaluate exactly, agree with the partition-of-unity
// check, and complete in well under a second on a single worker.
func TestLargeCDegreeFast(t *testing.T) {
	prev := pool.SetWorkers(1)
	defer pool.SetWorkers(prev)
	start := time.Now()
	e := mustEngine(t, 1000, 400)
	d := mustUniform(t, 2, 20)
	h, err := e.AnonymityDegree(d)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("large-C degree took %v, want < 1s single-core", elapsed)
	}
	if h <= 0 || h >= e.MaxAnonymity() {
		t.Errorf("H* = %v outside (0, log2 N)", h)
	}
	// 40% corruption must cost anonymity relative to a C = 40 system.
	small := mustEngine(t, 1000, 40)
	hs, err := small.AnonymityDegree(d)
	if err != nil {
		t.Fatal(err)
	}
	if !(h < hs) {
		t.Errorf("H*(C=400) = %v should be below H*(C=40) = %v", h, hs)
	}
}

// TestBucketedDegreeMonotoneInC extends the more-compromised-is-worse
// invariant far beyond the old C ≤ 12 cap.
func TestBucketedDegreeMonotoneInC(t *testing.T) {
	d := mustUniform(t, 2, 20)
	prev := math.Inf(1)
	for _, c := range []int{0, 5, 12, 13, 20, 40, 80, 160, 320, 640, 999, 1000} {
		e := mustEngine(t, 1000, c)
		h, err := e.AnonymityDegree(d)
		if err != nil {
			t.Fatal(err)
		}
		if h > prev+1e-12 {
			t.Errorf("c=%d: H* = %v > previous %v; more compromised nodes should not help", c, h, prev)
		}
		prev = h
	}
	// The fully compromised system is degenerate but well-defined: every
	// sender is the adversary's, so H* short-circuits to exactly 0.
	if prev != 0 {
		t.Errorf("H*(C=N) = %v, want exactly 0", prev)
	}
}
