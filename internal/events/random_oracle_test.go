package events_test

// Randomized cross-validation: the engine must match the brute-force
// oracle for arbitrary path-length mass functions, not just the structured
// families used in the main oracle test. Distributions are generated from
// a seeded source so failures reproduce.

import (
	"fmt"
	"math"
	"testing"

	"anonmix/internal/dist"
	"anonmix/internal/events"
	"anonmix/internal/stats"
)

// randomPMF draws a random mass function on [0, hi] with occasional zero
// atoms and spiky shapes.
func randomPMF(rng interface{ Float64() float64 }, hi int) (dist.PMF, error) {
	mass := make([]float64, hi+1)
	var sum float64
	for i := range mass {
		v := rng.Float64()
		switch {
		case v < 0.25:
			mass[i] = 0 // sparse support
		case v < 0.35:
			mass[i] = v * 10 // occasional spike
		default:
			mass[i] = v
		}
		sum += mass[i]
	}
	if sum == 0 {
		mass[0] = 1
		sum = 1
	}
	for i := range mass {
		mass[i] /= sum
	}
	return dist.NewPMF(0, mass)
}

func TestEngineMatchesBruteForceRandomDists(t *testing.T) {
	cfgs := []oracleConfig{
		{n: 7, c: 1, receiverCompromised: true},
		{n: 7, c: 2, receiverCompromised: true},
		{n: 8, c: 3, receiverCompromised: true},
		{n: 7, c: 2, receiverCompromised: false},
		{n: 7, c: 2, receiverCompromised: true, positionOracle: true},
	}
	rng := stats.NewRand(20240610)
	for _, cfg := range cfgs {
		cfg := cfg
		for trial := 0; trial < 6; trial++ {
			d, err := randomPMF(rng, 4)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("n=%d c=%d recv=%v pos=%v trial=%d",
				cfg.n, cfg.c, cfg.receiverCompromised, cfg.positionOracle, trial)
			t.Run(name, func(t *testing.T) {
				e := engineFor(t, cfg)
				got, err := e.AnonymityDegree(d)
				if err != nil {
					t.Fatal(err)
				}
				want := bruteForceH(t, cfg, d)
				if math.Abs(got-want) > 1e-12 {
					t.Errorf("dist %s: engine %.12f, oracle %.12f", d, got, want)
				}
			})
		}
	}
}

// TestWeightsConsistentWithAnonymityDegree: the linear-fractional weight
// decomposition exposed for the optimizer must reproduce AnonymityDegree
// exactly for random distributions.
func TestWeightsConsistentWithAnonymityDegree(t *testing.T) {
	rng := stats.NewRand(77)
	for _, c := range []int{1, 2, 4} {
		e, err := events.New(30, c)
		if err != nil {
			t.Fatal(err)
		}
		weights, err := e.Weights(0, 20)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 10; trial++ {
			d, err := randomPMF(rng, 20)
			if err != nil {
				t.Fatal(err)
			}
			want, err := e.AnonymityDegree(d)
			if err != nil {
				t.Fatal(err)
			}
			var h float64
			for _, cw := range weights {
				var sp, sp0 float64
				for l := 0; l <= 20; l++ {
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
				case cw.FullPosition:
					f = (1 - alpha) * math.Log2(float64(cw.Rest))
				case alpha <= 0:
					f = math.Log2(float64(cw.Rest))
				case alpha >= 1:
					f = 0
				default:
					q := 1 - alpha
					f = -alpha*math.Log2(alpha) - q*math.Log2(q/float64(cw.Rest))
				}
				h += cw.Count * sp * f
			}
			h *= float64(30-c) / 30
			if math.Abs(h-want) > 1e-12 {
				t.Errorf("c=%d trial %d: weights-based %v, engine %v", c, trial, h, want)
			}
		}
	}
}

func TestWeightsValidation(t *testing.T) {
	e, err := events.New(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Weights(-1, 5); err == nil {
		t.Error("negative lo accepted")
	}
	if _, err := e.Weights(3, 2); err == nil {
		t.Error("hi < lo accepted")
	}
	if _, err := e.Weights(0, 10); err == nil {
		t.Error("hi = N accepted")
	}
}
