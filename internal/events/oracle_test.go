package events_test

// This file implements an independent brute-force oracle for the anonymity
// degree: it enumerates every concrete path outcome (sender, length,
// ordered intermediate sequence), renders the literal observation the
// adversary would collect (tuples with real node identities), groups
// outcomes by observation, and applies Bayes' rule directly. It shares no
// combinatorial reasoning with the class-enumeration engine, so agreement
// between the two validates the run/gap/stars-and-bars derivation end to
// end.

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"anonmix/internal/dist"
	"anonmix/internal/entropy"
	"anonmix/internal/events"
)

// oracleConfig selects the adversary model for the brute-force computation.
type oracleConfig struct {
	n, c                int
	receiverCompromised bool
	positionOracle      bool
	hopCountOracle      bool
}

// bruteForceH computes H*(S) exactly by outcome enumeration. Compromised
// nodes are 0..c−1; the sender is uniform over all n nodes; a compromised
// sender contributes zero entropy (self-report).
func bruteForceH(t *testing.T, cfg oracleConfig, d dist.Length) float64 {
	t.Helper()
	lo, hi := d.Support()
	if hi > cfg.n-1 {
		t.Fatalf("support %d exceeds n-1=%d", hi, cfg.n-1)
	}

	// weight[obs][sender] accumulates outcome probability.
	weight := make(map[string]map[int]float64)
	add := func(obs string, sender int, w float64) {
		m, ok := weight[obs]
		if !ok {
			m = make(map[int]float64)
			weight[obs] = m
		}
		m[sender] += w
	}

	for s := cfg.c; s < cfg.n; s++ { // uncompromised senders only
		for l := lo; l <= hi; l++ {
			p := d.PMF(l)
			if p == 0 {
				continue
			}
			// Enumerate ordered sequences of l distinct intermediates from
			// the n−1 nodes other than s.
			nSeq := 1.0
			for i := 0; i < l; i++ {
				nSeq *= float64(cfg.n - 1 - i)
			}
			w := p / (float64(cfg.n) * nSeq)
			path := make([]int, 0, l)
			used := make([]bool, cfg.n)
			used[s] = true
			var rec func()
			rec = func() {
				if len(path) == l {
					add(observe(cfg, s, path), s, w)
					return
				}
				for v := 0; v < cfg.n; v++ {
					if used[v] {
						continue
					}
					used[v] = true
					path = append(path, v)
					rec()
					path = path[:len(path)-1]
					used[v] = false
				}
			}
			rec()
		}
	}

	var h float64
	for _, senders := range weight {
		var total float64
		for _, w := range senders {
			total += w
		}
		var hObs float64
		for _, w := range senders {
			q := w / total
			if q > 0 {
				hObs -= q * math.Log2(q)
			}
		}
		h += total * hObs
	}
	// The compromised-sender branch contributes (c/n)·0.
	return h
}

// observe renders the adversary's view of one concrete outcome: the ordered
// reports of compromised on-path nodes (with real predecessor/successor
// identities), optionally their exact positions, and the receiver's report.
func observe(cfg oracleConfig, sender int, path []int) string {
	var b strings.Builder
	l := len(path)
	for i, x := range path {
		if x >= cfg.c {
			continue // not compromised
		}
		pred := sender
		if i > 0 {
			pred = path[i-1]
		}
		succ := "R"
		if i < l-1 {
			succ = fmt.Sprint(path[i+1])
		}
		switch {
		case cfg.positionOracle:
			fmt.Fprintf(&b, "[pos=%d x=%d pred=%d succ=%s]", i+1, x, pred, succ)
		case cfg.hopCountOracle:
			// Timing reveals the distance to the receiver, not to the
			// sender.
			fmt.Fprintf(&b, "[toR=%d x=%d pred=%d succ=%s]", l-1-i, x, pred, succ)
		default:
			fmt.Fprintf(&b, "[x=%d pred=%d succ=%s]", x, pred, succ)
		}
	}
	if cfg.receiverCompromised {
		pr := sender
		if l > 0 {
			pr = path[l-1]
		}
		fmt.Fprintf(&b, "[R pred=%d]", pr)
	}
	if b.Len() == 0 {
		return "∅"
	}
	return b.String()
}

// engineFor builds the engine matching an oracle configuration.
func engineFor(t *testing.T, cfg oracleConfig) *events.Engine {
	t.Helper()
	opts := []events.Option{}
	if !cfg.receiverCompromised {
		opts = append(opts, events.WithUncompromisedReceiver())
	}
	if cfg.positionOracle {
		opts = append(opts, events.WithInference(events.InferenceFullPosition))
	}
	if cfg.hopCountOracle {
		opts = append(opts, events.WithInference(events.InferenceHopCount))
	}
	e, err := events.New(cfg.n, cfg.c, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEngineMatchesBruteForce(t *testing.T) {
	mk := func(d dist.Length, err error) dist.Length {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	dists := map[string]dist.Length{
		"F(0)":        mk(dist.NewFixed(0)),
		"F(1)":        mk(dist.NewFixed(1)),
		"F(3)":        mk(dist.NewFixed(3)),
		"F(4)":        mk(dist.NewFixed(4)),
		"F(5)":        mk(dist.NewFixed(5)),
		"U(0,4)":      mk(dist.NewUniform(0, 4)),
		"U(1,5)":      mk(dist.NewUniform(1, 5)),
		"U(2,4)":      mk(dist.NewUniform(2, 4)),
		"Geom":        mk(dist.NewGeometric(0.5, 1, 5)),
		"TwoPoint":    mk(dist.NewTwoPoint(1, 4, 0.3)),
		"PMF(ragged)": mk(dist.NewPMF(0, []float64{0.1, 0, 0.4, 0.2, 0.3})),
	}
	cases := []oracleConfig{
		{n: 7, c: 0, receiverCompromised: true},
		{n: 7, c: 1, receiverCompromised: true},
		{n: 7, c: 2, receiverCompromised: true},
		{n: 8, c: 3, receiverCompromised: true},
		{n: 7, c: 2, receiverCompromised: false},
		{n: 7, c: 1, receiverCompromised: false},
		{n: 7, c: 2, receiverCompromised: true, positionOracle: true},
		{n: 8, c: 3, receiverCompromised: true, positionOracle: true},
		{n: 7, c: 1, receiverCompromised: true, hopCountOracle: true},
		{n: 7, c: 0, receiverCompromised: true, hopCountOracle: true},
	}
	for _, cfg := range cases {
		cfg := cfg
		for name, d := range dists {
			label := fmt.Sprintf("n=%d c=%d recv=%v pos=%v %s",
				cfg.n, cfg.c, cfg.receiverCompromised, cfg.positionOracle, name)
			t.Run(label, func(t *testing.T) {
				e := engineFor(t, cfg)
				got, err := e.AnonymityDegree(d)
				if err != nil {
					t.Fatal(err)
				}
				want := bruteForceH(t, cfg, d)
				if math.Abs(got-want) > 1e-12 {
					t.Errorf("engine H* = %.12f, brute force = %.12f (Δ=%.3g)",
						got, want, got-want)
				}
				if got < -1e-12 || got > entropy.Max(cfg.n)+1e-12 {
					t.Errorf("H* = %v outside [0, log2 %d]", got, cfg.n)
				}
			})
		}
	}
}

// TestBruteForcePosteriorShape verifies the engine's structural claim that
// every posterior is a spike plus a uniform slab: within each brute-force
// observation group, the non-top posterior values are all equal.
func TestBruteForcePosteriorShape(t *testing.T) {
	cfg := oracleConfig{n: 7, c: 2, receiverCompromised: true}
	d, err := dist.NewUniform(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := d.Support()
	weight := make(map[string]map[int]float64)
	for s := cfg.c; s < cfg.n; s++ {
		for l := lo; l <= hi; l++ {
			p := d.PMF(l)
			if p == 0 {
				continue
			}
			nSeq := 1.0
			for i := 0; i < l; i++ {
				nSeq *= float64(cfg.n - 1 - i)
			}
			w := p / (float64(cfg.n) * nSeq)
			var rec func(path []int, used map[int]bool)
			rec = func(path []int, used map[int]bool) {
				if len(path) == l {
					obs := observe(cfg, s, path)
					if weight[obs] == nil {
						weight[obs] = make(map[int]float64)
					}
					weight[obs][s] += w
					return
				}
				for v := 0; v < cfg.n; v++ {
					if v == s || used[v] {
						continue
					}
					used[v] = true
					rec(append(path, v), used)
					used[v] = false
				}
			}
			rec(nil, map[int]bool{})
		}
	}
	for obs, senders := range weight {
		var vals []float64
		for _, w := range senders {
			vals = append(vals, w)
		}
		// Group the weights into at most two distinct values (spike+slab).
		distinct := map[string]int{}
		for _, v := range vals {
			distinct[fmt.Sprintf("%.12g", v)]++
		}
		if len(distinct) > 2 {
			t.Errorf("observation %q: %d distinct posterior levels, want ≤ 2 (spike+slab): %v",
				obs, len(distinct), distinct)
		}
	}
}
