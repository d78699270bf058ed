package pathsel

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"anonmix/internal/dist"
	"anonmix/internal/stats"
	"anonmix/internal/trace"
)

// TestSamplerLengthAgreesWithPMF: the alias sampler's length draws stay
// inside the support and agree with the source distribution, by a
// chi-square over its atoms (those expected fewer than five times pooled
// into one bin) held to the 1e-3 upper quantile of its dof, and by the
// sample mean, within four standard errors of the wanted mean. The Crowds
// input is the truncated geometric of Formula (12), whose mean length at
// pf = 0.5 is 2.
func TestSamplerLengthAgreesWithPMF(t *testing.T) {
	const draws = 140000
	for i, c := range []struct {
		n     int
		spec  string
		mean  float64
		dof   int
		bound float64 // χ²_dof upper 1e-3 quantile
	}{
		{40, "uniform:1,7", 4, 6, 22.46},
		{20, "uniform:2,5", 3.5, 3, 16.27},
		{25, "crowds:0.5,40", 2, 14, 36.12}, // atoms 1..14, then one pooled bin
	} {
		t.Run(fmt.Sprintf("n=%d/%s", c.n, c.spec), func(t *testing.T) {
			strat, err := Lookup(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			sel, err := NewSelector(c.n, strat)
			if err != nil {
				t.Fatal(err)
			}
			sp, err := sel.NewSampler()
			if err != nil {
				t.Fatal(err)
			}
			lo, hi := strat.Length.Support()
			counts := make([]int, hi+1)
			var sum stats.Summary
			rng := stats.NewStream(3, int64(i))
			for range draws {
				l := sp.SampleLength(&rng)
				if l < lo || l > hi {
					t.Fatalf("length %d outside support [%d,%d]", l, lo, hi)
				}
				counts[l]++
				sum.Add(float64(l))
			}
			var chi2, poolObs, poolExp float64
			bins := 0
			for l := lo; l <= hi; l++ {
				obs, exp := float64(counts[l]), draws*strat.Length.PMF(l)
				if exp < 5 {
					poolObs, poolExp = poolObs+obs, poolExp+exp
					continue
				}
				chi2 += (obs - exp) * (obs - exp) / exp
				bins++
			}
			if poolExp > 0 {
				chi2 += (poolObs - poolExp) * (poolObs - poolExp) / poolExp
				bins++
			}
			if bins-1 != c.dof {
				t.Fatalf("%d bins, want %d dof", bins, c.dof)
			}
			t.Logf("χ² = %.1f over %d dof (bound %.2f), mean %.4f ± %.4f", chi2, c.dof, c.bound, sum.Mean(), sum.StdErr())
			if chi2 > c.bound {
				t.Errorf("chi-square = %.1f over %d dof exceeds %.2f: %v", chi2, c.dof, c.bound, counts)
			}
			if math.Abs(sum.Mean()-c.mean) > 4*sum.StdErr() {
				t.Errorf("mean length = %v ± %v, want %v", sum.Mean(), sum.StdErr(), c.mean)
			}
		})
	}
}

// TestSamplerDrawCounts pins the stream-consumption contract goldens rely
// on: a point mass consumes zero draws, everything else exactly two.
func TestSamplerDrawCounts(t *testing.T) {
	fixed, err := FixedLength(3)
	if err != nil {
		t.Fatal(err)
	}
	selF, err := NewSelector(10, fixed)
	if err != nil {
		t.Fatal(err)
	}
	spF, err := selF.NewSampler()
	if err != nil {
		t.Fatal(err)
	}
	a, b := stats.NewStream(11, 0), stats.NewStream(11, 0)
	if l := spF.SampleLength(&a); l != 3 {
		t.Fatalf("fixed length draw = %d", l)
	}
	if a.Uint64() != b.Uint64() {
		t.Error("point mass consumed stream draws")
	}

	uni, err := UniformLength(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	selU, err := NewSelector(10, uni)
	if err != nil {
		t.Fatal(err)
	}
	spU, err := selU.NewSampler()
	if err != nil {
		t.Fatal(err)
	}
	a, b = stats.NewStream(11, 0), stats.NewStream(11, 0)
	spU.SampleLength(&a)
	b.Uint64()
	b.Uint64()
	if a.Uint64() != b.Uint64() {
		t.Error("non-point distribution did not consume exactly two draws")
	}
}

// TestSamplerPathProperties: both route shapes produce well-formed paths
// in both the sparse (rejection) and dense (Fisher–Yates) regimes, and a
// complicated path never forwards to its current holder.
func TestSamplerPathProperties(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		lo   int
		hi   int
		kind PathKind
	}{
		{"simple sparse", 200, 1, 6, Simple},    // l*16 <= n: rejection set
		{"simple dense", 12, 4, 9, Simple},      // Fisher–Yates pool
		{"simple boundary", 8, 7, 7, Simple},    // l = n-1: every other node
		{"simple from zero", 30, 0, 20, Simple}, // empty paths and both regimes
		{"complicated", 15, 1, 10, Complicated}, // cycles allowed
	} {
		t.Run(tc.name, func(t *testing.T) {
			u, err := dist.NewUniform(tc.lo, tc.hi)
			if err != nil {
				t.Fatal(err)
			}
			sel, err := NewSelector(tc.n, Strategy{Name: "t", Length: u, Kind: tc.kind})
			if err != nil {
				t.Fatal(err)
			}
			sp, err := sel.NewSampler()
			if err != nil {
				t.Fatal(err)
			}
			rng := stats.NewStream(9, 0)
			const sender = trace.NodeID(2)
			for i := 0; i < 3000; i++ {
				path, err := sp.SelectPath(&rng, sender)
				if err != nil {
					t.Fatal(err)
				}
				if len(path) < tc.lo || len(path) > tc.hi {
					t.Fatalf("path length %d outside [%d,%d]", len(path), tc.lo, tc.hi)
				}
				seen := make(map[trace.NodeID]bool)
				prev := sender
				for _, v := range path {
					if int(v) < 0 || int(v) >= tc.n {
						t.Fatalf("node %d outside system", v)
					}
					if tc.kind == Simple {
						if v == sender {
							t.Fatal("simple path contains the sender")
						}
						if seen[v] {
							t.Fatalf("simple path repeats node %d", v)
						}
						seen[v] = true
					} else if v == prev {
						t.Fatalf("complicated path forwarded to the current holder %d", v)
					}
					prev = v
				}
			}
		})
	}
}

// TestSamplerMatchesSelectorDistribution: the sampler draws the first hop
// of a sparse simple strategy, which exercises the open-addressed
// rejection set, from the distribution its Selector defines: each node
// other than the sender with probability 1/(n-1). 18 dof, 1e-3 quantile
// ~42.3.
func TestSamplerMatchesSelectorDistribution(t *testing.T) {
	const n, draws = 20, 190000
	strat, err := UniformLength(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := NewSelector(n, strat)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sel.NewSampler()
	if err != nil {
		t.Fatal(err)
	}
	const sender = trace.NodeID(0)
	counts := make([]int, n)
	rng := stats.NewStream(21, 0)
	for i := 0; i < draws; i++ {
		path, err := sp.SelectPath(&rng, sender)
		if err != nil {
			t.Fatal(err)
		}
		counts[path[0]]++
	}
	if counts[sender] != 0 {
		t.Fatal("sender drawn as first hop")
	}
	exp := float64(draws) / float64(n-1)
	var chi2 float64
	for v := 1; v < n; v++ {
		d := float64(counts[v]) - exp
		chi2 += d * d / exp
	}
	if chi2 > 42.3 {
		t.Errorf("first-hop chi-square = %v", chi2)
	}
}

// chiSquareQuantile approximates the upper quantile χ²_dof(p) by the
// Wilson–Hilferty cube transform of the normal quantile, which is within a
// few tenths of a percent of the exact value for the dof and tail levels
// used here.
func chiSquareQuantile(dof int, p float64) float64 {
	k := float64(dof)
	z := math.Sqrt2 * math.Erfinv(2*p-1)
	c := 1 - 2/(9*k) + z*math.Sqrt(2/(9*k))
	return k * c * c * c
}

// TestSamplerPositionHistogram checks the sampler's simple paths position
// by position: at every path position each node other than the sender
// must appear with probability 1/(n−1), in the dense regime (a partial
// Fisher–Yates over the rebuilt pool) and in the sparse one (rejection
// against the open-addressed set). Each position's χ² over the n−1 nodes
// is held to the 1e-3 upper quantile, Bonferroni-adjusted over the
// positions of the case, and the (position, node) histogram must sum
// exactly to the number of hops drawn.
func TestSamplerPositionHistogram(t *testing.T) {
	const draws = 110000
	for _, c := range []struct {
		n    int
		spec string
	}{
		{10, "fixed:1"},       // one hop, dense: l·16 > n
		{12, "fixed:9"},       // dense
		{40, "uniform:20,39"}, // dense, up to every other node
		{200, "uniform:1,12"}, // sparse: l·16 ≤ n
	} {
		t.Run(fmt.Sprintf("n=%d/%s", c.n, c.spec), func(t *testing.T) {
			strat, err := Lookup(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			sel, err := NewSelector(c.n, strat)
			if err != nil {
				t.Fatal(err)
			}
			sp, err := sel.NewSampler()
			if err != nil {
				t.Fatal(err)
			}
			_, hi := strat.Length.Support()
			sender := trace.NodeID(c.n / 3)
			hist := make([][]int, hi)
			for i := range hist {
				hist[i] = make([]int, c.n)
			}
			rng := stats.NewStream(29, int64(c.n))
			hops := 0
			for range draws {
				path, err := sp.SelectPath(&rng, sender)
				if err != nil {
					t.Fatal(err)
				}
				hops += len(path)
				for i, v := range path {
					hist[i][v]++
				}
			}
			total := 0
			for _, row := range hist {
				for _, k := range row {
					total += k
				}
			}
			if total != hops {
				t.Fatalf("histogram holds %d hops, %d drawn", total, hops)
			}
			bound := chiSquareQuantile(c.n-2, 1-1e-3/float64(hi))
			worst, at := 0.0, 0
			for i, row := range hist {
				if row[sender] != 0 {
					t.Fatalf("sender drawn at position %d", i)
				}
				reached := 0
				for _, k := range row {
					reached += k
				}
				if reached == 0 {
					t.Fatalf("position %d never drawn", i)
				}
				exp := float64(reached) / float64(c.n-1)
				var chi2 float64
				for v, k := range row {
					if trace.NodeID(v) != sender {
						d := float64(k) - exp
						chi2 += d * d / exp
					}
				}
				if chi2 > worst {
					worst, at = chi2, i
				}
			}
			t.Logf("worst position %d: χ² = %.1f (dof %d, bound %.1f over %d positions)", at, worst, c.n-2, bound, hi)
			if worst > bound {
				t.Errorf("position %d: χ² = %.1f over %d dof exceeds %.1f", at, worst, c.n-2, bound)
			}
		})
	}
}

// TestSamplerDensePoolMatchesRebuild pins the dense draw to the pool it
// replaced: consecutive draws on one sampler, over senders at both ends
// and the middle, must equal a partial Fisher–Yates over a pool rebuilt
// for each draw from every node but the sender, fed the same stream.
func TestSamplerDensePoolMatchesRebuild(t *testing.T) {
	rebuilt := func(rng *stats.Stream, n int, sender trace.NodeID, l int) []trace.NodeID {
		pool := make([]trace.NodeID, 0, n-1)
		for v := 0; v < n; v++ {
			if trace.NodeID(v) != sender {
				pool = append(pool, trace.NodeID(v))
			}
		}
		for i := 0; i < l; i++ {
			j := i + rng.Intn(len(pool)-i)
			pool[i], pool[j] = pool[j], pool[i]
		}
		return pool[:l]
	}
	for _, tc := range []struct{ n, l int }{{2, 1}, {10, 1}, {10, 9}, {40, 3}, {40, 30}, {100, 7}, {257, 20}} {
		strat, err := FixedLength(tc.l)
		if err != nil {
			t.Fatal(err)
		}
		sel, err := NewSelector(tc.n, strat)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := sel.NewSampler()
		if err != nil {
			t.Fatal(err)
		}
		got, want := stats.NewStream(int64(tc.n), int64(tc.l)), stats.NewStream(int64(tc.n), int64(tc.l))
		senders := []trace.NodeID{0, trace.NodeID(tc.n / 2), trace.NodeID(tc.n - 1)}
		for i := 0; i < 300; i++ {
			sender := senders[i%len(senders)]
			path, err := sp.SelectPath(&got, sender)
			if err != nil {
				t.Fatal(err)
			}
			if ref := rebuilt(&want, tc.n, sender, tc.l); !slices.Equal(path, ref) {
				t.Fatalf("n = %d, l = %d, draw %d from %d: path %v, rebuilt pool gives %v", tc.n, tc.l, i, sender, path, ref)
			}
		}
	}
}

// TestSamplerBufferReuse pins the arena contract: successive draws share
// one backing array, and a retained path is overwritten by the next call.
func TestSamplerBufferReuse(t *testing.T) {
	strat, err := FixedLength(3)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := NewSelector(30, strat)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sel.NewSampler()
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewStream(4, 0)
	p1, err := sp.SelectPath(&rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := sp.SelectPath(&rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	if &p1[0] != &p2[0] {
		t.Error("sampler allocated a fresh path buffer per draw")
	}
}

// TestSamplerRejectsBadSender: a sender outside the system, the receiver
// included, fails with ErrBadSender.
func TestSamplerRejectsBadSender(t *testing.T) {
	strat, err := FixedLength(2)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := NewSelector(10, strat)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sel.NewSampler()
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewStream(1, 0)
	for _, s := range []trace.NodeID{trace.Receiver, 10, 99} {
		if _, err := sp.SelectPath(&rng, s); !errors.Is(err, ErrBadSender) {
			t.Errorf("sender %d: err = %v", s, err)
		}
	}
}

// TestSamplerZeroAllocSteadyState asserts the tentpole's core claim at
// the unit level: once warm, a simple-path draw performs zero heap
// allocations in both regimes.
func TestSamplerZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocation counts")
	}
	for _, tc := range []struct {
		name string
		n    int
	}{{"sparse", 200}, {"dense", 10}} {
		strat, err := UniformLength(1, 6)
		if err != nil {
			t.Fatal(err)
		}
		sel, err := NewSelector(tc.n, strat)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := sel.NewSampler()
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewStream(8, 0)
		allocs := testing.AllocsPerRun(500, func() {
			if _, err := sp.SelectPath(&rng, 3); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per draw, want 0", tc.name, allocs)
		}
	}
}

// TestNewSamplerSparseIsSmall: a sampler for a sparse million-node system
// never makes a dense draw, so building one must not allocate the O(N)
// Fisher–Yates pool (8 MB at N = 10^6); the pool waits for the first
// dense draw.
func TestNewSamplerSparseIsSmall(t *testing.T) {
	strat, err := Lookup("uniform:1,5")
	if err != nil {
		t.Fatal(err)
	}
	sel, err := NewSelector(1_000_000, strat)
	if err != nil {
		t.Fatal(err)
	}
	const samplers = 8
	keep := make([]*Sampler, 0, samplers)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < samplers; i++ {
		sp, err := sel.NewSampler()
		if err != nil {
			t.Fatal(err)
		}
		keep = append(keep, sp)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / samplers; per >= 64<<10 {
		t.Errorf("NewSampler at N = 10^6 allocates %d bytes, want < 64 KB", per)
	}
	rng := stats.NewStream(5, 0)
	if _, err := keep[0].SelectPath(&rng, 0); err != nil {
		t.Fatal(err)
	}
}
