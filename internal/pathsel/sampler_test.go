package pathsel

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"anonmix/internal/dist"
	"anonmix/internal/stats"
	"anonmix/internal/trace"
)

// leakyPMF is an adversarial distribution for the inverse-CDF tail
// regression: its mass sums to 0.9 (far outside dist.Validate's tolerance,
// so it can only enter a Selector built as an in-package literal) and its
// top support atom carries zero mass. A u drawn in [0.9, 1) falls off the
// CDF table, and the pre-fix clamp-to-hi behavior would return the
// zero-mass length 4.
type leakyPMF struct{}

func (leakyPMF) Support() (int, int) { return 1, 4 }
func (leakyPMF) PMF(l int) float64 {
	switch l {
	case 1:
		return 0.5
	case 2:
		return 0.4
	}
	return 0
}
func (leakyPMF) Mean() float64  { return 1.3 }
func (leakyPMF) String() string { return "leaky" }

// TestSampleLengthTailClamp is satellite (a)'s regression: when the CDF
// sums short of a draw, SampleLength must clamp to the last length with
// positive mass, never to a zero-mass atom at the support's end.
func TestSampleLengthTailClamp(t *testing.T) {
	sel := &Selector{n: 50, strategy: Strategy{Name: "leaky", Length: leakyPMF{}, Kind: Simple}}
	rng := stats.NewRand(1)
	sawTail := false
	for i := 0; i < 2000; i++ {
		l := sel.SampleLength(rng)
		if (leakyPMF{}).PMF(l) == 0 {
			t.Fatalf("draw %d: length %d has zero mass", i, l)
		}
		if l == 2 {
			sawTail = true
		}
	}
	if !sawTail {
		t.Error("no draw reached the last positive atom")
	}
}

// TestSamplerLengthAgreesWithPMF: chi-square agreement between the alias
// sampler's length draws and the source distribution, for a distribution
// with interior structure. 6 degrees of freedom; 1e-3 quantile ~22.5.
func TestSamplerLengthAgreesWithPMF(t *testing.T) {
	strat, err := UniformLength(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := NewSelector(40, strat)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sel.NewSampler()
	if err != nil {
		t.Fatal(err)
	}
	const draws = 140000
	rng := stats.NewStream(3, 0)
	counts := make(map[int]int)
	for i := 0; i < draws; i++ {
		counts[sp.SampleLength(&rng)]++
	}
	var chi2 float64
	for l := 1; l <= 7; l++ {
		exp := draws / 7.0
		d := float64(counts[l]) - exp
		chi2 += d * d / exp
	}
	if chi2 > 22.5 {
		t.Errorf("chi-square = %v over %v", chi2, counts)
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
// in both the sparse (rejection) and dense (Fisher–Yates) regimes, and
// the returned slice is the sampler's reused buffer.
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

// TestSamplerMatchesSelectorDistribution: the sampler and the classic
// selector draw hop marginals from the same distribution — checked on the
// first-hop frequencies of a sparse simple strategy, which exercises the
// open-addressed rejection set against the map-based original. Each node
// other than the sender should appear first with probability 1/(n-1);
// 18 dof, 1e-3 quantile ~42.3.
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
	for _, src := range []string{"sampler", "selector"} {
		counts := make([]int, n)
		switch src {
		case "sampler":
			rng := stats.NewStream(21, 0)
			for i := 0; i < draws; i++ {
				path, err := sp.SelectPath(&rng, sender)
				if err != nil {
					t.Fatal(err)
				}
				counts[path[0]]++
			}
		case "selector":
			rng := stats.NewRand(21)
			for i := 0; i < draws; i++ {
				path, err := sel.SelectPath(rng, sender)
				if err != nil {
					t.Fatal(err)
				}
				counts[path[0]]++
			}
		}
		if counts[sender] != 0 {
			t.Fatalf("%s: sender drawn as first hop", src)
		}
		exp := float64(draws) / float64(n-1)
		var chi2 float64
		for v := 1; v < n; v++ {
			d := float64(counts[v]) - exp
			chi2 += d * d / exp
		}
		if chi2 > 42.3 {
			t.Errorf("%s: first-hop chi-square = %v", src, chi2)
		}
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
		{12, "fixed:9"},       // dense: l·16 > n
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

// TestSamplerRejectsBadSender mirrors the selector's bounds check.
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
	for _, s := range []trace.NodeID{trace.NodeID(-1), 10, 99} {
		if _, err := sp.SelectPath(&rng, s); err == nil {
			t.Errorf("sender %d accepted", s)
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
