package events

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"anonmix/internal/dist"
)

// familyGridDists returns the distribution families the delta property
// tests sweep, sized to fit the smallest engine the walks visit.
func familyGridDists(t *testing.T) []dist.Length {
	t.Helper()
	u, err := dist.NewUniform(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	g, err := dist.NewGeometric(0.5, 1, 12)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := dist.NewTwoPoint(3, 9, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	p, err := dist.NewPoisson(5, 0, 14)
	if err != nil {
		t.Fatal(err)
	}
	f, err := dist.NewFixed(6)
	if err != nil {
		t.Fatal(err)
	}
	return []dist.Length{f, u, g, tp, p}
}

// requireSame fails unless the derived engine's AnonymityDegree and every
// Weights entry are bit-identical to the fresh engine's: both fold the
// same shape groups in the same order.
func requireSame(t *testing.T, derived, fresh *Engine, d dist.Length) {
	t.Helper()
	hd, err := derived.AnonymityDegree(d)
	if err != nil {
		t.Fatalf("derived (%d,%d) AnonymityDegree: %v", derived.N(), derived.C(), err)
	}
	hf, err := fresh.AnonymityDegree(d)
	if err != nil {
		t.Fatalf("fresh (%d,%d) AnonymityDegree: %v", fresh.N(), fresh.C(), err)
	}
	if math.Float64bits(hd) != math.Float64bits(hf) {
		t.Errorf("(%d,%d) %v: derived H %.17g vs fresh %.17g (diff %g)",
			derived.N(), derived.C(), d, hd, hf, hd-hf)
	}
	lo, hi := d.Support()
	if msg := weightsDiff(derived, fresh, lo, hi); msg != "" {
		t.Errorf("(%d,%d) %v: %s", derived.N(), derived.C(), d, msg)
	}
}

// weightsDiff describes the first difference between the two engines'
// Weights(lo, hi) entries, or returns "" when they are bit-identical.
func weightsDiff(a, b *Engine, lo, hi int) string {
	wa, err := a.Weights(lo, hi)
	if err != nil {
		return fmt.Sprintf("Weights: %v", err)
	}
	wb, err := b.Weights(lo, hi)
	if err != nil {
		return fmt.Sprintf("Weights: %v", err)
	}
	if len(wa) != len(wb) {
		return fmt.Sprintf("%d weight entries vs %d", len(wa), len(wb))
	}
	for i := range wa {
		x, y := &wa[i], &wb[i]
		if math.Float64bits(x.Count) != math.Float64bits(y.Count) || x.Rest != y.Rest || x.Lo != y.Lo ||
			x.FullPosition != y.FullPosition || x.UniformOverAll != y.UniformOverAll || len(x.W) != len(y.W) {
			return fmt.Sprintf("weights[%d]: %+v vs %+v", i, *x, *y)
		}
		for l := range x.W {
			if math.Float64bits(x.W[l]) != math.Float64bits(y.W[l]) || math.Float64bits(x.W0[l]) != math.Float64bits(y.W0[l]) {
				return fmt.Sprintf("weights[%d][%d]: (%g, %g) vs (%g, %g)", i, l, x.W[l], x.W0[l], y.W[l], y.W0[l])
			}
		}
	}
	return ""
}

// TestNeighborMatchesFresh sweeps (N, C, dist family, receiver mode,
// inference mode) and checks every ±1 neighbor of every grid point against
// a from-scratch engine.
func TestNeighborMatchesFresh(t *testing.T) {
	t.Parallel()
	dists := familyGridDists(t)
	steps := [][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}, {1, 1}, {-1, -1}, {1, -1}, {-1, 1}}
	for _, nc := range [][2]int{{20, 1}, {40, 8}, {300, 120}} {
		for _, opts := range [][]Option{
			nil,
			{WithUncompromisedReceiver()},
			{WithInference(InferenceFullPosition)},
			{WithoutSenderSelfReport()},
		} {
			root, err := New(nc[0], nc[1], opts...)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range steps {
				nb, err := root.Neighbor(s[0], s[1])
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := New(nb.N(), nb.C(), opts...)
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range dists {
					requireSame(t, nb, fresh, d)
				}
			}
		}
	}
}

// TestNeighborWalkMatchesFresh chains ±1 and ±k Neighbor steps and checks
// that accuracy does not degrade with walk length (the delta path is table
// reuse, not iterative accumulation).
func TestNeighborWalkMatchesFresh(t *testing.T) {
	t.Parallel()
	dists := familyGridDists(t)
	e, err := New(60, 5)
	if err != nil {
		t.Fatal(err)
	}
	walk := [][2]int{{1, 1}, {1, 1}, {1, 1}, {-1, 0}, {-1, 0}, {0, -1}, {5, 3}, {-3, -6}, {40, 10}, {1, 1}}
	for _, s := range walk {
		if e, err = e.Neighbor(s[0], s[1]); err != nil {
			t.Fatal(err)
		}
		fresh, err := New(e.N(), e.C())
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range dists {
			requireSame(t, e, fresh, d)
		}
	}
}

// TestNeighborRootUsesFamily pins that deriving from a root leaves the
// root's answers alone: its family's tables are shared, not rebuilt, so
// its later queries agree with its memo and with a fresh engine.
func TestNeighborRootUsesFamily(t *testing.T) {
	t.Parallel()
	u, err := dist.NewUniform(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	root, err := New(50, 6)
	if err != nil {
		t.Fatal(err)
	}
	before, err := root.AnonymityDegree(u)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := root.Neighbor(1, 0); err != nil {
		t.Fatal(err)
	}
	after, err := root.AnonymityDegree(u)
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Errorf("root H changed after Neighbor: %v vs %v (memo must win)", before, after)
	}
	g, err := dist.NewGeometric(0.4, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New(50, 6)
	if err != nil {
		t.Fatal(err)
	}
	requireSame(t, root, fresh, g)
}

// TestNeighborValidation exercises the error paths.
func TestNeighborValidation(t *testing.T) {
	t.Parallel()
	e, err := New(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range [][2]int{{-9, 0}, {0, 8}, {-8, 2}} {
		if _, err := e.Neighbor(s[0], s[1]); err == nil {
			t.Errorf("Neighbor(%d,%d): want error, got nil", s[0], s[1])
		}
	}
	hc, err := New(10, 1, WithInference(InferenceHopCount))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hc.Neighbor(0, 1); err == nil {
		t.Error("hop-count Neighbor to c=2: want error, got nil")
	}
	nb, err := hc.Neighbor(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Hop-count groups are a family's tables too; the derived engine must
	// agree with a fresh one bit for bit.
	u, err := dist.NewUniform(1, 6)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New(11, 1, WithInference(InferenceHopCount))
	if err != nil {
		t.Fatal(err)
	}
	hd, err := nb.AnonymityDegree(u)
	if err != nil {
		t.Fatal(err)
	}
	hf, err := fresh.AnonymityDegree(u)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(hd) != math.Float64bits(hf) {
		t.Errorf("hop-count neighbor: %v vs fresh %v", hd, hf)
	}
}

// TestNeighborConcurrent hammers one family from many goroutines — derive,
// extend (growing C forces lazy k-range extension), and query concurrently.
// Run with -race; it also cross-checks every result against fresh engines.
func TestNeighborConcurrent(t *testing.T) {
	t.Parallel()
	dists := familyGridDists(t)
	root, err := New(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 16
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker walks to its own (N, C) so table extension and
			// evaluation interleave across the shared family.
			nb, err := root.Neighbor(w, (w*7)%40)
			if err != nil {
				errs[w] = err
				return
			}
			for _, d := range dists {
				hd, err := nb.AnonymityDegree(d)
				if err != nil {
					errs[w] = err
					return
				}
				fresh, err := New(nb.N(), nb.C())
				if err != nil {
					errs[w] = err
					return
				}
				hf, err := fresh.AnonymityDegree(d)
				if err != nil {
					errs[w] = err
					return
				}
				if math.Float64bits(hd) != math.Float64bits(hf) {
					errs[w] = fmt.Errorf("worker %d (%d,%d): delta %v vs fresh %v", w, nb.N(), nb.C(), hd, hf)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// FuzzNeighborMatchesFresh makes "an answer does not depend on the
// engine's history" an executable check. Over random (N, C, support,
// dn, dc), every inference mode and both receiver flags, a root engine
// derives a neighbor, the neighbor is queried first (building the shared
// table for its C), then the root (extending or reusing that table).
// Both must give AnonymityDegree and Weights bit-identical to fresh
// engines of their own (N, C), and Neighbor must accept exactly the
// systems New accepts.
func FuzzNeighborMatchesFresh(f *testing.F) {
	f.Add(uint8(20), uint8(3), uint8(0), false, uint8(0), uint8(1), uint8(9), int8(1), int8(0))
	f.Add(uint8(40), uint8(12), uint8(1), true, uint8(2), uint8(3), uint8(30), int8(-3), int8(5))
	f.Add(uint8(15), uint8(1), uint8(2), false, uint8(3), uint8(0), uint8(13), int8(2), int8(-1))
	f.Add(uint8(9), uint8(9), uint8(0), false, uint8(1), uint8(4), uint8(0), int8(0), int8(-9))
	f.Fuzz(func(t *testing.T, nb, cb, mb uint8, uncompromisedReceiver bool, kind, a, b uint8, dnb, dcb int8) {
		n := 2 + int(nb)%47
		c := int(cb) % (n + 1)
		mode := InferenceMode(1 + mb%3)
		if mode == InferenceHopCount {
			c %= 2
			uncompromisedReceiver = false
		}
		opts := []Option{WithInference(mode)}
		if uncompromisedReceiver {
			opts = append(opts, WithUncompromisedReceiver())
		}
		root, err := New(n, c, opts...)
		if err != nil {
			t.Fatal(err)
		}
		dn, dc := int(dnb)%12, int(dcb)%12
		nb2, err := root.Neighbor(dn, dc)
		freshNB, freshErr := New(n+dn, c+dc, opts...)
		if (err == nil) != (freshErr == nil) {
			t.Fatalf("(%d,%d)→(%+d,%+d): Neighbor err %v, New err %v", n, c, dn, dc, err, freshErr)
		}
		if err != nil {
			return
		}
		d := fuzzLength(t, min(n, n+dn), kind, a, b)
		freshRoot, err := New(n, c, opts...)
		if err != nil {
			t.Fatal(err)
		}
		requireSame(t, nb2, freshNB, d)
		requireSame(t, root, freshRoot, d)
	})
}

// TestBucketCountsSumToClassCount pins the multiplicity algebra: the
// groups' summed bucket counts C(k−1,m−1)·C(m−1,j₂) over every k ≤ C must
// reproduce the exact enumeration size, and each group's count must equal
// the number of enumerated classes of its shape.
func TestBucketCountsSumToClassCount(t *testing.T) {
	for c := 0; c <= 9; c++ {
		for _, recv := range []bool{true, false} {
			var opts []Option
			if !recv {
				opts = append(opts, WithUncompromisedReceiver())
			}
			e, err := New(50, c, opts...)
			if err != nil {
				t.Fatal(err)
			}
			const hi = 49 // covers every k ≤ c
			type shapeKey struct{ k, base, free int }
			classes := make(map[shapeKey]float64)
			all := Enumerate(c, recv)
			for _, cl := range all {
				base, free, _ := e.shape(cl)
				classes[shapeKey{cl.K(), base, free}]++
			}
			var total float64
			for _, g := range e.fam.appendGroups(nil, 0, c, hi) {
				total += g.count
				if want := classes[shapeKey{g.k, g.base, g.free}]; g.count != want {
					t.Errorf("c=%d recv=%v group (k=%d, base=%d, free=%d): count %v, %v enumerated classes",
						c, recv, g.k, g.base, g.free, g.count, want)
				}
			}
			if want := float64(len(all)); total != want {
				t.Errorf("c=%d recv=%v: Σ count = %v, Enumerate size %v", c, recv, total, want)
			}
		}
	}
}

// TestGroupsMatchGroupedClassStats groups the enumerated per-class
// statistics by shape group and checks, group by group, the aggregated
// probability mass, and the shared per-class posterior (Alpha, Rest, H),
// hop-count groups included. The log-space mass a group falls back to
// when its folded multiplicity overflows must match the linear one.
func TestGroupsMatchGroupedClassStats(t *testing.T) {
	for _, tc := range []struct {
		c    int
		recv bool
		mode InferenceMode
	}{
		{3, true, InferenceStandard},
		{6, true, InferenceStandard},
		{6, false, InferenceStandard},
		{5, true, InferenceFullPosition},
		{1, true, InferenceHopCount},
		{0, true, InferenceHopCount},
	} {
		opts := []Option{WithInference(tc.mode)}
		if !tc.recv {
			opts = append(opts, WithUncompromisedReceiver())
		}
		e, err := New(30, tc.c, opts...)
		if err != nil {
			t.Fatal(err)
		}
		const hi = 14
		d, err := dist.NewUniform(0, hi)
		if err != nil {
			t.Fatal(err)
		}
		classes, err := e.ClassStats(d)
		if err != nil {
			t.Fatal(err)
		}
		type shapeKey struct{ k, base, free, nObs int }
		type sum struct {
			p     float64
			first Stats
		}
		sums := make(map[shapeKey]*sum)
		for i, st := range classes {
			k, base, free, nObs := 1, i, 1, 1+min(i-1, 2) // hop-count: class i has t = i−1, base 1 + t
			if st.Class.Empty() || tc.mode != InferenceHopCount {
				k = st.Class.K()
				base, free, nObs = e.shape(st.Class)
			}
			if base > hi {
				continue // longer than the support: no group, no mass
			}
			key := shapeKey{k, base, free, nObs}
			if s, ok := sums[key]; ok {
				s.p += st.P
				continue
			}
			sums[key] = &sum{p: st.P, first: st}
		}
		kMax := min(tc.c, hi)
		groups := e.fam.table(distKey(d), d, hi, kMax)
		W := wTable(e.n, e.c, kMax, hi)
		seen := 0
		for i := range groups {
			g := &groups[i]
			s, ok := sums[shapeKey{g.k, g.base, g.free, g.nObs}]
			if !ok {
				t.Errorf("c=%d %v: group %+v has no enumerated classes", tc.c, tc.mode, *g)
				continue
			}
			seen++
			row := W[g.k*(hi+1) : (g.k+1)*(hi+1)]
			p, p0 := g.mass(row, e, d)
			if math.Abs(p-s.p) > 1e-12 {
				t.Errorf("c=%d %v group (k=%d, base=%d, free=%d): mass %v, enumerated Σ %v", tc.c, tc.mode, g.k, g.base, g.free, p, s.p)
			}
			if p > 0 {
				alpha := min(p0/p, 1)
				if e.receiver || g.k > 0 {
					if math.Abs(alpha-s.first.Alpha) > 1e-12 {
						t.Errorf("c=%d group (k=%d, base=%d, free=%d): alpha %v, per-class %v", tc.c, g.k, g.base, g.free, alpha, s.first.Alpha)
					}
				}
				rest := e.n - e.c - g.nObs
				if h := e.classEntropy(g.k, rest, alpha); rest != s.first.Rest || math.Abs(h-s.first.H) > 1e-12 {
					t.Errorf("c=%d group (k=%d, base=%d, free=%d): (rest %d, H %v), per-class %+v", tc.c, g.k, g.base, g.free, rest, h, s.first)
				}
			}
			if g.k == 0 || tc.mode == InferenceHopCount {
				continue // a single class: its folded vectors never overflow
			}
			logSpace := *g
			logSpace.v, logSpace.v0 = nil, nil
			lp, lp0 := logSpace.mass(row, e, d)
			if math.Abs(lp-p) > 1e-12*p || math.Abs(lp0-p0) > 1e-12*p0 {
				t.Errorf("c=%d group (k=%d, base=%d, free=%d): log-space mass (%v, %v), linear (%v, %v)", tc.c, g.k, g.base, g.free, lp, lp0, p, p0)
			}
		}
		if seen != len(sums) {
			t.Errorf("c=%d %v: %d groups matched, %d enumerated shapes", tc.c, tc.mode, seen, len(sums))
		}
	}
}
