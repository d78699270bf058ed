package events

// Shape groups and engine families: the one evaluation path of the
// aggregate queries.
//
// Every per-class statistic depends on a class only through its shape. A
// flag class with k compromised intermediates in m maximal runs, j₂ of
// whose junctions are wide, has minimum length base = k + m − 1 + j₂ + t_b
// and free = 1 + j₂ + t_f gap variables (t_b, t_f from its tail flag; see
// standardShape), and every non-empty class has nObs = 1 + base − k
// witnesses, so (k, base, free) determines the posterior. The run-length
// composition and the order of the junction flags never enter the math.
// A shape group is every class with one (k, base, free); there are
// O(min(C, L)³) of them, and each has the closed-form multiplicity
//
//	count(k, base, free) = Σ_tail C(k−1, m−1) · C(m−1, j₂)
//
// (compositions of k into m ordered runs, times choices of which of the
// m−1 junctions are wide), with (m, j₂) fixed by (base, free) for each of
// the at most three tail flags. Under hop-count inference (C ≤ 1) the
// groups are the exact-tail classes instead: one compromised node t hops
// before the receiver has base = 1 + t, free = 1 and
// nObs = 1 + min(t, 2), for every t below the support's end.
//
// A group's Bayes mixture factors exactly:
//
//	count·P_class = Σ_l [count·p(l)·A(l−base, free)] · W(l, k)
//
// where the bracketed factor — multiplicity, length mass, stars-and-bars
// arrangement count — depends only on the distribution and the group, and
// W(l, k) = FF(C,k)·FF(N−1−C, l−k)/FF(N−1, l) is the only place N and C
// enter. A family keeps the bracketed vectors per distribution and shares
// them across every engine derived by Engine.Neighbor: evaluating any
// member costs one O(kMax·hi) W-table plus a dot product per group. New
// gives every engine its own family, so a fresh engine and a derived one
// run the same products in the same order and agree bit for bit, however
// the family's tables were built. Groups whose folded multiplicity would
// overflow a float64 (path lengths beyond ~1000) keep no vectors and sum
// their mass in log space instead.

import (
	"math"
	"slices"
	"sync"

	"anonmix/internal/combin"
	"anonmix/internal/dist"
)

// family is the shared state of a set of Neighbor-related engines: one
// shape-group table per length distribution. Tables depend on the receiver
// flag (it changes the tail-flag alphabet) and on whether the inference is
// hop-count (it changes the classes), but not on N, C, or the entropy
// form, so one family serves every (N, C) the walk visits.
type family struct {
	receiver bool
	hopCount bool

	mu     sync.RWMutex
	tables map[string]*shapeTable // distKey → table
}

// shapeGroup is one shape group: every observation class with k
// compromised intermediates, minimum path length base and free gap
// variables (the head gap included), which all share one posterior.
type shapeGroup struct {
	k, base, free int
	nObs          int     // observed uncompromised witnesses
	count         float64 // number of classes in the group

	// v and v0 are indexed by l−base over [base, hi] in a distribution's
	// table: v[l−base] = count·p(l)·A(l−base, free), v0 the g0 = 0
	// restriction (free−1 variables). Multiplying by W(l, k) and summing
	// yields the group's total probability mass and its spike restriction.
	// Both are nil outside a table, and for a group whose folded
	// multiplicity overflows; mass then works in log space.
	v, v0 []float64
}

// shapeTable holds the groups of one distribution, k-major so evaluation
// can stop at the engine's own kMax = min(C, hi).
type shapeTable struct {
	hi   int
	kMax int // groups cover k ≤ kMax; extended as larger C arrives
	// groups is append-only; readers hold a snapshot slice header taken
	// under the family lock.
	groups []shapeGroup
}

// Tail flags a flag class can carry, in the order their classes are
// summed into a group's count.
var (
	receiverTails = []TailFlag{TailWide, TailOne, TailZero}
	silentTails   = []TailFlag{TailUnobserved, TailZero}
)

// Neighbor returns the engine for the (N+dn, C+dc) system with the same
// inference mode and adversary flags, sharing this engine's family so
// aggregate queries reuse the per-distribution shape tables instead of
// rebuilding them. Any (dn, dc) reaching a valid system is accepted — ±1
// steps, longer jumps, even (0, 0) — and derived engines can derive further
// neighbors, so a drifting timeline pays the table cost once. A derived
// engine's answers are bit-identical to a fresh engine's.
func (e *Engine) Neighbor(dn, dc int) (*Engine, error) {
	s := Settings{N: e.n + dn, C: e.c + dc, Mode: e.mode, Receiver: e.receiver, SelfReport: e.selfReport}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return s.engine(e.fam), nil
}

// appendGroups appends to dst the groups with k in [kFrom, kTo] that a
// path of length at most hi can produce, k-major, then by base, then by
// free, growing dst once. The order is part of the result: every engine
// folds the groups in it.
func (f *family) appendGroups(dst []shapeGroup, kFrom, kTo, hi int) []shapeGroup {
	dst = slices.Grow(dst, f.eachGroup(kFrom, kTo, hi, func(shapeGroup) {}))
	f.eachGroup(kFrom, kTo, hi, func(g shapeGroup) { dst = append(dst, g) })
	return dst
}

// eachGroup calls fn with each group appendGroups appends, in its order,
// and returns their number.
func (f *family) eachGroup(kFrom, kTo, hi int, fn func(shapeGroup)) int {
	var n int
	emit := func(g shapeGroup) {
		n++
		fn(g)
	}
	for k := kFrom; k <= kTo; k++ {
		switch {
		case k == 0:
			base, free, nObs := standardShape(0, 0, 0, 0, f.receiver)
			emit(shapeGroup{k: 0, base: base, free: free, nObs: nObs, count: 1})
		case f.hopCount:
			// One compromised node exactly t hops before the receiver.
			// Only the head gap g0 is free; the identity witnesses are
			// the predecessor, plus the successor when t ≥ 1, plus the
			// receiver's (distinct) predecessor when t ≥ 2.
			for t := 0; t < hi; t++ {
				emit(shapeGroup{k: 1, base: 1 + t, free: 1, nObs: 1 + min(t, 2), count: 1})
			}
		default:
			for base := k; base <= min(3*k, hi); base++ {
				for free := 1; free <= min(k+1, (base-k)/2+2); free++ {
					if count := f.count(k, base, free, false); count > 0 {
						emit(shapeGroup{k: k, base: base, free: free, nObs: 1 + base - k, count: count})
					}
				}
			}
		}
	}
	return n
}

// count returns the number of flag classes with k ≥ 1 compromised,
// minimum length base and free gap variables, or its natural log when
// logSpace is set.
func (f *family) count(k, base, free int, logSpace bool) float64 {
	tails := receiverTails
	if !f.receiver {
		tails = silentTails
	}
	var count float64
	if logSpace {
		count = math.Inf(-1)
	}
	for _, tail := range tails {
		tb, tf, _ := tailShape(tail)
		j2 := free - 1 - tf
		m := base - k - j2 - tb + 1
		if j2 < 0 || m <= j2 || m > k {
			continue // no run count fits this tail
		}
		if logSpace {
			count = combin.LogAdd(count, combin.LogChoose(k-1, m-1)+combin.LogChoose(m-1, j2))
		} else {
			count += combin.Choose(k-1, m-1) * combin.Choose(m-1, j2)
		}
	}
	return count
}

// table returns a consistent snapshot of the distribution's shape groups
// covering k ≤ kMax, building or extending the table as needed. Extension
// only appends (k-major), so snapshots taken under the read lock stay valid
// while other engines extend the same table.
func (f *family) table(key string, d dist.Length, hi, kMax int) []shapeGroup {
	f.mu.RLock()
	if t, ok := f.tables[key]; ok && t.kMax >= kMax {
		g := t.groups
		f.mu.RUnlock()
		return g
	}
	f.mu.RUnlock()
	f.mu.Lock()
	defer f.mu.Unlock()
	t, ok := f.tables[key]
	if !ok {
		if f.tables == nil || len(f.tables) >= maxMemoEntries {
			f.tables = make(map[string]*shapeTable)
		}
		t = &shapeTable{hi: hi, kMax: -1}
		f.tables[key] = t
	}
	if t.kMax < kMax {
		f.extend(t, d, kMax)
	}
	return t.groups
}

// extend appends the groups for k in (t.kMax, kTo] with their length
// vectors under d, all carved from one allocation.
func (f *family) extend(t *shapeTable, d dist.Length, kTo int) {
	from := len(t.groups)
	t.groups = f.appendGroups(t.groups, t.kMax+1, kTo, t.hi)
	added := t.groups[from:]
	var size int
	for i := range added {
		if g := &added[i]; linear(g, t.hi) {
			size += 2 * (t.hi - g.base + 1)
		}
	}
	buf := make([]float64, size)
	for i := range added {
		g := &added[i]
		if !linear(g, t.hi) {
			continue
		}
		n := t.hi - g.base + 1
		g.v, g.v0, buf = buf[:n:n], buf[n:2*n:2*n], buf[2*n:]
		for l := g.base; l <= t.hi; l++ {
			p := d.PMF(l)
			if p == 0 {
				continue
			}
			slack := l - g.base
			g.v[slack] = g.count * p * starsAndBars(slack, g.free)
			g.v0[slack] = g.count * p * starsAndBars(slack, g.free-1)
		}
	}
	t.kMax = kTo
}

// linear reports whether a group's folded vectors stay within float64
// range up to hi: the multiplicity is folded in before the tiny W(l, k)
// factor can tame it.
func linear(g *shapeGroup, hi int) bool {
	return !math.IsInf(g.count*starsAndBars(hi-g.base, g.free), 1)
}

// mass returns the group's total probability mass and its g0 = 0
// restriction for the engine whose W(·, k) row is row: a dot product of
// the table's vectors, or a log-space sum for a group without them. Each
// log-space term count·W(l,k)·A is a probability (≤ 1), so the
// exponentials are safe to accumulate linearly.
func (g *shapeGroup) mass(row []float64, e *Engine, d dist.Length) (sumP, sumP0 float64) {
	if g.v != nil {
		for j := range g.v {
			if w := row[g.base+j]; w != 0 {
				sumP += g.v[j] * w
				sumP0 += g.v0[j] * w
			}
		}
		return sumP, sumP0
	}
	lp := e.fam.count(g.k, g.base, g.free, true) + combin.LogFallingFactorial(e.c, g.k)
	lo, hi := d.Support()
	for l := max(lo, g.base); l <= hi; l++ {
		p := d.PMF(l)
		if p == 0 {
			continue
		}
		lw := lp + combin.LogFallingFactorial(e.n-1-e.c, l-g.k) - combin.LogFallingFactorial(e.n-1, l)
		slack := l - g.base
		sumP += p * math.Exp(lw+combin.LogStarsAndBars(slack, g.free))
		sumP0 += p * math.Exp(lw+combin.LogStarsAndBars(slack, g.free-1))
	}
	return sumP, sumP0
}
