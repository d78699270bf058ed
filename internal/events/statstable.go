package events

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"

	"anonmix/internal/dist"
)

// StatsTable serves single-class statistics under one path-length
// distribution. A class's statistics depend on it only through k = K() and
// the (base, free, nObs) of shape, so the table keys its entries by those
// four integers and computes each from them alone (statsForShape): every
// class of a shape shares one entry, and a lookup neither revalidates the
// distribution nor encodes more than one machine word of key. Reads go
// lock-free to a published map; a miss takes the table's mutex and is
// served from a second, mutable map, which is republished once it has
// served as many slow lookups as it holds entries, so the copying costs
// O(1) amortized per slow lookup. A StatsTable is safe for concurrent use.
type StatsTable struct {
	e *Engine
	d dist.Length

	published atomic.Pointer[map[shapeKey]shapeStats]

	mu     sync.Mutex
	slow   map[shapeKey]shapeStats
	served int // slow lookups since the last publish
}

// shapeKey packs everything statsForShape reads — k, base, free, and
// nObs — into 16 bits each, so lookups take the map's one-word fast path.
type shapeKey uint64

// maxShapeField bounds each packed field. A class with a larger one, which
// takes a path of 2^16 hops or more, is computed directly instead.
const maxShapeField = 1 << 16

// shapeStats is a table entry: Stats without the class, which every
// lookup takes from its caller.
type shapeStats struct {
	p, alpha, h float64
	rest        int
}

// StatsTable returns the engine's single-class statistics table for d. It
// validates d against the system and fingerprints it once; later calls
// with an identical distribution return the same table.
func (e *Engine) StatsTable(d dist.Length) (*StatsTable, error) {
	if err := e.checkDist(d); err != nil {
		return nil, err
	}
	return e.memo.table(distKey(d), e, d), nil
}

// StatsFor returns the statistics of one observation class under the
// table's distribution, exactly as Engine.StatsFor would. The returned
// Stats.Class is cl itself.
func (t *StatsTable) StatsFor(cl Class) (Stats, error) {
	if err := cl.validate(); err != nil {
		return Stats{}, err
	}
	k := cl.K()
	if k > t.e.c {
		return Stats{}, fmt.Errorf("%w: class has %d compromised, system has %d", ErrClassMismatch, k, t.e.c)
	}
	base, free, nObs := t.e.shape(cl)
	return t.lookup(k, base, free, nObs).stats(cl), nil
}

// ShapeStats returns the Alpha, Rest and H that StatsFor returns for
// every flag-based class with k compromised nodes whose runs meet at `one`
// one-node junctions and `wide` wider ones and whose tail is flagged tail
// — the only parts of a class its statistics depend on. k == 0 is the
// empty class, for which the junction counts must be zero and tail is
// ignored. It lets a caller that counts an observation straight from a
// path skip building, validating and walking a Class, and it returns
// plain values rather than a Stats so that nothing is copied through
// memory; the counts must describe a class StatsFor would accept, or it
// fails with ErrClassMismatch.
func (t *StatsTable) ShapeStats(k, one, wide int, tail TailFlag) (alpha float64, rest int, h float64, err error) {
	if k < 0 || one < 0 || wide < 0 || k > t.e.c {
		return 0, 0, 0, fmt.Errorf("%w: %d compromised, %d one-node and %d wide junctions in a system with %d compromised",
			ErrClassMismatch, k, one, wide, t.e.c)
	}
	if k > 0 {
		if one+wide >= k {
			return 0, 0, 0, fmt.Errorf("%w: %d compromised cannot form %d runs", ErrClassMismatch, k, one+wide+1)
		}
		if tail < TailZero || tail > TailUnobserved {
			return 0, 0, 0, fmt.Errorf("%w: tail flag %v", ErrClassMismatch, tail)
		}
	} else if one+wide > 0 {
		return 0, 0, 0, fmt.Errorf("%w: gaps without runs", ErrClassMismatch)
	}
	base, free, nObs := t.e.standardShape(k, one, wide, tail)
	s := t.lookup(k, base, free, nObs)
	return s.alpha, s.rest, s.h, nil
}

// lookup returns the entry for k compromised nodes and shape (base, free,
// nObs), computing it directly when a field is too large to pack.
func (t *StatsTable) lookup(k, base, free, nObs int) shapeStats {
	if uint(k|base|free|nObs) >= maxShapeField {
		return t.e.statsForShape(k, base, free, nObs, t.d)
	}
	key := shapeKey(uint64(k) | uint64(base)<<16 | uint64(free)<<32 | uint64(nObs)<<48)
	if m := t.published.Load(); m != nil {
		if s, ok := (*m)[key]; ok {
			return s
		}
	}
	return t.miss(k, base, free, nObs, key)
}

// miss serves a lookup the published map could not, computing the entry
// on first use and republishing the mutable map when it is due.
func (t *StatsTable) miss(k, base, free, nObs int, key shapeKey) shapeStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.slow[key]
	if !ok {
		if t.slow == nil || len(t.slow) >= maxMemoEntries {
			t.slow = make(map[shapeKey]shapeStats)
		}
		s = t.e.statsForShape(k, base, free, nObs, t.d)
		t.slow[key] = s
	}
	if t.served++; t.served >= len(t.slow) {
		m := maps.Clone(t.slow)
		t.published.Store(&m)
		t.served = 0
	}
	return s
}

func (s shapeStats) stats(cl Class) Stats {
	return Stats{Class: cl, P: s.p, Alpha: s.alpha, Rest: s.rest, H: s.h}
}
