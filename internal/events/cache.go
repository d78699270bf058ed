package events

// Memoization layer for the exact engine. Every figure, optimizer solve,
// and Monte-Carlo trial funnels through AnonymityDegree / StatsFor /
// Weights with a small set of distinct distributions, so the engine keeps
// per-instance memo tables keyed by the distribution's exact mass
// fingerprint (single-class statistics live one level down, in each
// distribution's StatsTable). All cached computations are pure functions
// of the engine configuration and the key, which makes cache hits
// bit-identical to recomputation and the tables safe to share across
// goroutines.

import (
	"encoding/binary"
	"math"
	"slices"
	"sync"

	"anonmix/internal/dist"
)

// maxMemoEntries bounds each memo table; beyond it the table is reset
// wholesale. The workloads in this repository cycle through a few hundred
// distributions, so eviction is a safety valve, not a steady state.
const maxMemoEntries = 1 << 14

// distKey returns an exact fingerprint of a validated distribution: the
// support bounds and the raw IEEE-754 bits of every atom. Two
// distributions with equal keys are indistinguishable to the engine, so
// memoized results are exact, not approximate.
func distKey(d dist.Length) string {
	return string(appendDistKey(nil, d))
}

// keyStack is the size of the stack buffer a memo lookup fingerprints
// into: the key of any support of up to 30 lengths fits, so a hit on
// such a distribution allocates nothing.
const keyStack = 256

// appendDistKey appends distKey's bytes to buf, growing it at most once.
func appendDistKey(buf []byte, d dist.Length) []byte {
	lo, hi := d.Support()
	buf = slices.Grow(buf, 16+8*(hi-lo+1))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(lo))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(hi))
	for l := lo; l <= hi; l++ {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(d.PMF(l)))
	}
	return buf
}

// weightKey identifies one Weights support range.
type weightKey struct{ lo, hi int }

// engineMemo holds the per-engine caches. The zero value is ready to use.
type engineMemo struct {
	mu      sync.RWMutex
	degrees map[string]float64
	tables  map[string]*StatsTable
	weights map[weightKey][]ClassWeights
}

// loadDegree looks a degree up by its key's bytes; the conversion in the
// index expression does not allocate.
func (m *engineMemo) loadDegree(key []byte) (float64, bool) {
	m.mu.RLock()
	h, ok := m.degrees[string(key)]
	m.mu.RUnlock()
	return h, ok
}

func (m *engineMemo) storeDegree(key string, h float64) {
	m.mu.Lock()
	if m.degrees == nil || len(m.degrees) >= maxMemoEntries {
		m.degrees = make(map[string]float64)
	}
	m.degrees[key] = h
	m.mu.Unlock()
}

// table returns the stats table stored under key, storing a new one for
// (e, d) first if there is none, so concurrent callers share one table.
func (m *engineMemo) table(key string, e *Engine, d dist.Length) *StatsTable {
	m.mu.RLock()
	t, ok := m.tables[key]
	m.mu.RUnlock()
	if ok {
		return t
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if t, ok := m.tables[key]; ok {
		return t
	}
	if m.tables == nil || len(m.tables) >= maxMemoEntries {
		m.tables = make(map[string]*StatsTable)
	}
	t = &StatsTable{e: e, d: d}
	m.tables[key] = t
	return t
}

func (m *engineMemo) loadWeights(key weightKey) ([]ClassWeights, bool) {
	m.mu.RLock()
	w, ok := m.weights[key]
	m.mu.RUnlock()
	return w, ok
}

func (m *engineMemo) storeWeights(key weightKey, w []ClassWeights) {
	m.mu.Lock()
	if m.weights == nil || len(m.weights) >= maxMemoEntries {
		m.weights = make(map[weightKey][]ClassWeights)
	}
	m.weights[key] = w
	m.mu.Unlock()
}
