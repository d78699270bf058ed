package events

// Memoization layer for the exact engine. Every figure, optimizer solve,
// and Monte-Carlo trial funnels through ClassStats / StatsFor / Weights
// with a small set of distinct distributions, so the engine keeps
// per-instance memo tables keyed by the distribution's exact mass
// fingerprint (single-class statistics live one level down, in each
// distribution's StatsTable). All cached computations are pure functions
// of the engine configuration and the key, which makes cache hits
// bit-identical to recomputation and the tables safe to share across
// goroutines.

import (
	"encoding/binary"
	"math"
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
	lo, hi := d.Support()
	buf := make([]byte, 0, 16+8*(hi-lo+1))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(lo))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(hi))
	for l := lo; l <= hi; l++ {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(d.PMF(l)))
	}
	return string(buf)
}

// weightKey identifies one Weights support range.
type weightKey struct{ lo, hi int }

// engineMemo holds the per-engine caches. The zero value is ready to use.
type engineMemo struct {
	mu          sync.RWMutex
	classStats  map[string][]Stats
	bucketStats map[string][]BucketStats
	degrees     map[string]float64
	tables      map[string]*StatsTable
	weights     map[weightKey][]ClassWeights
}

func (m *engineMemo) loadClassStats(key string) ([]Stats, bool) {
	m.mu.RLock()
	s, ok := m.classStats[key]
	m.mu.RUnlock()
	return s, ok
}

func (m *engineMemo) storeClassStats(key string, s []Stats) {
	m.mu.Lock()
	if m.classStats == nil || len(m.classStats) >= maxMemoEntries {
		m.classStats = make(map[string][]Stats)
	}
	m.classStats[key] = s
	m.mu.Unlock()
}

func (m *engineMemo) loadBucketStats(key string) ([]BucketStats, bool) {
	m.mu.RLock()
	s, ok := m.bucketStats[key]
	m.mu.RUnlock()
	return s, ok
}

func (m *engineMemo) storeBucketStats(key string, s []BucketStats) {
	m.mu.Lock()
	if m.bucketStats == nil || len(m.bucketStats) >= maxMemoEntries {
		m.bucketStats = make(map[string][]BucketStats)
	}
	m.bucketStats[key] = s
	m.mu.Unlock()
}

func (m *engineMemo) loadDegree(key string) (float64, bool) {
	m.mu.RLock()
	h, ok := m.degrees[key]
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

// enumKey identifies one cached class enumeration.
type enumKey struct {
	c        int
	receiver bool
}

// enumCache shares class enumerations process-wide: the class set depends
// only on (C, receiver-compromised), and the engine treats the returned
// slice as immutable.
var enumCache sync.Map // enumKey → []Class

// enumerateShared returns the cached class set for (c, receiver),
// computing it at most once per process.
func enumerateShared(c int, receiverCompromised bool) []Class {
	key := enumKey{c, receiverCompromised}
	if v, ok := enumCache.Load(key); ok {
		return v.([]Class)
	}
	v, _ := enumCache.LoadOrStore(key, Enumerate(c, receiverCompromised))
	return v.([]Class)
}
