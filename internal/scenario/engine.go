package scenario

// The process-wide engine cache. Exact engines are concurrency-safe and
// memoize every posterior they compute, so sharing one engine per
// configuration across figures, CLIs, the Monte-Carlo estimator, and the
// testbed adversary turns repeated work into cache hits. This cache used
// to live in internal/figures; the scenario layer owns it now so every
// consumer shares the same engines.
//
// Two things distinguish it from a plain map:
//
//   - It is an LRU with a configurable capacity. A serving workload (anond)
//     cycles through many (N, C) points; the cache bounds memory and
//     reports hit/miss/eviction counters via CacheStats.
//   - A miss with any same-flag engine cached is satisfied through the
//     delta path (events.Engine.Neighbor): the new engine shares the
//     source's family of per-distribution shape tables, so a timeline of
//     drifting populations pays the table cost once instead of per epoch.
//     Nearest ±1 neighbors are preferred as derivation sources. A derived
//     engine answers bit for bit as a fresh one would, so which engines
//     are resident changes the cost of a miss, never a result.

import (
	"container/list"
	"sync"

	"anonmix/internal/adversary"
	"anonmix/internal/events"
)

// DefaultEngineCacheCapacity is the default engine-cache bound. Generous:
// an engine's tables are megabytes at most, and figure sweeps touch a few
// hundred configurations.
const DefaultEngineCacheCapacity = 1024

// engineEntry is one cached engine with its key (needed on eviction).
// The key is the engine's events.Settings, the comparable identity of its
// configuration.
type engineEntry struct {
	key events.Settings
	e   *events.Engine
}

// engineCache is the process-wide LRU. order's front is the most recently
// used entry; byKey indexes the list elements.
var engineCache = struct {
	mu       sync.Mutex
	capacity int
	order    *list.List
	byKey    map[events.Settings]*list.Element

	hits, misses, evictions, deltaDerived uint64
}{
	capacity: DefaultEngineCacheCapacity,
	order:    list.New(),
	byKey:    make(map[events.Settings]*list.Element),
}

// EngineCacheStats reports the engine cache's counters since process start
// (or the last ResetEngines).
type EngineCacheStats struct {
	// Hits counts requests served from the cache.
	Hits uint64
	// Misses counts requests that built (or delta-derived) a new engine.
	Misses uint64
	// Evictions counts entries dropped by the LRU bound.
	Evictions uint64
	// DeltaDerived counts misses satisfied from a cached same-family
	// engine via the events delta path instead of a from-scratch engine.
	DeltaDerived uint64
	// Size and Capacity describe the current occupancy.
	Size, Capacity int
}

// CacheStats returns a snapshot of the engine cache counters — the
// eviction metrics a serving daemon exports.
func CacheStats() EngineCacheStats {
	engineCache.mu.Lock()
	defer engineCache.mu.Unlock()
	return EngineCacheStats{
		Hits:         engineCache.hits,
		Misses:       engineCache.misses,
		Evictions:    engineCache.evictions,
		DeltaDerived: engineCache.deltaDerived,
		Size:         engineCache.order.Len(),
		Capacity:     engineCache.capacity,
	}
}

// ResetCacheStats zeroes the cache counters and returns the pre-reset
// snapshot. Resident engines stay cached — unlike ResetEngines — so a
// long-running server can carve its uptime into reporting windows
// without discarding warm state. The snapshot and the zeroing happen
// under one lock acquisition, so no concurrent Engine call can land a
// counter increment between the two (every increment is attributed to
// exactly one window).
func ResetCacheStats() EngineCacheStats {
	engineCache.mu.Lock()
	defer engineCache.mu.Unlock()
	prev := EngineCacheStats{
		Hits:         engineCache.hits,
		Misses:       engineCache.misses,
		Evictions:    engineCache.evictions,
		DeltaDerived: engineCache.deltaDerived,
		Size:         engineCache.order.Len(),
		Capacity:     engineCache.capacity,
	}
	engineCache.hits, engineCache.misses = 0, 0
	engineCache.evictions, engineCache.deltaDerived = 0, 0
	return prev
}

// Delta returns the counter advance from prev to s: the activity between
// two CacheStats snapshots taken without an intervening reset. Size and
// Capacity are occupancy gauges, not counters, so the later snapshot's
// values carry through unchanged.
func (s EngineCacheStats) Delta(prev EngineCacheStats) EngineCacheStats {
	return EngineCacheStats{
		Hits:         s.Hits - prev.Hits,
		Misses:       s.Misses - prev.Misses,
		Evictions:    s.Evictions - prev.Evictions,
		DeltaDerived: s.DeltaDerived - prev.DeltaDerived,
		Size:         s.Size,
		Capacity:     s.Capacity,
	}
}

// SetEngineCacheCapacity bounds the engine cache to n entries (minimum 1),
// evicting least-recently-used engines if it already holds more. It returns
// the previous capacity.
func SetEngineCacheCapacity(n int) int {
	if n < 1 {
		n = 1
	}
	engineCache.mu.Lock()
	defer engineCache.mu.Unlock()
	prev := engineCache.capacity
	engineCache.capacity = n
	evictOver()
	return prev
}

// evictOver drops LRU entries beyond capacity. Callers hold the mutex.
func evictOver() {
	for engineCache.order.Len() > engineCache.capacity {
		back := engineCache.order.Back()
		engineCache.order.Remove(back)
		delete(engineCache.byKey, back.Value.(*engineEntry).key)
		engineCache.evictions++
	}
}

// neighborDeltas is the search order for delta derivation on a miss: the
// four ±1 steps a drifting timeline takes most often, then the diagonals.
var neighborDeltas = [][2]int{
	{-1, 0}, {1, 0}, {0, -1}, {0, 1},
	{-1, -1}, {1, 1}, {1, -1}, {-1, 1},
}

// deltaDerive tries to satisfy a miss through the events delta path: first
// the eight ±1 neighbors in preference order (the steps a drifting timeline
// takes most often), then any cached engine of the same mode and flags —
// events.Engine.Neighbor accepts arbitrary (dn, dc), and a derived engine
// shares its source's family tables regardless of distance. Returns nil if
// no cached engine can seed the derivation. Callers hold the mutex.
func deltaDerive(key events.Settings) *events.Engine {
	for _, d := range neighborDeltas {
		nk := key
		nk.N += d[0]
		nk.C += d[1]
		el, ok := engineCache.byKey[nk]
		if !ok {
			continue
		}
		// Walking back from the neighbor lands exactly on the requested
		// (n, c); mode and flags match by construction of the key.
		if derived, err := el.Value.(*engineEntry).e.Neighbor(-d[0], -d[1]); err == nil {
			return derived
		}
	}
	for el := engineCache.order.Front(); el != nil; el = el.Next() {
		k := el.Value.(*engineEntry).key
		if k.Mode != key.Mode || k.Receiver != key.Receiver || k.SelfReport != key.SelfReport {
			continue
		}
		if derived, err := el.Value.(*engineEntry).e.Neighbor(key.N-k.N, key.C-k.C); err == nil {
			return derived
		}
	}
	return nil
}

// Engine returns the process-shared exact engine for the configuration,
// creating it on first use. A hit resolves the options to their
// events.Settings and builds nothing. A miss with a cached engine of the
// same mode and flags is served by deriving from it via the delta path
// (events.Engine.Neighbor), which shares its per-distribution tables —
// nearest ±1 neighbors are preferred, but any family member will do.
func Engine(n, c int, opts ...events.Option) (*events.Engine, error) {
	key, err := events.Configure(n, c, opts...)
	if err != nil {
		return nil, err
	}
	engineCache.mu.Lock()
	defer engineCache.mu.Unlock()
	if el, ok := engineCache.byKey[key]; ok {
		engineCache.hits++
		engineCache.order.MoveToFront(el)
		return el.Value.(*engineEntry).e, nil
	}
	engineCache.misses++
	e := deltaDerive(key)
	if e != nil {
		engineCache.deltaDerived++
	} else if e, err = events.New(n, c, opts...); err != nil {
		return nil, err
	}
	engineCache.byKey[key] = engineCache.order.PushFront(&engineEntry{key: key, e: e})
	evictOver()
	return e, nil
}

// ResetEngines drops every cached engine and zeroes the cache counters. It
// exists for tests of the cache's own counters and for cold-cache
// measurements; no result depends on it, since an engine answers the same
// bits whether it was built fresh or derived from a resident one, and
// production code has no reason to call it.
func ResetEngines() {
	engineCache.mu.Lock()
	defer engineCache.mu.Unlock()
	engineCache.order.Init()
	engineCache.byKey = make(map[events.Settings]*list.Element)
	engineCache.hits, engineCache.misses = 0, 0
	engineCache.evictions, engineCache.deltaDerived = 0, 0
}

// NewAnalyst builds the adversary for a scenario: the shared exact engine
// plus the strategy's length distribution and the compromised set.
// Analysts are stateless and safe for concurrent use, so callers may share
// the returned value across trials.
func NewAnalyst(cfg Config) (*adversary.Analyst, error) {
	norm, err := normalize(cfg)
	if err != nil {
		return nil, err
	}
	e, err := norm.engine(norm.N, norm.Adversary.Count)
	if err != nil {
		return nil, err
	}
	return adversary.NewAnalyst(e, norm.Strategy.Length, norm.Adversary.nodes())
}
