// Package pool provides the process-wide bounded worker pool used by every
// fan-out loop in the analysis stack: class-statistics enumeration in
// events, per-point series generation in figures, the best-uniform scan in
// optimize, and the scenario layer's sampling workers.
//
// The pool is deliberately minimal: ForEach runs n indexed tasks, the
// calling goroutine always participates (so a fully busy pool degrades to
// inline serial execution instead of deadlocking, even for nested
// ForEach calls), and at most Workers()-1 helper goroutines are recruited
// process-wide from a shared semaphore. Results are deterministic as long
// as task i writes only to slot i of its output — every call site in this
// repository follows that discipline, which is what makes the parallel
// figure generators byte-identical to their serial versions.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

var (
	mu      sync.Mutex
	workers = runtime.GOMAXPROCS(0)
	// helpers is the shared recruitment semaphore: capacity workers-1, so
	// the total number of goroutines executing tasks (helpers + all
	// participating callers) stays near the configured width.
	helpers = make(chan struct{}, max(0, workers-1))
)

// Workers returns the configured pool width (the target number of
// concurrently executing tasks).
func Workers() int {
	mu.Lock()
	defer mu.Unlock()
	return workers
}

// SetWorkers sets the pool width and returns the previous value. Width 1
// makes every ForEach run inline on the caller (the serial reference
// path); values below 1 are clamped to 1. Tests use this to compare
// parallel and serial outputs and to force concurrency on small machines.
func SetWorkers(n int) int {
	if n < 1 {
		n = 1
	}
	mu.Lock()
	defer mu.Unlock()
	prev := workers
	workers = n
	helpers = make(chan struct{}, n-1)
	return prev
}

// ForEach runs fn(0), ..., fn(n-1), recruiting up to Workers()-1 helper
// goroutines from the shared pool; the caller always participates. It
// returns when every task has finished. A panic in any task is re-raised
// on the calling goroutine after the remaining tasks drain.
func ForEach(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	mu.Lock()
	sem := helpers
	mu.Unlock()
	var next atomic.Int64
	var panicked atomic.Value
	work := func() {
		defer func() {
			if r := recover(); r != nil {
				panicked.CompareAndSwap(nil, r)
				// Drain the remaining indices so sibling workers and the
				// caller are not left waiting on work that will never
				// finish; they observe the panic flag and stop.
				next.Store(int64(n))
			}
		}()
		for panicked.Load() == nil {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			fn(i)
		}
	}

	var wg sync.WaitGroup
recruit:
	for spawned := 1; spawned < n; spawned++ {
		select {
		case sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer func() { <-sem; wg.Done() }()
				work()
			}()
		default:
			break recruit // pool saturated: the caller works alone from here
		}
	}
	work()
	wg.Wait()
	if r := panicked.Load(); r != nil {
		panic(r)
	}
}

// Map runs fn over n indices and collects the results in order. It is the
// deterministic fan-out primitive used by the figure generators: out[i]
// depends only on i, never on scheduling.
func Map[T any](n int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(n, func(i int) { out[i] = fn(i) })
	return out
}

// MapErr runs fn over n indices, collecting results in order. If any task
// fails it returns the error with the lowest index, matching the error a
// serial loop would have hit first.
func MapErr[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	ForEach(n, func(i int) { out[i], errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
