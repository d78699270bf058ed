package anond

// Single-flight request coalescing. N clients POSTing byte-identical
// configurations concurrently should cost one backend run, not N: the
// first request becomes the flight's leader, later ones join as waiters,
// and all of them receive the one result. The computation runs on a
// context detached from any single client — it is canceled only when the
// *last* waiter disconnects, so one impatient client cannot abort work
// another client is still waiting for.
//
// Coalescing is deduplication of in-flight work only; completed flights
// are forgotten immediately (result caching is the engine LRU's job, and
// sampled results are deterministic in the seed anyway). Streaming
// requests bypass the group entirely — each needs its own progress feed.

import (
	"context"
	"sync"
)

// flightKey identifies a request for coalescing: the endpoint plus the
// decoded request, compared by value. Decoding normalizes field order,
// whitespace, and omitted defaults, so two syntactically different bodies
// describing the same configuration share one flight.
type flightKey struct {
	endpoint string
	scenario ScenarioRequest
	optimize optimizeKey
}

// optimizeKey is an OptimizeRequest with its optional mean unpacked into
// a value and a presence flag, so it compares by value, and a request
// without a mean keys apart from one asking for mean 0.
type optimizeKey struct {
	req     OptimizeRequest // Mean is nil
	mean    float64
	hasMean bool
}

// optimizeFlight keys an optimize request.
func optimizeFlight(req *OptimizeRequest) flightKey {
	k := optimizeKey{req: *req}
	k.req.Mean = nil
	if req.Mean != nil {
		k.mean, k.hasMean = *req.Mean, true
	}
	return flightKey{endpoint: "optimize", optimize: k}
}

// flight is one in-flight computation with its waiter refcount.
type flight struct {
	done   chan struct{}
	cancel context.CancelFunc
	refs   int
	val    any
	err    error
}

// group coalesces concurrent calls by key.
type group struct {
	mu      sync.Mutex
	flights map[flightKey]*flight
}

func newGroup() *group {
	return &group{flights: map[flightKey]*flight{}}
}

// do returns fn's result for key, starting fn only if no identical call
// is already in flight. fn receives a context that outlives any single
// caller and is canceled when every waiter has abandoned the flight.
// shared reports whether this caller joined an existing flight. A caller
// whose ctx fires before the flight completes gets ctx.Err().
func (g *group) do(ctx context.Context, key flightKey, fn func(context.Context) (any, error)) (val any, err error, shared bool) {
	g.mu.Lock()
	if f, ok := g.flights[key]; ok {
		f.refs++
		g.mu.Unlock()
		v, e := g.wait(ctx, f)
		return v, e, true
	}
	runCtx, cancel := context.WithCancel(context.Background())
	f := &flight{done: make(chan struct{}), cancel: cancel, refs: 1}
	g.flights[key] = f
	g.mu.Unlock()
	go func() {
		f.val, f.err = fn(runCtx)
		g.mu.Lock()
		// Forget the flight before publishing: a request arriving after
		// this point starts fresh rather than receiving a stale result.
		delete(g.flights, key)
		g.mu.Unlock()
		close(f.done)
		cancel()
	}()
	v, e := g.wait(ctx, f)
	return v, e, false
}

// wait blocks until the flight completes or the caller's context fires.
// A departing caller decrements the refcount; the last one out cancels
// the computation.
func (g *group) wait(ctx context.Context, f *flight) (any, error) {
	select {
	case <-f.done:
		return f.val, f.err
	case <-ctx.Done():
		g.mu.Lock()
		f.refs--
		abandoned := f.refs == 0
		g.mu.Unlock()
		if abandoned {
			f.cancel()
		}
		return nil, ctx.Err()
	}
}
