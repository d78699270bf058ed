package anond

// Deterministic single-flight tests: the group's concurrency is driven
// by channels, not sleeps, so every interleaving below is forced.

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func testKey(t *testing.T, endpoint string) flightKey {
	t.Helper()
	return flightKey{endpoint: endpoint, scenario: ScenarioRequest{N: 10, Compromised: 1}}
}

// waitRefs blocks until key's flight has accumulated want waiters —
// spawning a joiner goroutine does not mean it has joined yet.
func waitRefs(g *group, key flightKey, want int) {
	for {
		g.mu.Lock()
		refs := 0
		if f := g.flights[key]; f != nil {
			refs = f.refs
		}
		g.mu.Unlock()
		if refs >= want {
			return
		}
		runtime.Gosched()
	}
}

// TestGroupCoalesces forces one leader and several joiners onto one
// flight: fn runs once, everyone gets its value, and only the joiners
// report shared.
func TestGroupCoalesces(t *testing.T) {
	g := newGroup()
	key := testKey(t, "scenario")
	var (
		runs    atomic.Int64
		started = make(chan struct{})
		release = make(chan struct{})
	)
	fn := func(context.Context) (any, error) {
		runs.Add(1)
		close(started)
		<-release
		return "value", nil
	}
	type res struct {
		val    any
		err    error
		shared bool
	}
	leader := make(chan res, 1)
	go func() {
		v, e, s := g.do(context.Background(), key, fn)
		leader <- res{v, e, s}
	}()
	<-started // the flight is now registered and blocked

	const joiners = 4
	var wg sync.WaitGroup
	joined := make(chan res, joiners)
	for range joiners {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, e, s := g.do(context.Background(), key, func(context.Context) (any, error) {
				t.Error("joiner started a second computation")
				return nil, nil
			})
			joined <- res{v, e, s}
		}()
	}
	// Only release the leader once every joiner is actually on the
	// flight; otherwise the flight could complete and be forgotten before
	// a late joiner looks it up (and correctly compute afresh).
	waitRefs(g, key, 1+joiners)
	close(release)
	wg.Wait()
	r := <-leader
	if r.err != nil || r.val != "value" || r.shared {
		t.Errorf("leader got (%v, %v, shared=%v)", r.val, r.err, r.shared)
	}
	for range joiners {
		r := <-joined
		if r.err != nil || r.val != "value" || !r.shared {
			t.Errorf("joiner got (%v, %v, shared=%v)", r.val, r.err, r.shared)
		}
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("fn ran %d times, want 1", n)
	}
}

// TestGroupLastWaiterCancels pins the refcount contract: the
// computation's context survives the first departure and is canceled
// exactly when the last waiter leaves.
func TestGroupLastWaiterCancels(t *testing.T) {
	g := newGroup()
	key := testKey(t, "scenario")
	started := make(chan struct{})
	canceled := make(chan struct{})
	fn := func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done()
		close(canceled)
		return nil, ctx.Err()
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	ctx2, cancel2 := context.WithCancel(context.Background())
	errs := make(chan error, 2)
	go func() {
		_, err, _ := g.do(ctx1, key, fn)
		errs <- err
	}()
	<-started
	go func() {
		_, err, _ := g.do(ctx2, key, func(context.Context) (any, error) {
			t.Error("joiner started a second computation")
			return nil, nil
		})
		errs <- err
	}()
	waitRefs(g, key, 2)

	// First waiter leaves: the flight must keep running for the second.
	cancel1()
	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Errorf("departed waiter got %v, want context.Canceled", err)
	}
	select {
	case <-canceled:
		t.Fatal("flight canceled while a waiter remained")
	default:
	}
	// Last waiter leaves: now the computation must be torn down.
	cancel2()
	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Errorf("last waiter got %v, want context.Canceled", err)
	}
	<-canceled // deadlocks (and times the test out) if cancel never propagates
}

// TestGroupForgetsCompletedFlights pins that coalescing dedups in-flight
// work only: a request arriving after completion computes afresh.
func TestGroupForgetsCompletedFlights(t *testing.T) {
	g := newGroup()
	key := testKey(t, "scenario")
	var runs atomic.Int64
	fn := func(context.Context) (any, error) { return runs.Add(1), nil }
	v1, err, _ := g.do(context.Background(), key, fn)
	if err != nil {
		t.Fatal(err)
	}
	v2, err, shared := g.do(context.Background(), key, fn)
	if err != nil {
		t.Fatal(err)
	}
	if shared || v1 == v2 {
		t.Errorf("second call reused the completed flight (v1=%v v2=%v shared=%v)", v1, v2, shared)
	}
}

// TestFlightKeyNormalizes pins that the key sees the decoded request,
// not the body bytes, and separates endpoints; an optimize request
// without a mean keys apart from one with mean 0.
func TestFlightKeyNormalizes(t *testing.T) {
	decode := func(body string, req any) {
		t.Helper()
		if err := json.Unmarshal([]byte(body), req); err != nil {
			t.Fatal(err)
		}
	}
	scenarioKey := func(endpoint, body string) flightKey {
		t.Helper()
		var req ScenarioRequest
		decode(body, &req)
		return flightKey{endpoint: endpoint, scenario: req}
	}
	a := scenarioKey("scenario", `{"n":10,"compromised":1}`)
	b := scenarioKey("scenario", `{"compromised": 1, "n": 10}`)
	if a != b {
		t.Error("identical configs key differently")
	}
	c := scenarioKey("degradation", `{"n":10,"compromised":1}`)
	if a == c {
		t.Error("different endpoints share a key")
	}
	d := scenarioKey("scenario", `{"n":11,"compromised":1}`)
	if a == d {
		t.Error("different configs share a key")
	}

	optimizeBodyKey := func(body string) flightKey {
		t.Helper()
		var req OptimizeRequest
		decode(body, &req)
		return optimizeFlight(&req)
	}
	if optimizeBodyKey(`{"n":40,"c":2}`) == optimizeBodyKey(`{"n":40,"c":2,"mean":0}`) {
		t.Error("an optimize request without a mean shares a key with mean 0")
	}
	if optimizeBodyKey(`{"n":40,"c":2,"mean":6,"hi":20}`) != optimizeBodyKey(`{"hi":20, "mean":6.0, "c":2, "n":40}`) {
		t.Error("reordered optimize bodies key differently")
	}
}
