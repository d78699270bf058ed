package events_test

// Concurrency and memo-consistency tests for the engine's cache layer:
// many goroutines hammer one shared Engine (for the -race detector) and
// every answer is compared bit-for-bit against a fresh, unshared engine
// computing the same quantity cold.

import (
	"sync"
	"testing"

	"anonmix/internal/dist"
	"anonmix/internal/events"
)

// referenceDegrees computes each distribution's anonymity degree on its own
// cold engine.
func referenceDegrees(t *testing.T, n, c int, ds []dist.Length) []float64 {
	t.Helper()
	out := make([]float64, len(ds))
	for i, d := range ds {
		e := mustEngine(t, n, c)
		h, err := e.AnonymityDegree(d)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = h
	}
	return out
}

func TestEngineConcurrentAnonymityDegree(t *testing.T) {
	const n, c = 40, 3
	ds := []dist.Length{
		mustFixed(t, 0), mustFixed(t, 5), mustFixed(t, 20),
		mustUniform(t, 0, 10), mustUniform(t, 2, 30), mustUniform(t, 7, 7),
	}
	want := referenceDegrees(t, n, c, ds)

	shared := mustEngine(t, n, c)
	const goroutines = 12
	const rounds = 40
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(ds)
				h, err := shared.AnonymityDegree(ds[i])
				if err != nil {
					errCh <- err
					return
				}
				if h != want[i] {
					t.Errorf("%s: shared engine %v, cold engine %v (must be bit-identical)", ds[i], h, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

func TestEngineConcurrentMixedQueries(t *testing.T) {
	const n, c = 30, 4
	shared := mustEngine(t, n, c)
	d := mustUniform(t, 0, 15)

	cold := mustEngine(t, n, c)
	wantStats, err := cold.ClassStats(d)
	if err != nil {
		t.Fatal(err)
	}
	wantWeights, err := cold.Weights(0, 20)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 10; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 25; r++ {
				switch (g + r) % 3 {
				case 0:
					got, err := shared.ClassStats(d)
					if err != nil {
						t.Error(err)
						return
					}
					for i := range got {
						if got[i].P != wantStats[i].P || got[i].Alpha != wantStats[i].Alpha ||
							got[i].H != wantStats[i].H || got[i].Rest != wantStats[i].Rest ||
							got[i].Class.String() != wantStats[i].Class.String() {
							t.Errorf("class %s: %+v != %+v", got[i].Class, got[i], wantStats[i])
							return
						}
					}
				case 1:
					got, err := shared.Weights(0, 20)
					if err != nil {
						t.Error(err)
						return
					}
					for i := range got {
						for l := range got[i].W {
							if got[i].W[l] != wantWeights[i].W[l] || got[i].W0[l] != wantWeights[i].W0[l] {
								t.Errorf("class %s at l=%d: weight drift", got[i].Class, l)
								return
							}
						}
					}
				default:
					cl := events.Class{Runs: []int{1}, Tail: events.TailOne}
					if _, err := shared.StatsFor(cl, d); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestStatsForMemoMatchesCold: memoized single-class queries return exactly
// what a cold engine computes, across many (class, distribution) pairs.
func TestStatsForMemoMatchesCold(t *testing.T) {
	shared := mustEngine(t, 25, 3)
	ds := []dist.Length{mustUniform(t, 0, 12), mustFixed(t, 6)}
	for _, d := range ds {
		all, err := shared.ClassStats(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range all {
			// Query twice through the shared engine (second hit is memoized)
			// and once cold.
			first, err := shared.StatsFor(st.Class, d)
			if err != nil {
				t.Fatal(err)
			}
			second, err := shared.StatsFor(st.Class, d)
			if err != nil {
				t.Fatal(err)
			}
			cold := mustEngine(t, 25, 3)
			want, err := cold.StatsFor(st.Class, d)
			if err != nil {
				t.Fatal(err)
			}
			for _, got := range []events.Stats{first, second} {
				if got.P != want.P || got.Alpha != want.Alpha || got.H != want.H || got.Rest != want.Rest {
					t.Errorf("%s class %s: memo %+v, cold %+v", d, st.Class, got, want)
				}
			}
		}
	}
}

// TestStatsTableConcurrentMatchesCold: goroutines released together query
// every class of one cold shared StatsTable, each in its own order, so
// misses and republishes of the table happen under contention. Every
// answer must be bit-identical to a cold engine's and carry the caller's
// class.
func TestStatsTableConcurrentMatchesCold(t *testing.T) {
	const n, c, goroutines = 25, 3, 8
	for _, receiver := range []bool{true, false} {
		var opts []events.Option
		if !receiver {
			opts = append(opts, events.WithUncompromisedReceiver())
		}
		shared := mustEngine(t, n, c, opts...)
		for _, d := range []dist.Length{mustUniform(t, 0, 12), mustFixed(t, 6)} {
			want, err := mustEngine(t, n, c, opts...).ClassStats(d)
			if err != nil {
				t.Fatal(err)
			}
			table, err := shared.StatsTable(d)
			if err != nil {
				t.Fatal(err)
			}
			start := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					<-start
					for r := 0; r < 2*len(want); r++ {
						i := (r + g*len(want)/goroutines) % len(want)
						if g%2 == 1 {
							i = len(want) - 1 - i
						}
						cl := want[i].Class
						got, err := table.StatsFor(cl)
						if err != nil {
							t.Error(err)
							return
						}
						if got.P != want[i].P || got.Alpha != want[i].Alpha || got.H != want[i].H ||
							got.Rest != want[i].Rest || got.Class.String() != cl.String() {
							t.Errorf("receiver=%v %s class %s: shared table %+v, cold engine %+v",
								receiver, d, cl, got, want[i])
							return
						}
					}
				}(g)
			}
			close(start)
			wg.Wait()
		}
	}
}
