package main

import (
	"math"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock jumps to each wake-up time plus a fixed oversleep, the way a
// real sleep overshoots.
type fakeClock struct {
	now       time.Time
	oversleep time.Duration
}

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t.Add(c.oversleep)
	}
}

func TestPaceDueTimesAndLag(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start, oversleep: time.Millisecond}
	var dues []time.Time
	lags := pace(clk, start, 500, 6, func(i int, due time.Time) {
		if i != len(dues) {
			t.Fatalf("arrival %d released out of order", i)
		}
		dues = append(dues, due)
	})
	for i, due := range dues {
		if want := start.Add(time.Duration(i) * 2 * time.Millisecond); !due.Equal(want) {
			t.Errorf("arrival %d due %v, want %v", i, due.Sub(start), want.Sub(start))
		}
	}
	// Arrival 0 is due at once and released on time; every later one
	// waits for its due time and oversleeps it by a millisecond.
	for i, lag := range lags {
		want := time.Millisecond
		if i == 0 {
			want = 0
		}
		if lag != want {
			t.Errorf("arrival %d lag %v, want %v", i, lag, want)
		}
	}
}

func TestPaceLagAccumulatesWhenBehind(t *testing.T) {
	// A 3 ms oversleep at 1 ms spacing: each sleep makes the next three
	// arrivals late by 3, 2 and 1 ms, which are released without sleeping,
	// and the fourth is caught up to exactly.
	start := time.Unix(0, 0)
	clk := &fakeClock{now: start, oversleep: 3 * time.Millisecond}
	lags := pace(clk, start, 1000, 8, func(int, time.Time) {})
	want := []time.Duration{0, 3, 2, 1, 0, 3, 2, 1}
	for i := range lags {
		if lags[i] != want[i]*time.Millisecond {
			t.Errorf("lags = %v, want %v ms", lags, want)
			break
		}
	}
}

func TestSummarizeStepTimesFromDue(t *testing.T) {
	start := time.Unix(0, 0)
	var arr []arrival
	// 100 arrivals 1 ms apart; arrival i finishes i/10 ms after its due
	// time, so latencies are 0.0, 0.1, ..., 9.9 ms.
	for i := range 100 {
		due := start.Add(time.Duration(i) * time.Millisecond)
		arr = append(arr, arrival{due: due, done: due.Add(time.Duration(i) * 100 * time.Microsecond), ok: true})
	}
	lags := make([]time.Duration, 100)
	lags[99] = 2 * time.Millisecond
	st := summarizeStep(1000, arr, lags, 0)
	if st.P50 != 4.9 || st.P99 != 9.8 {
		t.Errorf("p50 = %v, p99 = %v, want 4.9 and 9.8", st.P50, st.P99)
	}
	if st.LagP99 != 0 {
		t.Errorf("lag p99 = %v, want 0 (one late release in 100)", st.LagP99)
	}
	if !st.MeetsSLO || st.Completed != 100 {
		t.Errorf("step %+v should meet the SLO", st)
	}

	// Two failures push p99 past any limit.
	arr[3].ok, arr[7].ok = false, false
	if st := summarizeStep(1000, arr, lags, 0); !math.IsInf(st.P99, 1) || st.MeetsSLO || st.Failed != 2 {
		t.Errorf("with failures: %+v", st)
	}
	arr[3].ok, arr[7].ok = true, true

	// A backlog of more than the SLO's worth of arrivals is a growing queue.
	if st := summarizeStep(1000, arr, lags, 21); st.MeetsSLO {
		t.Errorf("backlog 21 at 1000/s should fail the SLO: %+v", st)
	}
	if got := maxRateUnderSLO([]openStep{{Rate: 2000, MeetsSLO: true}, {Rate: 4000, MeetsSLO: true}, {Rate: 8000}}); got != 4000 {
		t.Errorf("max rate under SLO = %v, want 4000", got)
	}
}

func TestOfferServesEveryArrival(t *testing.T) {
	var served atomic.Int64
	st := offer(realClock{}, 2000, 50*time.Millisecond, func() bool {
		return served.Add(1)%10 != 0 // every tenth send fails
	})
	if st.Offered != 100 || st.Completed != 90 || st.Failed != 10 || served.Load() != 100 {
		t.Errorf("step %+v after %d sends, want 100 offered, 90 completed, 10 failed", st, served.Load())
	}
	if st.MeetsSLO {
		t.Error("a step with failed requests met the SLO")
	}
}
