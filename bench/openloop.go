package main

// The open-loop ladder: requests arrive on a fixed schedule whatever the
// daemon's state, so queueing shows up as latency. Each request is timed
// from its due time, not from when a connection picked it up, and the
// pacer reports how late it released each arrival.

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// ladderRates are the offered loads in requests per second.
var ladderRates = []float64{2000, 4000, 8000}

// slo is the latency limit a ladder step must meet at its p99.
const slo = 20 * time.Millisecond

// clock abstracts time for the pacer, so tests can run it on a fake one.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// pace releases n arrivals at rate per second from start: it waits until
// each arrival is due and hands it to emit. It returns how late each
// release was.
func pace(clk clock, start time.Time, rate float64, n int, emit func(i int, due time.Time)) []time.Duration {
	lags := make([]time.Duration, n)
	for i := range lags {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		clk.SleepUntil(due)
		lags[i] = clk.Now().Sub(due)
		emit(i, due)
	}
	return lags
}

// arrival is one open-loop request: when it was due and when it finished.
type arrival struct {
	due, done time.Time
	ok        bool
}

// openStep summarizes one rate of the ladder. Latencies are milliseconds
// from the due time; a failed request counts as missing every limit.
type openStep struct {
	Rate      float64
	Offered   int
	Failed    int
	P50, P99  float64
	LagP99    float64
	Backlog   int
	MeetsSLO  bool
	Completed int
}

// summarizeStep reduces a step's arrivals. backlog is the number of
// arrivals released but not yet picked up when the pacer finished; more
// than the SLO's worth of arrivals waiting means the queue grows faster
// than the daemon drains it.
func summarizeStep(rate float64, arrivals []arrival, lags []time.Duration, backlog int) openStep {
	st := openStep{Rate: rate, Offered: len(arrivals), Backlog: backlog}
	lat := make([]float64, len(arrivals))
	for i, a := range arrivals {
		if a.ok {
			lat[i] = ms(a.done.Sub(a.due))
			st.Completed++
		} else {
			lat[i] = math.Inf(1)
			st.Failed++
		}
	}
	slices.Sort(lat)
	st.P50, st.P99 = percentile(lat, 50), percentile(lat, 99)
	lagMS := make([]float64, len(lags))
	for i, l := range lags {
		lagMS[i] = ms(l)
	}
	slices.Sort(lagMS)
	st.LagP99 = percentile(lagMS, 99)
	st.MeetsSLO = st.P99 <= ms(slo) && float64(backlog) <= rate*slo.Seconds()
	return st
}

// offer runs one ladder step: rate·dur arrivals served FIFO over conns
// connections by send, which reports success.
func offer(clk clock, rate float64, dur time.Duration, send func() bool) openStep {
	n := int(rate * dur.Seconds())
	arrivals := make([]arrival, n)
	queue := make(chan int, n) // sized to the number of sends, so the pacer never blocks
	var started atomic.Int64
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				started.Add(1)
				ok := send()
				arrivals[i].done, arrivals[i].ok = clk.Now(), ok
			}
		}()
	}
	lags := pace(clk, clk.Now(), rate, n, func(i int, due time.Time) {
		arrivals[i].due = due
		queue <- i
	})
	backlog := n - int(started.Load())
	close(queue)
	wg.Wait()
	return summarizeStep(rate, arrivals, lags, backlog)
}

// maxRateUnderSLO is the highest offered rate whose step met the SLO
// without a growing backlog, or 0 when none did.
func maxRateUnderSLO(steps []openStep) float64 {
	var best float64
	for _, st := range steps {
		if st.MeetsSLO && st.Failed == 0 {
			best = max(best, st.Rate)
		}
	}
	return best
}
