package adversary_test

import (
	"testing"

	"anonmix/internal/adversary"
	"anonmix/internal/events"
	"anonmix/internal/montecarlo"
	"anonmix/internal/pathsel"
	"anonmix/internal/stats"
	"anonmix/internal/trace"
)

// benchFixture is one fixed workload for both analysis routes: N = 400
// with 60 compromised nodes drawn at seed 1, a U(1, 10) strategy, and 32
// sessions of 32 messages, each session from one honest sender, each
// message kept as its path and as the trace the compromised nodes would
// file for it.
type benchFixture struct {
	analyst *adversary.Analyst
	senders []trace.NodeID
	paths   [][]trace.NodeID
	traces  []*trace.MessageTrace
}

// sessionRounds is the number of messages of one benchmark session.
const sessionRounds = 32

func newBenchFixture(b *testing.B) *benchFixture {
	b.Helper()
	const n, c, sessions = 400, 60, 32
	rng := stats.NewStream(1, 0)
	ids := make([]trace.NodeID, n)
	for i := range ids {
		ids[i] = trace.NodeID(i)
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		ids[i], ids[j] = ids[j], ids[i]
	}
	e, err := events.New(n, c)
	if err != nil {
		b.Fatal(err)
	}
	strat, err := pathsel.UniformLength(1, 10)
	if err != nil {
		b.Fatal(err)
	}
	a, err := adversary.NewAnalyst(e, strat.Length, ids[:c])
	if err != nil {
		b.Fatal(err)
	}
	sel, err := pathsel.NewSelector(n, strat)
	if err != nil {
		b.Fatal(err)
	}
	sp, err := sel.NewSampler()
	if err != nil {
		b.Fatal(err)
	}
	f := &benchFixture{analyst: a}
	var sc adversary.Scratch
	for range sessions {
		sender := trace.NodeID(rng.Intn(n))
		for a.Compromised(sender) {
			sender = trace.NodeID(rng.Intn(n))
		}
		for range sessionRounds {
			path, err := sp.SelectPath(&rng, sender)
			if err != nil {
				b.Fatal(err)
			}
			path = append([]trace.NodeID(nil), path...)
			mt := montecarlo.Synthesize(trace.MessageID(len(f.traces)+1), sender, path, a.Compromised)
			// Warm the statistics table, so every run times cache hits.
			if _, err := a.EntropyScratch(mt, &sc); err != nil {
				b.Fatal(err)
			}
			f.senders = append(f.senders, sender)
			f.paths = append(f.paths, path)
			f.traces = append(f.traces, mt)
		}
	}
	return f
}

// BenchmarkEntropyScratch times the trace route's single-shot entropy of
// one collected trace.
func BenchmarkEntropyScratch(b *testing.B) {
	f := newBenchFixture(b)
	var sc adversary.Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.analyst.EntropyScratch(f.traces[i%len(f.traces)], &sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPathEntropy times the path route's single-shot entropy of one
// sampled path, the inner loop of a Monte-Carlo run.
func BenchmarkPathEntropy(b *testing.B) {
	f := newBenchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(f.paths)
		if _, err := f.analyst.PathEntropy(f.senders[k], f.paths[k]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObservePath times one round of a sampled session: folding a
// path into the accumulator, with a Reset as each session ends.
func BenchmarkObservePath(b *testing.B) {
	f := newBenchFixture(b)
	acc, err := adversary.NewAccumulator(f.analyst)
	if err != nil {
		b.Fatal(err)
	}
	var sc adversary.Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%sessionRounds == 0 {
			acc.Reset()
		}
		k := i % len(f.paths)
		if err := acc.ObservePath(f.senders[k], f.paths[k], &sc); err != nil {
			b.Fatal(err)
		}
	}
}
