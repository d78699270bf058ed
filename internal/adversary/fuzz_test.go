package adversary_test

import (
	"errors"
	"math"
	"testing"

	"anonmix/internal/adversary"
	"anonmix/internal/events"
	"anonmix/internal/montecarlo"
	"anonmix/internal/pathsel"
	"anonmix/internal/stats"
	"anonmix/internal/trace"
)

// errClass names the sentinel an accumulator error matches, so the sparse
// fold and the dense reference can be compared by class.
func errClass(err error) string {
	for _, c := range []struct {
		name string
		err  error
	}{
		{"nil", nil},
		{"no-observations", adversary.ErrNoObservations},
		{"bad-config", adversary.ErrBadConfig},
		{"corrupt", adversary.ErrCorruptTrace},
		{"mismatch", adversary.ErrModelMismatch},
		{"no-receiver", trace.ErrNoReceiverReport},
	} {
		if errors.Is(err, c.err) {
			return c.name
		}
	}
	return "other: " + err.Error()
}

// FuzzAccumulatorFold drives the spike/slab Accumulator and the dense
// reference through the same random sequence of Reset, ObserveScratch,
// and FoldObservation calls — full traces from any sender (a compromised
// one is identified), partial traces cut anywhere (empty ones included)
// under an uncompromised-receiver analyst, over a random non-prefix
// compromised set — and checks every step's snapshot, error class, and
// round count.
func FuzzAccumulatorFold(f *testing.F) {
	f.Add(uint16(12), int64(1), []byte{1, 2, 1, 2, 2, 0, 1, 1})
	f.Add(uint16(0), int64(2), []byte{1, 1, 2, 2})
	f.Add(uint16(298), int64(3), []byte{2, 5, 8, 1, 4, 7, 0, 2, 1})
	f.Add(uint16(40), int64(4), []byte{1, 4, 7, 10, 13, 16, 19, 22, 25})
	f.Fuzz(func(t *testing.T, nRaw uint16, seed int64, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		n := 2 + int(nRaw)%299
		rng := stats.NewStream(seed, 0)
		ids := make([]trace.NodeID, n)
		for i := range ids {
			ids[i] = trace.NodeID(i)
		}
		for i := n - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			ids[i], ids[j] = ids[j], ids[i]
		}
		compromised := ids[:rng.Intn(n)]
		strat, err := pathsel.UniformLength(0, min(6, n-1))
		if err != nil {
			t.Fatal(err)
		}
		e, err := events.New(n, len(compromised))
		if err != nil {
			t.Fatal(err)
		}
		analyst, err := adversary.NewAnalyst(e, strat.Length, compromised)
		if err != nil {
			t.Fatal(err)
		}
		eU, err := events.New(n, len(compromised), events.WithUncompromisedReceiver())
		if err != nil {
			t.Fatal(err)
		}
		analystU, err := adversary.NewAnalyst(eU, strat.Length, compromised)
		if err != nil {
			t.Fatal(err)
		}
		sel, err := pathsel.NewSelector(n, strat)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := sel.NewSampler()
		if err != nil {
			t.Fatal(err)
		}
		acc, err := adversary.NewAccumulator(analyst)
		if err != nil {
			t.Fatal(err)
		}
		ref := newDenseAccumulator(n)
		var sc adversary.Scratch
		for step, op := range ops {
			var errA, errB error
			switch op % 3 {
			case 0:
				acc.Reset()
				ref.reset()
			case 1:
				sender := trace.NodeID(rng.Intn(n))
				path, err := sp.SelectPath(&rng, sender)
				if err != nil {
					t.Fatal(err)
				}
				mt := montecarlo.Synthesize(trace.MessageID(step+1), sender, path, analyst.Compromised)
				errA = ref.observe(analyst, mt)
				errB = acc.ObserveScratch(mt, &sc)
			case 2:
				sender := trace.NodeID(rng.Intn(n))
				path, err := sp.SelectPath(&rng, sender)
				if err != nil {
					t.Fatal(err)
				}
				upto := rng.Intn(len(path) + 1)
				pmt := montecarlo.SynthesizePartial(trace.MessageID(step+1), sender, path, upto, analyst.Compromised)
				errA = ref.observe(analystU, pmt)
				errB = acc.FoldObservation(analystU, pmt, &sc)
			}
			if ca, cb := errClass(errA), errClass(errB); ca != cb {
				t.Fatalf("step %d (op %d): fold error %s (dense) vs %s (sparse)", step, op%3, ca, cb)
			}
			if ref.rounds != acc.Rounds() {
				t.Fatalf("step %d: rounds %d (dense) vs %d (sparse)", step, ref.rounds, acc.Rounds())
			}
			hA, topA, massA, errA := ref.snapshot()
			hB, topB, massB, errB := acc.SnapshotFast()
			if ca, cb := errClass(errA), errClass(errB); ca != cb {
				t.Fatalf("step %d: snapshot error %s (dense) vs %s (sparse)", step, ca, cb)
			}
			if errA != nil {
				continue
			}
			if math.Abs(hA-hB) > 1e-9 || topA != topB || math.Abs(massA-massB) > 1e-9 {
				t.Fatalf("step %d: snapshot (%v, %v, %v) dense vs (%v, %v, %v) sparse",
					step, hA, topA, massA, hB, topB, massB)
			}
		}
	})
}
