package adversary_test

import (
	"math"
	"testing"

	"anonmix/internal/adversary"
	"anonmix/internal/dist"
	"anonmix/internal/events"
	"anonmix/internal/montecarlo"
	"anonmix/internal/pathsel"
	"anonmix/internal/stats"
	"anonmix/internal/trace"
)

// scratchFixture draws random traces for the equivalence tests: an
// analyst over n nodes with the given compromised set, plus a stream of
// synthesized message traces from random senders over random paths.
type scratchFixture struct {
	analyst *adversary.Analyst
	sampler *pathsel.Sampler
	rng     stats.Stream
	n       int
}

func newScratchFixture(t *testing.T, n int, compromised []trace.NodeID, seed int64) *scratchFixture {
	t.Helper()
	e, err := events.New(n, len(compromised))
	if err != nil {
		t.Fatal(err)
	}
	strat, err := pathsel.UniformLength(1, 6)
	if err != nil {
		t.Fatal(err)
	}
	a, err := adversary.NewAnalyst(e, strat.Length, compromised)
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
	return &scratchFixture{analyst: a, sampler: sp, rng: stats.NewStream(seed, 0), n: n}
}

// nextTrace synthesizes one random honest-sender trace.
func (f *scratchFixture) nextTrace(t *testing.T, msg trace.MessageID) (*trace.MessageTrace, trace.NodeID) {
	t.Helper()
	sender := trace.NodeID(f.rng.Intn(f.n))
	for f.analyst.Compromised(sender) {
		sender = trace.NodeID(f.rng.Intn(f.n))
	}
	path, err := f.sampler.SelectPath(&f.rng, sender)
	if err != nil {
		t.Fatal(err)
	}
	return montecarlo.Synthesize(msg, sender, path, f.analyst.Compromised), sender
}

// TestClassifyScratchEquivalence: over hundreds of random traces the
// scratch classifier reproduces Classify field for field — class
// signature, candidate, witnessed set, identification flag.
func TestClassifyScratchEquivalence(t *testing.T) {
	f := newScratchFixture(t, 14, []trace.NodeID{0, 1, 5}, 31)
	var sc adversary.Scratch
	for i := 0; i < 500; i++ {
		mt, _ := f.nextTrace(t, trace.MessageID(i+1))
		want, err := f.analyst.Classify(mt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := f.analyst.ClassifyScratch(mt, &sc)
		if err != nil {
			t.Fatal(err)
		}
		if got.Class.String() != want.Class.String() {
			t.Fatalf("trace %d: class %q vs %q", i, got.Class, want.Class)
		}
		if got.Candidate != want.Candidate || got.Identified != want.Identified {
			t.Fatalf("trace %d: candidate/identified (%v,%v) vs (%v,%v)",
				i, got.Candidate, got.Identified, want.Candidate, want.Identified)
		}
		if len(got.Witnessed) != len(want.Witnessed) {
			t.Fatalf("trace %d: witnessed %v vs %v", i, got.Witnessed, want.Witnessed)
		}
		for _, w := range got.Witnessed {
			if !want.Witnessed[w] {
				t.Fatalf("trace %d: scratch witnessed %v, map did not", i, w)
			}
		}
	}
}

// TestEntropyScratchEquivalence: the scratch single-shot entropy matches
// Entropy exactly (both read the same memoized engine statistics).
func TestEntropyScratchEquivalence(t *testing.T) {
	f := newScratchFixture(t, 14, []trace.NodeID{0, 1, 5}, 32)
	var sc adversary.Scratch
	for i := 0; i < 300; i++ {
		mt, _ := f.nextTrace(t, trace.MessageID(i+1))
		want, err := f.analyst.Entropy(mt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := f.analyst.EntropyScratch(mt, &sc)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trace %d: entropy %v vs %v", i, got, want)
		}
	}
}

// TestObserveScratchEquivalence folds the same sessions through the dense
// reference (one log value per node, folded from materialized Posterior
// vectors) and the spike/slab scratch fold, comparing every round's
// snapshot. The snapshots sum in different orders, so agreement is to
// tolerance; the argmax is exact.
func TestObserveScratchEquivalence(t *testing.T) {
	f := newScratchFixture(t, 14, []trace.NodeID{0, 1, 5}, 33)
	ref := newDenseAccumulator(f.n)
	acc, err := adversary.NewAccumulator(f.analyst)
	if err != nil {
		t.Fatal(err)
	}
	var sc adversary.Scratch
	for session := 0; session < 30; session++ {
		ref.reset()
		acc.Reset()
		for r := 0; r < 8; r++ {
			mt, _ := f.nextTrace(t, trace.MessageID(r+1))
			if err := ref.observe(f.analyst, mt); err != nil {
				t.Fatal(err)
			}
			if err := acc.ObserveScratch(mt, &sc); err != nil {
				t.Fatal(err)
			}
			hA, topA, massA, errA := ref.snapshot()
			hB, topB, massB, errB := acc.SnapshotFast()
			if errA != nil || errB != nil {
				t.Fatalf("session %d round %d: %v / %v", session, r, errA, errB)
			}
			if math.Abs(hA-hB) > 1e-9 || topA != topB || math.Abs(massA-massB) > 1e-9 {
				t.Fatalf("session %d round %d: (%v,%v,%v) vs (%v,%v,%v)",
					session, r, hA, topA, massA, hB, topB, massB)
			}
		}
	}
}

// TestAccumulatorResetEquivalence: a reset accumulator behaves like a
// fresh one — ErrNoObservations until the next fold, then identical
// snapshots.
func TestAccumulatorResetEquivalence(t *testing.T) {
	f := newScratchFixture(t, 12, []trace.NodeID{2, 7}, 34)
	acc, err := adversary.NewAccumulator(f.analyst)
	if err != nil {
		t.Fatal(err)
	}
	var sc adversary.Scratch
	mt, _ := f.nextTrace(t, 1)
	if err := acc.ObserveScratch(mt, &sc); err != nil {
		t.Fatal(err)
	}
	acc.Reset()
	if _, _, _, err := acc.SnapshotFast(); err == nil {
		t.Fatal("snapshot after reset did not report empty accumulator")
	}
	fresh, err := adversary.NewAccumulator(f.analyst)
	if err != nil {
		t.Fatal(err)
	}
	mt2, _ := f.nextTrace(t, 2)
	if err := acc.ObserveScratch(mt2, &sc); err != nil {
		t.Fatal(err)
	}
	if err := fresh.ObserveScratch(mt2, &sc); err != nil {
		t.Fatal(err)
	}
	hA, _, _, _ := acc.SnapshotFast()
	hB, _, _, _ := fresh.SnapshotFast()
	if hA != hB {
		t.Fatalf("reset accumulator diverged from fresh: %v vs %v", hA, hB)
	}
}

// TestFoldObservationEquivalence: folding a second analyst's view through
// FoldObservation matches folding its materialized Posterior(mt).P into
// the dense reference — the reliability layer's degraded-evidence path.
func TestFoldObservationEquivalence(t *testing.T) {
	const n = 14
	compromised := []trace.NodeID{0, 1, 5}
	f := newScratchFixture(t, n, compromised, 35)
	eU, err := events.New(n, len(compromised), events.WithUncompromisedReceiver())
	if err != nil {
		t.Fatal(err)
	}
	u, err := dist.NewUniform(1, 6)
	if err != nil {
		t.Fatal(err)
	}
	analystU, err := adversary.NewAnalyst(eU, u, compromised)
	if err != nil {
		t.Fatal(err)
	}
	accA := newDenseAccumulator(n)
	accB, err := adversary.NewAccumulator(f.analyst)
	if err != nil {
		t.Fatal(err)
	}
	var sc adversary.Scratch
	for i := 0; i < 100; i++ {
		accA.reset()
		accB.Reset()
		sender := trace.NodeID(f.rng.Intn(n))
		for f.analyst.Compromised(sender) {
			sender = trace.NodeID(f.rng.Intn(n))
		}
		path, err := f.sampler.SelectPath(&f.rng, sender)
		if err != nil {
			t.Fatal(err)
		}
		mt := montecarlo.Synthesize(1, sender, path, f.analyst.Compromised)
		if err := accA.observe(f.analyst, mt); err != nil {
			t.Fatal(err)
		}
		if err := accB.ObserveScratch(mt, &sc); err != nil {
			t.Fatal(err)
		}
		// A failed attempt that reached part-way down the same path.
		upto := 1 + f.rng.Intn(len(path))
		pmt := montecarlo.SynthesizePartial(1, sender, path, upto, f.analyst.Compromised)
		post, errP := analystU.Posterior(pmt)
		errF := accB.FoldObservation(analystU, pmt, &sc)
		if errP != nil {
			// The classic path skips unclassifiable partials; the scratch
			// fold must refuse them too and leave the accumulator usable.
			if errF == nil {
				t.Fatalf("case %d: Posterior failed (%v) but FoldObservation accepted", i, errP)
			}
		} else {
			accA.fold(post.P)
			if errF != nil {
				t.Fatalf("case %d: FoldObservation failed: %v", i, errF)
			}
		}
		hA, topA, _, errA := accA.snapshot()
		hB, topB, _, errB := accB.SnapshotFast()
		if (errA == nil) != (errB == nil) {
			t.Fatalf("case %d: snapshot errors %v vs %v", i, errA, errB)
		}
		if errA == nil && (math.Abs(hA-hB) > 1e-9 || topA != topB) {
			t.Fatalf("case %d: (%v,%v) vs (%v,%v)", i, hA, topA, hB, topB)
		}
	}
}

// TestPhasedObserveScratchEquivalence: the phased scratch fold matches
// Observe/Snapshot across a two-phase live mapping with churn.
func TestPhasedObserveScratchEquivalence(t *testing.T) {
	const total = 16
	phases := []struct {
		n           int
		compromised []trace.NodeID
		live        []trace.NodeID
	}{
		{12, []trace.NodeID{0, 1}, []trace.NodeID{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}},
		{12, []trace.NodeID{0, 1, 2}, []trace.NodeID{0, 1, 2, 3, 4, 5, 6, 7, 12, 13, 14, 15}},
	}
	paA, err := adversary.NewPhasedAccumulator(total)
	if err != nil {
		t.Fatal(err)
	}
	paB, err := adversary.NewPhasedAccumulator(total)
	if err != nil {
		t.Fatal(err)
	}
	var sc adversary.Scratch
	rng := stats.NewStream(36, 0)
	for _, ph := range phases {
		f := newScratchFixture(t, ph.n, ph.compromised, 37)
		f.rng = stats.NewStream(int64(rng.Intn(1<<30)), 0)
		for r := 0; r < 6; r++ {
			mt, _ := f.nextTrace(t, trace.MessageID(r+1))
			if err := paA.Observe(f.analyst, mt, ph.live); err != nil {
				t.Fatal(err)
			}
			if err := paB.ObserveScratch(f.analyst, mt, ph.live, &sc); err != nil {
				t.Fatal(err)
			}
			hA, topA, massA, errA := paA.Snapshot()
			hB, topB, massB, errB := paB.SnapshotFast()
			if errA != nil || errB != nil {
				t.Fatalf("round %d: %v / %v", r, errA, errB)
			}
			if math.Abs(hA-hB) > 1e-9 || topA != topB || math.Abs(massA-massB) > 1e-9 {
				t.Fatalf("round %d: (%v,%v,%v) vs (%v,%v,%v)",
					r, hA, topA, massA, hB, topB, massB)
			}
		}
	}
	paB.Reset()
	if _, _, _, err := paB.SnapshotFast(); err == nil {
		t.Fatal("phased snapshot after reset did not report empty accumulator")
	}
}

// TestScratchZeroAllocSteadyState is the per-message allocation budget at
// the adversary layer: once the engine's class-statistics cache is warm,
// classify + fold + snapshot allocates nothing.
func TestScratchZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocation counts")
	}
	f := newScratchFixture(t, 14, []trace.NodeID{0, 1, 5}, 38)
	acc, err := adversary.NewAccumulator(f.analyst)
	if err != nil {
		t.Fatal(err)
	}
	var sc adversary.Scratch
	// Warm the engine's memoized class statistics over the trace mix.
	traces := make([]*trace.MessageTrace, 64)
	for i := range traces {
		traces[i], _ = f.nextTrace(t, trace.MessageID(i+1))
		if _, err := f.analyst.EntropyScratch(traces[i], &sc); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		mt := traces[i%len(traces)]
		i++
		if _, err := f.analyst.EntropyScratch(mt, &sc); err != nil {
			t.Fatal(err)
		}
		acc.Reset()
		if err := acc.ObserveScratch(mt, &sc); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := acc.SnapshotFast(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state analysis allocates %v per message, want 0", allocs)
	}
}
