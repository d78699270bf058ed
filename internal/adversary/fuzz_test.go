package adversary_test

import (
	"errors"
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

// FuzzPathObservation pins the path route to the trace route: over a
// random non-prefix compromised set of 0 to N−2 nodes, under either
// receiver assumption, every random simple path (length 0 to N−1, from
// any sender, a compromised one included, with compromised hops packed as
// densely as the input asks so that runs, junctions and a compromised
// predecessor of the first run all occur) must give PathEntropy the bits
// and error class of SynthesizeInto plus EntropyScratch, and folding the
// same paths through ObservePath and ObserveScratch, with Resets between
// them, must leave Rounds and SnapshotFast's (h, top, mass) bit-identical
// after every step.
func FuzzPathObservation(f *testing.F) {
	f.Add(uint16(7), int64(1), false, []byte{1, 1, 1, 1, 0, 9, 13, 17, 5, 21, 1, 1, 6, 14, 2, 10})
	f.Add(uint16(4), int64(2), true, []byte{5, 9, 13, 17, 21, 25, 0, 133, 137, 141, 145, 6, 10})
	f.Add(uint16(298), int64(3), false, []byte{2, 6, 10, 14, 18, 22, 26, 30, 0, 138, 142})
	f.Add(uint16(30), int64(4), false, []byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9})
	// Kills two former spike carriers at one wide junction, so swapping
	// the junction's witnesses reorders the candidate list and the
	// snapshot's sum.
	f.Add(uint16(67), int64(136), false, []byte("1A\xa1\xa1\xa1\xa1\xa1\xa1\xa1)7\xa1\xa1\xa1\xa19\xa1\xa1"))
	f.Fuzz(func(t *testing.T, nRaw uint16, seed int64, uncompromisedReceiver bool, ops []byte) {
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
		compromised := ids[:rng.Intn(n-1)]
		var opts []events.Option
		if uncompromisedReceiver {
			opts = append(opts, events.WithUncompromisedReceiver())
		}
		e, err := events.New(n, len(compromised), opts...)
		if err != nil {
			t.Fatal(err)
		}
		d, err := dist.NewUniform(0, n-1)
		if err != nil {
			t.Fatal(err)
		}
		analyst, err := adversary.NewAnalyst(e, d, compromised)
		if err != nil {
			t.Fatal(err)
		}
		accPath, err := adversary.NewAccumulator(analyst)
		if err != nil {
			t.Fatal(err)
		}
		accTrace, err := adversary.NewAccumulator(analyst)
		if err != nil {
			t.Fatal(err)
		}
		var scPath, scTrace adversary.Scratch
		var mt trace.MessageTrace
		var honestPool, compPool, path []trace.NodeID
		for step, op := range ops {
			if op%4 == 0 {
				accPath.Reset()
				accTrace.Reset()
				continue
			}
			// The sender: uniform, or (high bit) compromised when any is.
			sender := trace.NodeID(rng.Intn(n))
			if op&0x80 != 0 && len(compromised) > 0 {
				sender = compromised[rng.Intn(len(compromised))]
			}
			// A simple path without the sender: each hop is compromised
			// with probability (op>>2 & 7)/7 while both kinds remain.
			honestPool, compPool = honestPool[:0], compPool[:0]
			for _, id := range ids {
				switch {
				case id == sender:
				case analyst.Compromised(id):
					compPool = append(compPool, id)
				default:
					honestPool = append(honestPool, id)
				}
			}
			density := float64(op>>2&7) / 7
			path = path[:0]
			for l := rng.Intn(n); len(path) < l; {
				pool := &honestPool
				if len(honestPool) == 0 || (len(compPool) > 0 && rng.Float64() < density) {
					pool = &compPool
				}
				j := rng.Intn(len(*pool))
				path = append(path, (*pool)[j])
				(*pool)[j] = (*pool)[len(*pool)-1]
				*pool = (*pool)[:len(*pool)-1]
			}

			montecarlo.SynthesizeInto(&mt, trace.MessageID(step+1), sender, path, analyst.Compromised)
			hTrace, errTrace := analyst.EntropyScratch(&mt, &scTrace)
			hPath, errPath := analyst.PathEntropy(sender, path)
			if ct, cp := errClass(errTrace), errClass(errPath); ct != cp ||
				math.Float64bits(hTrace) != math.Float64bits(hPath) {
				t.Fatalf("step %d: sender %v path %v: PathEntropy (%v, %s), trace route (%v, %s)",
					step, sender, path, hPath, cp, hTrace, ct)
			}
			errTrace = accTrace.ObserveScratch(&mt, &scTrace)
			errPath = accPath.ObservePath(sender, path, &scPath)
			if ct, cp := errClass(errTrace), errClass(errPath); ct != cp {
				t.Fatalf("step %d: sender %v path %v: fold error %s (path) vs %s (trace)", step, sender, path, cp, ct)
			}
			if accPath.Rounds() != accTrace.Rounds() {
				t.Fatalf("step %d: rounds %d (path) vs %d (trace)", step, accPath.Rounds(), accTrace.Rounds())
			}
			hP, topP, massP, errP := accPath.SnapshotFast()
			hT, topT, massT, errT := accTrace.SnapshotFast()
			if ct, cp := errClass(errT), errClass(errP); ct != cp {
				t.Fatalf("step %d: snapshot error %s (path) vs %s (trace)", step, cp, ct)
			}
			if math.Float64bits(hP) != math.Float64bits(hT) || topP != topT ||
				math.Float64bits(massP) != math.Float64bits(massT) {
				t.Fatalf("step %d: sender %v path %v: snapshot (%v, %v, %v) path vs (%v, %v, %v) trace",
					step, sender, path, hP, topP, massP, hT, topT, massT)
			}
		}
	})
}

// fuzzPhase is one traffic phase of FuzzPhasedFold's schedule.
type fuzzPhase struct {
	rounds    int
	live      []trace.NodeID // ascending union identities; nil for the identity
	analyst   *adversary.Analyst
	analystU  *adversary.Analyst // the uncompromised-receiver analysis of partial traces
	sampler   *pathsel.Sampler
	liveCount int
}

// fuzzSchedule draws a membership schedule over one to five phases: a base
// population of n nodes with a random (non-prefix) compromised set, then
// per phase random joins, leaves of honest members, compromises of honest
// members and recoveries of compromised ones, with 0 to 3 rounds each. It
// returns the union size and the phases that carry rounds (the last one
// carries at least one), each with its analysts and a path sampler.
func fuzzSchedule(t *testing.T, rng *stats.Stream, n int, uncompromisedReceiver bool) (int, []fuzzPhase) {
	t.Helper()
	live := make([]bool, n, 300)
	comp := make([]bool, n, 300)
	for g := range live {
		live[g] = true
		comp[g] = rng.Intn(3) == 0
	}
	// pick returns a random union identity among those keep accepts.
	pick := func(keep func(g int) bool) int {
		var pool []int
		for g := range live {
			if keep(g) {
				pool = append(pool, g)
			}
		}
		return pool[rng.Intn(len(pool))]
	}
	count := func(keep func(g int) bool) int {
		k := 0
		for g := range live {
			if keep(g) {
				k++
			}
		}
		return k
	}
	honest := func(g int) bool { return live[g] && !comp[g] }
	compromised := func(g int) bool { return live[g] && comp[g] }
	for count(honest) < 2 {
		comp[pick(func(g int) bool { return comp[g] })] = false
	}
	type epoch struct {
		rounds int
		live   []trace.NodeID
		comp   []trace.NodeID // dense
	}
	var epochs []epoch
	for e, phases := 0, 1+rng.Intn(5); e < phases; e++ {
		if e > 0 {
			for j := rng.Intn(min(8, 300-len(live)) + 1); j > 0; j-- {
				live, comp = append(live, true), append(comp, false)
			}
			for j := rng.Intn(count(honest) - 1); j > 0; j-- {
				live[pick(honest)] = false
			}
			for j := rng.Intn(count(honest) - 1); j > 0; j-- {
				comp[pick(honest)] = true
			}
			for j := rng.Intn(count(compromised) + 1); j > 0; j-- {
				comp[pick(compromised)] = false
			}
		}
		ep := epoch{rounds: rng.Intn(4)}
		for g := range live {
			if live[g] {
				if comp[g] {
					ep.comp = append(ep.comp, trace.NodeID(len(ep.live)))
				}
				ep.live = append(ep.live, trace.NodeID(g))
			}
		}
		epochs = append(epochs, ep)
	}
	if epochs[len(epochs)-1].rounds == 0 {
		epochs[len(epochs)-1].rounds = 1
	}
	union := len(live)
	var opts []events.Option
	if uncompromisedReceiver {
		opts = append(opts, events.WithUncompromisedReceiver())
	}
	var out []fuzzPhase
	for _, ep := range epochs {
		if ep.rounds == 0 {
			continue
		}
		n := len(ep.live)
		strat, err := pathsel.UniformLength(0, min(6, n-1))
		if err != nil {
			t.Fatal(err)
		}
		e, err := events.New(n, len(ep.comp), opts...)
		if err != nil {
			t.Fatal(err)
		}
		eU, err := events.New(n, len(ep.comp), events.WithUncompromisedReceiver())
		if err != nil {
			t.Fatal(err)
		}
		ph := fuzzPhase{rounds: ep.rounds, live: ep.live, liveCount: n}
		if ph.analyst, err = adversary.NewAnalyst(e, strat.Length, ep.comp); err != nil {
			t.Fatal(err)
		}
		if ph.analystU, err = adversary.NewAnalyst(eU, strat.Length, ep.comp); err != nil {
			t.Fatal(err)
		}
		sel, err := pathsel.NewSelector(n, strat)
		if err != nil {
			t.Fatal(err)
		}
		if ph.sampler, err = sel.NewSampler(); err != nil {
			t.Fatal(err)
		}
		if n == union && rng.Intn(2) == 0 {
			ph.live = nil // the identity, spelled either way
		}
		out = append(out, ph)
	}
	return union, out
}

// FuzzPhasedFold drives a timeline Accumulator and the dense phased
// reference fold through the same sessions over a random schedule (see
// fuzzSchedule): a union of 2 to 300 nodes, one to five phases of joins,
// leaves, non-prefix compromises and recoveries, zero-round phases among
// them, under either receiver assumption. A session walks the phases that
// carry rounds in order, and each round folds a random sender's message
// by the path route (ObservePath), the trace route (ObserveScratch) or as
// a partial trace (FoldObservation), with Resets interleaved. After every
// step the error classes, Rounds, the snapshot's (h, top, mass) to 1e-9
// and the posterior to 1e-12 must agree.
func FuzzPhasedFold(f *testing.F) {
	f.Add(uint16(12), int64(1), false, []byte{1, 2, 3, 1, 2, 3, 1, 2, 4, 1, 2, 3, 0, 1, 1, 2, 2, 3, 3})
	f.Add(uint16(0), int64(2), true, []byte{1, 1, 2, 2, 3, 3, 4, 4, 1, 2, 3, 4, 0, 1, 2})
	f.Add(uint16(298), int64(3), false, []byte{2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2})
	f.Add(uint16(40), int64(4), false, []byte{3, 1, 3, 1, 3, 1, 3, 1, 3, 1, 3, 1, 3, 1, 0, 3, 3, 3})
	f.Add(uint16(25), int64(5), true, []byte{4, 1, 4, 2, 4, 3, 4, 1, 4, 2, 4, 3, 4, 1, 4, 2})
	f.Add(uint16(7), int64(6), false, []byte{1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2})
	// A spike carrier that leaves with the next phase, found by fuzzing
	// an accumulator that kept absent carriers alive.
	f.Add(uint16(20), int64(1), false, []byte("000"))
	f.Fuzz(func(t *testing.T, nRaw uint16, seed int64, uncompromisedReceiver bool, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		rng := stats.NewStream(seed, 0)
		union, phases := fuzzSchedule(t, &rng, 2+int(nRaw)%150, uncompromisedReceiver)
		analysts := make([]*adversary.Analyst, len(phases))
		live := make([][]trace.NodeID, len(phases))
		for i := range phases {
			analysts[i], live[i] = phases[i].analyst, phases[i].live
		}
		acc, err := adversary.NewTimelineAccumulator(union, analysts, live)
		if err != nil {
			t.Fatal(err)
		}
		ref := newDenseAccumulator(union)
		var sc adversary.Scratch
		cur, folded := 0, 0
		for step, op := range ops {
			var errA, errB error
			if op%5 == 0 {
				acc.Reset()
				ref.reset()
				cur, folded = 0, 0
			} else {
				if folded == phases[cur].rounds {
					// The phase is done: the session moves on, or a new
					// one starts after the last phase.
					if cur++; cur == len(phases) {
						acc.Reset()
						ref.reset()
						cur = 0
					} else if err := acc.SetPhase(cur); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					folded = 0
				}
				ph := &phases[cur]
				sender := trace.NodeID(rng.Intn(ph.liveCount))
				path, err := ph.sampler.SelectPath(&rng, sender)
				if err != nil {
					t.Fatal(err)
				}
				switch op % 5 {
				case 1, 2:
					mt := montecarlo.Synthesize(trace.MessageID(step+1), sender, path, ph.analyst.Compromised)
					errA = ref.observePhase(ph.analyst, mt, ph.live)
					errB = acc.ObservePath(sender, path, &sc)
				case 3:
					mt := montecarlo.Synthesize(trace.MessageID(step+1), sender, path, ph.analyst.Compromised)
					errA = ref.observePhase(ph.analyst, mt, ph.live)
					errB = acc.ObserveScratch(mt, &sc)
				case 4:
					upto := rng.Intn(len(path) + 1)
					pmt := montecarlo.SynthesizePartial(trace.MessageID(step+1), sender, path, upto, ph.analyst.Compromised)
					errA = ref.observePhase(ph.analystU, pmt, ph.live)
					errB = acc.FoldObservation(ph.analystU, pmt, &sc)
				}
				if errB == nil {
					folded++
				}
			}
			if ca, cb := errClass(errA), errClass(errB); ca != cb {
				t.Fatalf("step %d (op %d): fold error %s (dense) vs %s (sparse)", step, op%5, ca, cb)
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
			pA, errA := ref.posterior()
			pB, errB := acc.Posterior()
			if errA != nil || errB != nil {
				t.Fatalf("step %d: posterior errors %v (dense) vs %v (sparse)", step, errA, errB)
			}
			for g := range pA {
				if math.Abs(pA[g]-pB[g]) > 1e-12 {
					t.Fatalf("step %d: posterior[%d] %v (dense) vs %v (sparse)", step, g, pA[g], pB[g])
				}
			}
		}
	})
}
