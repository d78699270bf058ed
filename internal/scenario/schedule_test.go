package scenario

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"testing"

	"anonmix/internal/trace"
)

// oraclePhase is one phase of the map-based reference schedule.
type oraclePhase struct {
	epoch     Epoch
	live      []trace.NodeID
	comp      []trace.NodeID
	denseComp []trace.NodeID
	denseOf   map[trace.NodeID]int
	compSet   map[trace.NodeID]bool
}

// oraclePhases is the reference membership walk: it materializes every
// phase's identities into maps, applying each epoch's deltas one node at a
// time (joins, leaves, compromises, recoveries) and validating as it goes.
// The counts walk (schedulePhases) and the identity view
// (Config.members) must reproduce it exactly, errors included.
func oraclePhases(n int, baseComp []trace.NodeID, timeline []Epoch) ([]oraclePhase, error) {
	live := make([]bool, unionSize(n, timeline))
	for v := 0; v < n; v++ {
		live[v] = true
	}
	compSet := make(map[trace.NodeID]bool, len(baseComp))
	compOrder := append([]trace.NodeID(nil), baseComp...)
	for _, id := range baseComp {
		compSet[id] = true
	}
	next := trace.NodeID(n)
	var phases []oraclePhase
	for i, e := range timeline {
		for j := 0; j < e.Join; j++ {
			live[next] = true
			next++
		}
		leaveCur := int(next) - 1
		for j := 0; j < e.Leave; j++ {
			for leaveCur >= 0 && !(live[leaveCur] && !compSet[trace.NodeID(leaveCur)]) {
				leaveCur--
			}
			if leaveCur < 0 {
				return nil, fmt.Errorf("%w: epoch %d: no honest member left to leave", ErrBadConfig, i)
			}
			live[leaveCur] = false
		}
		compCur := 0
		for j := 0; j < e.Compromise; j++ {
			for compCur < int(next) && !(live[compCur] && !compSet[trace.NodeID(compCur)]) {
				compCur++
			}
			if compCur >= int(next) {
				return nil, fmt.Errorf("%w: epoch %d: no honest member left to compromise", ErrBadConfig, i)
			}
			compSet[trace.NodeID(compCur)] = true
			compOrder = append(compOrder, trace.NodeID(compCur))
		}
		for j := 0; j < e.Recover; j++ {
			if len(compOrder) == 0 {
				return nil, fmt.Errorf("%w: epoch %d: no compromised node left to recover", ErrBadConfig, i)
			}
			v := compOrder[len(compOrder)-1]
			compOrder = compOrder[:len(compOrder)-1]
			delete(compSet, v)
		}
		p := oraclePhase{
			epoch:   e,
			denseOf: make(map[trace.NodeID]int),
			compSet: make(map[trace.NodeID]bool, len(compSet)),
		}
		for g := 0; g < int(next); g++ {
			if !live[g] {
				continue
			}
			id := trace.NodeID(g)
			p.denseOf[id] = len(p.live)
			p.live = append(p.live, id)
			if compSet[id] {
				p.comp = append(p.comp, id)
				p.denseComp = append(p.denseComp, trace.NodeID(p.denseOf[id]))
				p.compSet[id] = true
			}
		}
		if len(p.live) < 2 {
			return nil, fmt.Errorf("%w: epoch %d leaves %d live nodes (need ≥ 2)", ErrBadConfig, i, len(p.live))
		}
		if len(p.comp) >= len(p.live) {
			return nil, fmt.Errorf("%w: epoch %d compromises the whole population (%d of %d)", ErrBadConfig,
				i, len(p.comp), len(p.live))
		}
		phases = append(phases, p)
	}
	return phases, nil
}

// oracleSenderPool is the reference session sender pool: every identity
// live in some phase (collected through a seen-set) that is live in every
// phase sending rounds.
func oracleSenderPool(phases []oraclePhase) []trace.NodeID {
	seen := map[trace.NodeID]bool{}
	var union []trace.NodeID
	for i := range phases {
		for _, g := range phases[i].live {
			if !seen[g] {
				seen[g] = true
				union = append(union, g)
			}
		}
	}
	sort.Slice(union, func(i, j int) bool { return union[i] < union[j] })
	var pool []trace.NodeID
	for _, g := range union {
		ok := true
		for i := range phases {
			if _, live := phases[i].denseOf[g]; phases[i].epoch.Rounds > 0 && !live {
				ok = false
				break
			}
		}
		if ok {
			pool = append(pool, g)
		}
	}
	return pool
}

// FuzzPhaseSchedule checks the counts walk and the identity view against
// the map-based reference walk: every epoch's (N, C), the rejection (its
// class and message), each phase's dense index and compromised test for
// every union identity, and the session sender pool. The base compromised
// set is either the standard first-c prefix or an explicit list in
// arbitrary order (recoveries undo it LIFO, so its order matters).
func FuzzPhaseSchedule(f *testing.F) {
	f.Add(20, 4, []byte(nil), "msgs=100;msgs=300,join=5,comp=2;msgs=100,leave=3,recover=1")
	f.Add(12, 0, []byte{150, 43, 192}, "rounds=2;rounds=2,recover=2,comp=1;rounds=1,leave=6")
	f.Add(10, 0, []byte{77, 26}, "join=2,leave=4;comp=3;recover=5")
	f.Add(6, 2, []byte(nil), "leave=5")
	f.Add(6, 0, []byte{214, 171, 128}, "comp=3")
	f.Add(4, 1, []byte(nil), "join=3,leave=3;rounds=1,comp=2;rounds=1,recover=3,leave=1")
	// nodes, when non-empty, lists the explicit compromised set: byte b
	// names identity b·n/256 (seeds above: {7, 2, 9} of 12, {3, 1} of 10,
	// {5, 4, 3} of 6).
	f.Fuzz(func(t *testing.T, n, c int, nodes []byte, epochs string) {
		// The reference walk materializes every identity, so sizes are
		// clamped; the deltas stay free to overrun the population.
		if n < 2 || n > 512 || c < 0 || c >= n {
			return
		}
		timeline, err := ParseTimeline(epochs)
		if err != nil || len(timeline) == 0 || len(timeline) > 8 {
			return
		}
		for i := range timeline {
			for _, v := range []*int{&timeline[i].Messages, &timeline[i].Rounds, &timeline[i].Join,
				&timeline[i].Leave, &timeline[i].Compromise, &timeline[i].Recover} {
				if *v < 0 {
					return // rejected before any walk (normalizeTimeline, TimelineStates)
				}
				*v %= 64
			}
		}
		base := make([]trace.NodeID, c)
		for i := range base {
			base[i] = trace.NodeID(i)
		}
		if len(nodes) > 0 {
			base = base[:0]
			for _, b := range nodes {
				if id := trace.NodeID(int(b) * n / 256); !slices.Contains(base, id) && len(base) < n-1 {
					base = append(base, id)
				}
			}
		}

		want, wantErr := oraclePhases(n, base, timeline)
		got, gotErr := schedulePhases(n, len(base), timeline)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("schedulePhases error %v, reference %v", gotErr, wantErr)
		}
		if wantErr != nil {
			if !errors.Is(gotErr, ErrBadConfig) || gotErr.Error() != wantErr.Error() {
				t.Fatalf("schedulePhases error %q, reference %q", gotErr, wantErr)
			}
			return
		}
		cfg := Config{N: n, Adversary: Adversary{Compromised: base}, Timeline: timeline, phases: got}
		ms := cfg.members()
		if len(got) != len(want) || len(ms) != len(want) {
			t.Fatalf("%d phases (%d with members), reference %d", len(got), len(ms), len(want))
		}
		total := unionSize(n, timeline)
		for i := range want {
			w, m := &want[i], &ms[i]
			if got[i].epoch != w.epoch || got[i].n != len(w.live) || got[i].c != len(w.comp) {
				t.Fatalf("epoch %d: counts %+v, reference (%d, %d)", i, got[i], len(w.live), len(w.comp))
			}
			if m.phase != got[i] {
				t.Fatalf("epoch %d: members carry %+v, counts %+v", i, m.phase, got[i])
			}
			if !slices.Equal(m.live, w.live) || !slices.Equal(m.comp, w.comp) || !slices.Equal(m.denseComp, w.denseComp) {
				t.Fatalf("epoch %d: members %v / %v / %v, reference %v / %v / %v",
					i, m.live, m.comp, m.denseComp, w.live, w.comp, w.denseComp)
			}
			for g := trace.NodeID(0); g < trace.NodeID(total); g++ {
				d, ok := m.dense(g)
				wd, wok := w.denseOf[g]
				if ok != wok || ok && d != wd {
					t.Fatalf("epoch %d: dense(%d) = (%d, %v), reference (%d, %v)", i, g, d, ok, wd, wok)
				}
				if m.compromised(g) != w.compSet[g] {
					t.Fatalf("epoch %d: compromised(%d) = %v, reference %v", i, g, m.compromised(g), w.compSet[g])
				}
			}
		}
		if timelineRounds(got) {
			if pool, wantPool := senderPool(ms), oracleSenderPool(want); !slices.Equal(pool, wantPool) {
				t.Fatalf("sender pool %v, reference %v", pool, wantPool)
			}
		}
	})
}

// TestExactTimelineAllocation pins the exact single-shot timeline path to
// the schedule's counts: once the engine cache is warm, a ten-epoch run
// over a million nodes allocates kilobytes, not the per-node identity
// state the sampled drivers build.
func TestExactTimelineAllocation(t *testing.T) {
	const n, c = 1_000_000, 1000
	timeline := make([]Epoch, 10)
	for i := range timeline {
		timeline[i].Messages = 100
		if i > 0 {
			timeline[i].Join = 2
		}
	}
	cfg := Config{N: n, StrategySpec: "uniform:1,7", Adversary: Adversary{Count: c}, Timeline: timeline}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	allocated := func(run func() error) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	run := allocated(func() error { _, err := Run(cfg); return err })
	states := allocated(func() error { _, err := TimelineStates(n, c, timeline); return err })
	t.Logf("warm exact timeline Run allocated %d B, TimelineStates %d B", run, states)
	if run >= 1<<20 {
		t.Errorf("warm exact timeline Run allocated %d KB, want < 1024 KB", run>>10)
	}
	if states >= 64<<10 {
		t.Errorf("TimelineStates allocated %d KB, want < 64 KB", states>>10)
	}
}

// TestRoundsTimelineAllocation pins that a Rounds timeline builds its
// identity view and sender pool once per run: normalize builds them for
// its sender-pool check and the session driver reuses them. One view of
// this 20,000-node, three-epoch schedule costs about 680 KB.
func TestRoundsTimelineAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocations")
	}
	timeline, err := ParseTimeline("rounds=4;rounds=4,join=10,comp=2;rounds=4,leave=10")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		N: 20_000, Backend: BackendMonteCarlo, StrategySpec: "uniform:1,6",
		Adversary: Adversary{Count: 20},
		Timeline:  timeline,
		Workload:  Workload{Messages: 600, Seed: 1, Workers: 1},
	}
	if _, err := Run(cfg); err != nil { // warm the engine cache
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	run := after.TotalAlloc - before.TotalAlloc
	t.Logf("warm Rounds-timeline Run allocated %d KB", run>>10)
	if run > 900<<10 {
		t.Errorf("warm Rounds-timeline Run allocated %d KB, want ≤ 900 KB", run>>10)
	}
}

// TestStaticRunAllocation pins that a static config's identity view
// reuses the normalized compromised list, which is sorted whenever it
// comes from Adversary.Count, instead of collecting a sorted copy: at
// N = 10⁶ with 2·10⁵ compromised nodes a warm 1,000-message run stays
// within a budget the copy alone would break on Monte-Carlo, and the
// testbed's one routed driver, which walks the same view, stays near the
// cost of its kernel.
func TestStaticRunAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocations")
	}
	for _, tc := range []struct {
		backend BackendKind
		budget  uint64
	}{
		{BackendMonteCarlo, 6 << 20},
		{BackendTestbed, 12 << 20},
	} {
		cfg := Config{
			N: 1_000_000, Backend: tc.backend, StrategySpec: "uniform:1,7",
			Adversary: Adversary{Count: 200_000},
			Workload:  Workload{Messages: 1000, Seed: 1, Workers: 1},
		}
		if _, err := Run(cfg); err != nil { // warm the engine cache
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		run := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: warm static Run allocated %d KB", tc.backend, run>>10)
		if run > tc.budget {
			t.Errorf("%s: warm static Run allocated %d KB, want ≤ %d KB", tc.backend, run>>10, tc.budget>>10)
		}
	}
}
