package simnet

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"anonmix/internal/faults"
	"anonmix/internal/stats"
	"anonmix/internal/trace"
)

// reliabilityNet builds and starts a network, failing the test on error.
func reliabilityNet(t *testing.T, cfg Config) *Network {
	t.Helper()
	nw, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	nw.Start()
	t.Cleanup(nw.Close)
	return nw
}

func TestReliabilityConfigValidation(t *testing.T) {
	bad := []Config{
		{N: 4, LinkLoss: -0.1},
		{N: 4, LinkLoss: 1.5},
		{N: 4, Policy: faults.Policy(9)},
		{N: 4, MaxAttempts: -1},
		{N: 4, RetryBackoff: -time.Nanosecond},
		{N: 4, Crashes: []faults.Crash{{Node: 9, At: 1}}},                     // node out of range
		{N: 4, Crashes: []faults.Crash{{Node: 1, At: 10, Recover: 5}}},        // recover before crash
		{N: 4, Crashes: []faults.Crash{{Node: 1, At: 10}, {Node: 1, At: 20}}}, // overlapping windows
	}
	for i, cfg := range bad {
		if _, err := New(cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("case %d: New(%+v) = %v, want ErrBadConfig", i, cfg, err)
		}
	}
}

// TestSettleTerminatesUnderTotalLoss is the acceptance criterion: every
// policy must retire every message under 100% loss, so Settle returns.
func TestSettleTerminatesUnderTotalLoss(t *testing.T) {
	for _, policy := range []faults.Policy{faults.PolicyNone, faults.PolicyRetransmit, faults.PolicyReroute} {
		t.Run(policy.String(), func(t *testing.T) {
			nw := reliabilityNet(t, Config{N: 8, LinkLoss: 1, Policy: policy, Seed: 1})
			const msgs = 50
			for i := 0; i < msgs; i++ {
				if _, err := nw.SendRoute(trace.NodeID(i%8), []trace.NodeID{(trace.NodeID(i+1) % 8)}, nil); err != nil {
					t.Fatalf("send %d: %v", i, err)
				}
			}
			if err := nw.Settle(30 * time.Second); err != nil {
				t.Fatalf("Settle under total loss: %v", err)
			}
			if got := len(nw.Deliveries()); got != 0 {
				t.Fatalf("%d deliveries under 100%% loss", got)
			}
			st := nw.DropStats()
			failed := nw.TakeFailed()
			if policy == faults.PolicyReroute {
				if len(failed) != msgs || st.Total != 0 {
					t.Fatalf("reroute: %d handoffs, %d drops; want %d handoffs", len(failed), st.Total, msgs)
				}
			} else {
				if st.Total != msgs || st.ByCause[DropLoss] != msgs || len(failed) != 0 {
					t.Fatalf("%v: drops %+v, %d handoffs; want %d loss drops", policy, st, len(failed), msgs)
				}
			}
			if m := nw.Metrics(); m.Dropped != st.Total || nw.DefectDrops() != 0 {
				t.Fatalf("counts without samples: %d dropped, %d defects; stats %+v",
					m.Dropped, nw.DefectDrops(), st)
			}
			if policy == faults.PolicyRetransmit {
				// Every message burns its full per-link budget before the drop.
				want := uint64(msgs * (faults.DefaultMaxAttempts - 1))
				if got := nw.Metrics().Retries; got != want {
					t.Errorf("retries = %d, want %d", got, want)
				}
			}
		})
	}
}

// TestRetransmitRecoversModerateLoss checks that per-link retransmission
// delivers everything under a loss rate the attempt budget easily absorbs,
// and that every trace stays simple (one report per observer) with
// retries segregated into RetryTaps.
func TestRetransmitRecoversModerateLoss(t *testing.T) {
	nw := reliabilityNet(t, Config{
		N: 16, Compromised: []trace.NodeID{1, 2}, LinkLoss: 0.2,
		Policy: faults.PolicyRetransmit, Seed: 7,
	})
	const msgs = 200
	for i := 0; i < msgs; i++ {
		route := []trace.NodeID{1, 2, trace.NodeID(3 + i%13)}
		if _, err := nw.SendRoute(0, route, nil); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	if err := nw.Settle(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := len(nw.Deliveries()); got != msgs {
		t.Fatalf("delivered %d of %d (drops: %+v)", got, msgs, nw.DropStats())
	}
	// 0.2 loss with an 8-attempt budget: retries certain, all recovered.
	if nw.Metrics().Retries == 0 {
		t.Error("no retries at 20% loss")
	}
	perObserver := make(map[trace.MessageID]map[trace.NodeID]int)
	for _, tp := range nw.Tuples() {
		m := perObserver[tp.Msg]
		if m == nil {
			m = make(map[trace.NodeID]int)
			perObserver[tp.Msg] = m
		}
		m[tp.Observer]++
		if m[tp.Observer] > 1 {
			t.Fatalf("observer %v reported msg %d twice in the main stream", tp.Observer, tp.Msg)
		}
	}
	taps := 0
	for _, d := range nw.Deliveries() {
		for _, tp := range nw.RetryTaps(d.Msg) {
			taps++
			if tp.Observer != 1 && tp.Observer != 2 {
				t.Fatalf("retry observation from honest node %v", tp.Observer)
			}
		}
	}
	if taps == 0 {
		t.Error("no retry observations from compromised relays at 20% loss")
	}
}

// TestRerouteHandoff checks that reroute-policy faults surface as Failure
// records (not drops), that a driver can re-inject, and that TakeFailed
// drains and sorts.
func TestRerouteHandoff(t *testing.T) {
	nw := reliabilityNet(t, Config{N: 8, LinkLoss: 0.3, Policy: faults.PolicyReroute, Seed: 3})
	const msgs = 100
	pending := make(map[trace.MessageID]bool)
	for i := 0; i < msgs; i++ {
		id, err := nw.SendRoute(trace.NodeID(i%4), []trace.NodeID{4, 5}, nil)
		if err != nil {
			t.Fatal(err)
		}
		pending[id] = true
	}
	delivered := 0
	for round := 0; round < 8; round++ {
		if err := nw.Settle(30 * time.Second); err != nil {
			t.Fatal(err)
		}
		failed := nw.TakeFailed()
		for i := 1; i < len(failed); i++ {
			if failed[i-1].Msg >= failed[i].Msg {
				t.Fatal("TakeFailed not sorted by message ID")
			}
		}
		if len(failed) == 0 {
			break
		}
		for range failed {
			// Fresh "path" for the retry (senders fixed, route varied).
			if _, err := nw.SendRoute(0, []trace.NodeID{trace.NodeID(1 + round%6)}, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	delivered = len(nw.Deliveries())
	if delivered == 0 {
		t.Fatal("nothing delivered")
	}
	if st := nw.DropStats(); st.Total != 0 {
		t.Fatalf("reroute produced drops: %+v", st)
	}
	if again := nw.TakeFailed(); len(again) > 8 {
		t.Fatalf("TakeFailed did not drain sensibly: %d", len(again))
	}
}

// TestCrashHandedToPolicy pins graceful degradation at a crashing node:
// with retransmission the packet waits out the outage and is delivered;
// with PolicyNone it is dropped with the crash cause; and a crashed mix
// node's partial batch is handed to the policy rather than leaked.
func TestCrashHandedToPolicy(t *testing.T) {
	crash := []faults.Crash{{Node: 2, At: 0, Recover: 40}}
	t.Run("retransmit-waits-out-outage", func(t *testing.T) {
		nw := reliabilityNet(t, Config{
			N: 6, Crashes: crash, Policy: faults.PolicyRetransmit,
			RetryBackoff: 16, Seed: 1,
		})
		if _, err := nw.SendRoute(0, []trace.NodeID{2, 3}, nil); err != nil {
			t.Fatal(err)
		}
		if err := nw.Settle(30 * time.Second); err != nil {
			t.Fatal(err)
		}
		dels := nw.Deliveries()
		if len(dels) != 1 {
			t.Fatalf("delivered %d, drops %+v", len(dels), nw.DropStats())
		}
		if dels[0].Time < 40 {
			t.Errorf("delivery at t=%d, before the outage ends at 40", dels[0].Time)
		}
		if nw.Metrics().Retries == 0 {
			t.Error("no crash retries recorded")
		}
	})
	t.Run("none-drops-with-crash-cause", func(t *testing.T) {
		nw := reliabilityNet(t, Config{N: 6, Crashes: []faults.Crash{{Node: 2, At: 0}}, Seed: 1})
		if _, err := nw.SendRoute(0, []trace.NodeID{2, 3}, nil); err != nil {
			t.Fatal(err)
		}
		if err := nw.Settle(30 * time.Second); err != nil {
			t.Fatal(err)
		}
		st := nw.DropStats()
		if st.Total != 1 || st.ByCause[DropCrash] != 1 {
			t.Fatalf("drops %+v, want one crash drop", st)
		}
	})
	t.Run("mix-batch-never-leaked", func(t *testing.T) {
		// Node 1 is a threshold mix crashing at t=10 and never recovering.
		// Its partial batch is released by the quiescence flush into the
		// crashed node, where the policy (none) must retire every packet.
		nw := reliabilityNet(t, Config{
			N: 6, BatchThreshold: 4, Shards: 1,
			Crashes: []faults.Crash{{Node: 1, At: 10}}, Seed: 1,
		})
		const msgs = 3 // below the threshold: stays buffered until the flush
		for i := 0; i < msgs; i++ {
			if _, err := nw.SendRoute(0, []trace.NodeID{1, 2}, nil); err != nil {
				t.Fatal(err)
			}
		}
		nw.AdvanceTime(50) // the flush release time falls inside the outage
		if err := nw.Settle(30 * time.Second); err != nil {
			t.Fatalf("Settle with crashed mix: %v", err)
		}
		st := nw.DropStats()
		if int(st.Total)+len(nw.Deliveries()) != msgs {
			t.Fatalf("leaked packets: %d drops + %d deliveries != %d", st.Total, len(nw.Deliveries()), msgs)
		}
	})
}

// TestLossyRunDeterministic pins that tuple streams, deliveries, retries,
// and drop totals of a lossy retransmit run are identical across shard
// counts — losses and backoffs are pure functions of the seed.
func TestLossyRunDeterministic(t *testing.T) {
	run := func(shards int) ([]trace.Tuple, []Delivery, DropStats, uint64) {
		nw := reliabilityNet(t, Config{
			N: 24, Compromised: []trace.NodeID{3, 5, 7}, LinkLoss: 0.25,
			Policy: faults.PolicyRetransmit, MaxAttempts: 4, Seed: 99, Shards: shards,
		})
		rng := stats.NewRand(11)
		for i := 0; i < 300; i++ {
			route := []trace.NodeID{
				trace.NodeID(1 + rng.Intn(23)),
				trace.NodeID(1 + rng.Intn(23)),
			}
			if route[0] == route[1] {
				route[1] = (route[1] + 1) % 24
				if route[1] == 0 {
					route[1] = 1
				}
			}
			if _, err := nw.SendRoute(0, route, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := nw.Settle(30 * time.Second); err != nil {
			t.Fatal(err)
		}
		tuples := nw.Tuples()
		sortTuples(tuples)
		return tuples, nw.Deliveries(), nw.DropStats(), nw.Metrics().Retries
	}
	t1, d1, s1, r1 := run(1)
	t4, d4, s4, r4 := run(4)
	if r1 != r4 {
		t.Errorf("retries differ across shard counts: %d vs %d", r1, r4)
	}
	if s1.Total != s4.Total || fmt.Sprint(s1.ByCause) != fmt.Sprint(s4.ByCause) {
		t.Errorf("drop stats differ: %+v vs %+v", s1, s4)
	}
	if len(d1) != len(d4) {
		t.Fatalf("delivery counts differ: %d vs %d", len(d1), len(d4))
	}
	if len(t1) != len(t4) {
		t.Fatalf("tuple counts differ: %d vs %d", len(t1), len(t4))
	}
	for i := range t1 {
		if t1[i] != t4[i] {
			t.Fatalf("tuple %d differs: %+v vs %+v", i, t1[i], t4[i])
		}
	}
}

// TestLossDropsFormatLazily: a drop the fault process explains is kept as
// its parts until DropStats or Dropped reads it. Direct sends lost on
// their only link allocate nothing per message, and reading the counts
// through Metrics and DefectDrops formats nothing either; the samples then
// read as they always have.
func TestLossDropsFormatLazily(t *testing.T) {
	nw := reliabilityNet(t, Config{N: 8, LinkLoss: 1, Seed: 3})
	const msgs = 1000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < msgs; i++ {
		if _, err := nw.SendRoute(trace.NodeID(i%8), nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := nw.Settle(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if nw.Metrics().Dropped != msgs || nw.DefectDrops() != 0 {
		t.Fatalf("counted %d drops, %d defects", nw.Metrics().Dropped, nw.DefectDrops())
	}
	runtime.ReadMemStats(&after)
	if allocs := after.Mallocs - before.Mallocs; allocs >= msgs/4 {
		t.Errorf("%d allocations for %d lost messages: drops are formatted eagerly", allocs, msgs)
	}
	st := nw.DropStats()
	if st.ByCause[DropLoss] != msgs {
		t.Fatalf("drop accounting %+v, want %d losses", st, msgs)
	}
	drops := st.Samples
	if len(drops) != dropSampleCap {
		t.Fatalf("%d samples", len(drops))
	}
	// The last drop is message msgs, sent by node (msgs-1)%8, lost at its
	// injection time.
	if got, want := drops[len(drops)-1].Error(), fmt.Sprintf("simnet: drop msg %d at n%d: loss at t=%d", msgs, (msgs-1)%8, msgs); got != want {
		t.Errorf("last sample %q, want %q", got, want)
	}
}

// TestDropStatsBounded is the scale pin for the bounded drop log: a run
// that drops a hundred thousand packets must retain only the bounded
// sample ring plus exact counters, and DropStats must count exactly.
func TestDropStatsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	const n = 1_000_000 // million-node system, sparse lossy traffic
	nw := reliabilityNet(t, Config{N: n, LinkLoss: 1, Seed: 5})
	const msgs = 100_000
	for i := 0; i < msgs; i++ {
		if _, err := nw.SendRoute(trace.NodeID(i%n), []trace.NodeID{trace.NodeID((i + 1) % n)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := nw.Settle(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	st := nw.DropStats()
	if st.Total != msgs || st.ByCause[DropLoss] != msgs {
		t.Fatalf("drop accounting: %+v, want %d loss drops", st, msgs)
	}
	if len(st.Samples) != dropSampleCap {
		t.Fatalf("sample ring holds %d, want %d", len(st.Samples), dropSampleCap)
	}
	if nw.Metrics().Dropped != msgs {
		t.Fatalf("Metrics.Dropped = %d", nw.Metrics().Dropped)
	}
}

// TestConcurrentPolicyTimers drives retransmission backoff timers, crash
// retries, and reroute handoffs from many shards at once; under -race
// this pins the kernel's reliability paths data-race-free.
func TestConcurrentPolicyTimers(t *testing.T) {
	for _, policy := range []faults.Policy{faults.PolicyRetransmit, faults.PolicyReroute} {
		t.Run(policy.String(), func(t *testing.T) {
			nw := reliabilityNet(t, Config{
				N: 64, Compromised: []trace.NodeID{1, 2, 3},
				LinkLoss: 0.3, Policy: policy, MaxAttempts: 4, Shards: 8,
				Crashes: []faults.Crash{{Node: 9, At: 5, Recover: 100}, {Node: 10, At: 50}},
				Seed:    13, MaxHopDelay: 3,
			})
			rng := stats.NewRand(17)
			const msgs = 2000
			for i := 0; i < msgs; i++ {
				route := []trace.NodeID{trace.NodeID(1 + rng.Intn(63)), trace.NodeID(1 + rng.Intn(63))}
				if _, err := nw.SendRoute(trace.NodeID(rng.Intn(64)), route, nil); err != nil {
					t.Fatal(err)
				}
			}
			if err := nw.Settle(time.Minute); err != nil {
				t.Fatal(err)
			}
			total := len(nw.Deliveries()) + int(nw.DropStats().Total) + len(nw.TakeFailed())
			if total != msgs {
				t.Fatalf("message conservation broken: %d retired of %d", total, msgs)
			}
		})
	}
}

// sortTuples orders a tuple slice for comparison across runs.
func sortTuples(ts []trace.Tuple) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && tupleLess(ts[j], ts[j-1]); j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}

func tupleLess(a, b trace.Tuple) bool {
	if a.Msg != b.Msg {
		return a.Msg < b.Msg
	}
	return a.Time < b.Time
}
