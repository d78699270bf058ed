package simnet_test

// Tests of the sharded discrete-event kernel itself: node-count
// independence (no O(N) goroutines or allocations), threshold-mix
// batching, and kernel metrics.

import (
	"bytes"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"anonmix/internal/simnet"
	"anonmix/internal/stats"
	"anonmix/internal/trace"
)

// TestMillionNodesSparseTraffic is the scale acceptance test: a network
// with N = 1,000,000 nodes must construct and run a sparse workload
// without spawning goroutines or allocating state proportional to N.
func TestMillionNodesSparseTraffic(t *testing.T) {
	const n = 1_000_000
	before := runtime.NumGoroutine()
	nw, err := simnet.New(simnet.Config{
		N:           n,
		Compromised: []trace.NodeID{0, 1, 2, 3, 4},
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	defer nw.Close()

	during := runtime.NumGoroutine()
	if extra := during - before; extra > runtime.GOMAXPROCS(0)+4 {
		t.Fatalf("kernel spawned %d goroutines for N=%d nodes (want O(shards))", extra, n)
	}

	rng := stats.NewRand(11)
	const messages = 200
	for i := 0; i < messages; i++ {
		route := []trace.NodeID{
			trace.NodeID(rng.Intn(n)),
			trace.NodeID(rng.Intn(n)),
			trace.NodeID(rng.Intn(n)),
		}
		if _, err := nw.SendRoute(trace.NodeID(rng.Intn(n)), route, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := nw.WaitSettled(time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := len(nw.Deliveries()); got != messages {
		t.Fatalf("%d deliveries, want %d", got, messages)
	}
	m := nw.Metrics()
	// 3 intermediate-hop events per message (delivery is inline).
	if m.Events != 3*messages {
		t.Errorf("events = %d, want %d", m.Events, 3*messages)
	}
	if m.Shards > runtime.GOMAXPROCS(0)+1 {
		t.Errorf("shards = %d", m.Shards)
	}
}

// TestHopsDoNotAllocate: a message allocates nothing after Inject, and
// forwarding it costs no heap allocation. Two equal waves of plain 5-hop
// messages are counted, each under 1 MB in all: each hop moves a pointer
// into the packet arena, not the packet. The first wave, on a fresh
// network, also grows the shards' event buffers to their working size,
// which depends on the shard count, and must allocate fewer objects than
// it has hop events. The second must allocate fewer objects than a fifth
// of its messages: packets, route copies and records all come in chunks.
func TestHopsDoNotAllocate(t *testing.T) {
	const n, messages, hops = 64, 1000, 5
	nw, err := simnet.New(simnet.Config{N: n, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	defer nw.Close()
	route := make([]trace.NodeID, hops)
	for w, limit := range []uint64{messages * hops, messages / 5} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < messages; i++ {
			for h := range route {
				route[h] = trace.NodeID((i + 7*h + 1) % n)
			}
			if _, err := nw.SendRoute(trace.NodeID(i%n), route, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := nw.Settle(time.Minute); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if events := nw.Metrics().Events; events != uint64(w+1)*messages*hops {
			t.Fatalf("wave %d: events = %d, want %d", w+1, events, (w+1)*messages*hops)
		}
		if allocs := after.Mallocs - before.Mallocs; allocs >= limit {
			t.Errorf("wave %d: %d allocations for %d messages of %d hops, want < %d: a message or a hop allocates",
				w+1, allocs, messages, hops, limit)
		}
		if size := after.TotalAlloc - before.TotalAlloc; size >= 1<<20 {
			t.Errorf("wave %d: %d bytes allocated for %d messages of %d hops, want < 1 MB",
				w+1, size, messages, hops)
		}
	}
}

// layerForwarder is an onion stand-in that rewrites the packet's buffers
// in place: each hop decrypts the whole header with its key, reads the
// next hop off the front, and XORs its key into the payload. Concurrent
// handoffs between shards therefore write the same buffers from several
// goroutines in turn, which the race detector checks.
type layerForwarder struct{}

// layerKey is node v's key byte.
func layerKey(v trace.NodeID) byte { return byte(v)*37 + 11 }

// layerExit marks the exit layer.
const layerExit = 0xFF

func (layerForwarder) Next(self trace.NodeID, pkt *simnet.Packet) (trace.NodeID, error) {
	k := layerKey(self)
	for i := range pkt.Onion {
		pkt.Onion[i] ^= k
	}
	for i := range pkt.Payload {
		pkt.Payload[i] ^= k
	}
	next := pkt.Onion[0]
	pkt.Onion = pkt.Onion[1:]
	if next == layerExit {
		return trace.Receiver, nil
	}
	return trace.NodeID(next), nil
}

// buildLayers wraps route into a header layerForwarder peels: layer j is
// (next hop ‖ layer j+1) encrypted with the key of route[j].
func buildLayers(route []trace.NodeID) []byte {
	var inner []byte
	for j := len(route) - 1; j >= 0; j-- {
		next := byte(layerExit)
		if j+1 < len(route) {
			next = byte(route[j+1])
		}
		layer := append([]byte{next}, inner...)
		for i := range layer {
			layer[i] ^= layerKey(route[j])
		}
		inner = layer
	}
	return inner
}

// TestConcurrentHandoffRewritesInPlace: with 8 shards and 4 injecting
// goroutines, packets whose header and payload are rewritten in place at
// every hop arrive intact. A packet is owned by one shard at a time, so
// every delivered payload is the original XOR the keys along its route.
// Run it under -race -count=10.
func TestConcurrentHandoffRewritesInPlace(t *testing.T) {
	const (
		n          = 64
		injectors  = 4
		perInject  = 250
		payloadLen = 32
	)
	nw, err := simnet.New(simnet.Config{
		N: n, Shards: 8, Forwarder: layerForwarder{}, MaxHopDelay: 16, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	defer nw.Close()
	want := make([]map[trace.MessageID][]byte, injectors)
	var wg sync.WaitGroup
	for g := 0; g < injectors; g++ {
		want[g] = make(map[trace.MessageID][]byte, perInject)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := stats.NewRand(int64(100 + g))
			for i := 0; i < perInject; i++ {
				route := make([]trace.NodeID, 1+rng.Intn(6))
				payload := make([]byte, payloadLen)
				expect := make([]byte, payloadLen)
				for j := range payload {
					payload[j] = byte(rng.Intn(256))
					expect[j] = payload[j]
				}
				for j := range route {
					route[j] = trace.NodeID(rng.Intn(n))
					for b := range expect {
						expect[b] ^= layerKey(route[j])
					}
				}
				id, err := nw.Inject(trace.NodeID(rng.Intn(n)), route[0],
					simnet.Packet{Onion: buildLayers(route), Payload: payload})
				if err != nil {
					t.Error(err)
					return
				}
				want[g][id] = expect
			}
		}(g)
	}
	wg.Wait()
	if err := nw.WaitSettled(time.Minute); err != nil {
		t.Fatal(err)
	}
	all := make(map[trace.MessageID][]byte, injectors*perInject)
	for _, m := range want {
		for id, p := range m {
			all[id] = p
		}
	}
	dels := nw.Deliveries()
	if len(dels) != len(all) || len(all) != injectors*perInject {
		t.Fatalf("%d deliveries of %d messages, drops %v", len(dels), len(all), nw.DropStats().Samples)
	}
	for _, d := range dels {
		if !bytes.Equal(d.Payload, all[d.Msg]) {
			t.Errorf("msg %d: payload %x, want %x", d.Msg, d.Payload, all[d.Msg])
		}
	}
}

// TestBatchThresholdMixes verifies threshold-mix batching: packets queued
// at a node leave together with one release time, and partial batches
// flush on quiescence so WaitSettled terminates.
func TestBatchThresholdMixes(t *testing.T) {
	nw, err := simnet.New(simnet.Config{
		N:              8,
		Compromised:    []trace.NodeID{3},
		BatchThreshold: 4,
		Shards:         2,
		Seed:           5,
	})
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	defer nw.Close()

	// 6 messages through the same mix node 3: one full batch of 4, one
	// partial batch of 2 that only the quiescence flush can release.
	const messages = 6
	for i := 0; i < messages; i++ {
		if _, err := nw.SendRoute(trace.NodeID(i%2), []trace.NodeID{3, trace.NodeID(4 + i%3)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := nw.WaitSettled(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := len(nw.Deliveries()); got != messages {
		t.Fatalf("%d deliveries, want %d", got, messages)
	}
	m := nw.Metrics()
	if m.BatchFlushes < 2 {
		t.Errorf("batch flushes = %d, want ≥ 2 (one full, one quiescent)", m.BatchFlushes)
	}

	// The full batch's four tap reports at node 3 share one release time.
	times := make(map[uint64]int)
	for _, tp := range nw.Tuples() {
		if tp.Observer == 3 {
			times[tp.Time]++
		}
	}
	var batched int
	for _, k := range times {
		if k >= 4 {
			batched++
		}
	}
	if batched == 0 {
		t.Errorf("no shared release time among node-3 reports: %v", times)
	}
}

// TestBatchingKeepsCausalOrder: even with mixing, timestamps stay strictly
// increasing along every message's path.
func TestBatchingKeepsCausalOrder(t *testing.T) {
	nw, err := simnet.New(simnet.Config{
		N:              10,
		Compromised:    []trace.NodeID{1, 2, 3},
		BatchThreshold: 3,
		Seed:           9,
	})
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	defer nw.Close()
	for i := 0; i < 40; i++ {
		if _, err := nw.SendRoute(0, []trace.NodeID{1, 2, 3}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := nw.WaitSettled(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for id, mt := range trace.Collate(nw.Tuples()) {
		last := uint64(0)
		for _, r := range mt.Reports {
			if r.Time <= last {
				t.Errorf("msg %d: non-increasing times %v", id, mt.Reports)
				break
			}
			last = r.Time
		}
	}
}

// TestShardCountConfig: explicit shard counts are honored and a width-1
// kernel still settles (the serial reference path).
func TestShardCountConfig(t *testing.T) {
	nw, err := simnet.New(simnet.Config{N: 12, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	defer nw.Close()
	for i := 0; i < 100; i++ {
		if _, err := nw.SendRoute(0, []trace.NodeID{1, 2, 3, 4, 5}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := nw.WaitSettled(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if m := nw.Metrics(); m.Shards != 1 || m.Events != 500 {
		t.Errorf("metrics = %+v", m)
	}
}

// TestBatchingSurvivesSlowInjection is the regression test for premature
// quiescence flushes: a mix must keep accumulating across injection lulls
// (the kernel easily outpaces any injector), releasing partial batches
// only once WaitSettled declares injection over.
func TestBatchingSurvivesSlowInjection(t *testing.T) {
	nw, err := simnet.New(simnet.Config{
		N:              8,
		Compromised:    []trace.NodeID{3},
		BatchThreshold: 4,
		Shards:         1,
		Seed:           2,
	})
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	defer nw.Close()
	const messages = 12
	for i := 0; i < messages; i++ {
		if _, err := nw.SendRoute(trace.NodeID(i%2), []trace.NodeID{3, 5}, nil); err != nil {
			t.Fatal(err)
		}
		// Let the kernel go fully quiescent between injections.
		time.Sleep(2 * time.Millisecond)
	}
	if err := nw.WaitSettled(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := len(nw.Deliveries()); got != messages {
		t.Fatalf("%d deliveries, want %d", got, messages)
	}
	// 12 messages through mix 3 (threshold 4) then mix 5: full batches
	// only — 3 flushes at node 3; node 5 receives 4-at-a-time, so 3 more.
	// Premature per-packet flushing would show ~24.
	if m := nw.Metrics(); m.BatchFlushes > messages/4*2 {
		t.Errorf("batch flushes = %d, want ≤ %d (mix degenerated to per-packet flushing)",
			m.BatchFlushes, messages/4*2)
	}
}

// TestMixBatchesIgnoreInjectionPace: on one shard, which batch a packet
// joins is a function of the seed and the traffic, not of how far the
// shard got through its inbox while injection was still running. The same
// 500 messages, injected straight through or with a pause after every 5th
// or 20th injection that lets the kernel catch up, must make the same
// number of flushes and leave the same reports at the same times.
func TestMixBatchesIgnoreInjectionPace(t *testing.T) {
	run := func(pauseEvery int) (uint64, []trace.Tuple) {
		nw, err := simnet.New(simnet.Config{
			N:              18,
			Compromised:    []trace.NodeID{1, 2, 3},
			BatchThreshold: 8,
			MaxHopDelay:    3,
			Shards:         1,
			Seed:           11,
		})
		if err != nil {
			t.Fatal(err)
		}
		nw.Start()
		defer nw.Close()
		route := make([]trace.NodeID, 0, 5)
		for i := range 500 {
			// Fixed simple routes of 1 to 5 hops over nodes 1–17.
			route = route[:0]
			for j := range 1 + i%5 {
				route = append(route, trace.NodeID(1+(i+3*j)%17))
			}
			if _, err := nw.SendRoute(0, route, nil); err != nil {
				t.Fatal(err)
			}
			if pauseEvery > 0 && (i+1)%pauseEvery == 0 {
				time.Sleep(2 * time.Millisecond)
			}
		}
		if err := nw.WaitSettled(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		return nw.Metrics().BatchFlushes, nw.Tuples()
	}
	flushes, tuples := run(0)
	for _, every := range []int{5, 20} {
		f, tp := run(every)
		if f != flushes {
			t.Errorf("pause after every %d injections: %d flushes, straight through %d", every, f, flushes)
		}
		if !slices.Equal(tp, tuples) {
			t.Errorf("pause after every %d injections: reports differ from the straight run", every)
		}
	}
}

func TestNegativeHopDelayRejected(t *testing.T) {
	if _, err := simnet.New(simnet.Config{N: 4, MaxHopDelay: -time.Millisecond}); err == nil {
		t.Error("negative MaxHopDelay accepted")
	}
}
