package simnet_test

// Tests of the per-message records every substrate writes: a message's
// reports and retransmission taps arrive in time order in its own record,
// it has a receiver report exactly when it was delivered, and the Tuples
// and Deliveries snapshots, built from the records in message order,
// repeat whatever the parallelism.

import (
	"crypto/rand"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"anonmix/internal/crowds"
	"anonmix/internal/faults"
	"anonmix/internal/onion"
	"anonmix/internal/simnet"
	"anonmix/internal/stats"
	"anonmix/internal/trace"
)

// recordCase is one substrate's run: cfg builds its network's
// configuration and send injects its traffic into the started network,
// settles it, and returns the last message ID it was issued.
type recordCase struct {
	name    string
	cfg     func(t *testing.T) simnet.Config
	send    func(t *testing.T, nw *simnet.Network) trace.MessageID
	retries bool // the run must record retransmission taps
}

// sendRoutes injects msgs plain messages from senders 0..n-1 in turn over
// routes of 1..maxHops hops drawn from seed, and settles.
func sendRoutes(t *testing.T, nw *simnet.Network, n, msgs, maxHops int, seed int64) trace.MessageID {
	t.Helper()
	rng := stats.NewRand(seed)
	var last trace.MessageID
	for i := 0; i < msgs; i++ {
		route := make([]trace.NodeID, 1+rng.Intn(maxHops))
		for h := range route {
			route[h] = trace.NodeID(rng.Intn(n))
		}
		id, err := nw.SendRoute(trace.NodeID(i%n), route, []byte(fmt.Sprint(i)))
		if err != nil {
			t.Fatal(err)
		}
		last = id
	}
	settle(t, nw)
	return last
}

func settle(t *testing.T, nw *simnet.Network) {
	t.Helper()
	if err := nw.Settle(time.Minute); err != nil {
		t.Fatal(err)
	}
}

var recordCases = []recordCase{
	{
		name: "plain",
		cfg: func(*testing.T) simnet.Config {
			return simnet.Config{N: 64, Compromised: []trace.NodeID{1, 2, 3, 4, 5, 6, 7, 8},
				Shards: 4, MaxHopDelay: 5, Seed: 3}
		},
		send: func(t *testing.T, nw *simnet.Network) trace.MessageID {
			return sendRoutes(t, nw, 64, 400, 5, 11)
		},
	},
	{
		name: "onion",
		cfg: func(t *testing.T) simnet.Config {
			fwd, err := onion.NewForwarder(recordRing(t))
			if err != nil {
				t.Fatal(err)
			}
			return simnet.Config{N: 32, Compromised: []trace.NodeID{2, 5, 7, 11},
				Shards: 4, MaxHopDelay: 3, Seed: 5, Forwarder: fwd}
		},
		send: func(t *testing.T, nw *simnet.Network) trace.MessageID {
			kr, rng := recordRing(t), stats.NewRand(13)
			var last trace.MessageID
			for i := 0; i < 200; i++ {
				route := make([]trace.NodeID, 1+rng.Intn(4))
				for h := range route {
					route[h] = trace.NodeID(rng.Intn(32))
				}
				blob, err := onion.Build(kr, route, []byte(fmt.Sprint(i)), rand.Reader)
				if err != nil {
					t.Fatal(err)
				}
				if last, err = nw.Inject(trace.NodeID(i%32), route[0], simnet.Packet{Onion: blob}); err != nil {
					t.Fatal(err)
				}
			}
			settle(t, nw)
			return last
		},
	},
	{
		name: "retransmit-crash",
		cfg: func(*testing.T) simnet.Config {
			return simnet.Config{N: 48, Compromised: []trace.NodeID{1, 2, 3, 4, 5, 6},
				LinkLoss: 0.2, Policy: faults.PolicyRetransmit, MaxAttempts: 4,
				Crashes: []faults.Crash{{Node: 9, At: 5, Recover: 150}, {Node: 10, At: 100}},
				Shards:  4, MaxHopDelay: 3, Seed: 13}
		},
		send: func(t *testing.T, nw *simnet.Network) trace.MessageID {
			return sendRoutes(t, nw, 48, 400, 5, 17)
		},
		retries: true,
	},
	{
		name: "reroute",
		cfg: func(*testing.T) simnet.Config {
			return simnet.Config{N: 48, Compromised: []trace.NodeID{1, 2, 3, 4, 5, 6},
				LinkLoss: 0.3, Policy: faults.PolicyReroute, MaxAttempts: 3,
				Crashes: []faults.Crash{{Node: 9, At: 5, Recover: 150}},
				Shards:  4, Seed: 19}
		},
		send: func(t *testing.T, nw *simnet.Network) trace.MessageID {
			last := sendRoutes(t, nw, 48, 300, 4, 23)
			// Two waves of end-to-end retries over fresh routes. TakeFailed
			// sorts by message, so the waves repeat.
			rng := stats.NewRand(29)
			for wave := 0; wave < 2; wave++ {
				for _, f := range nw.TakeFailed() {
					route := []trace.NodeID{trace.NodeID(rng.Intn(48)), trace.NodeID(rng.Intn(48))}
					id, err := nw.SendRoute(trace.NodeID(rng.Intn(48)), route, nil)
					if err != nil {
						t.Fatal(err)
					}
					if id <= f.Msg {
						t.Fatalf("retry of %d issued ID %d", f.Msg, id)
					}
					last = id
				}
				settle(t, nw)
			}
			return last
		},
	},
	{
		// Here no node ever holds 16 packets, so every batch flushes on
		// quiescence; the taps still carry each batch's common release
		// time. Batches that fill while injection continues are pinned by
		// TestMixBatchesIgnoreInjectionPace.
		name: "threshold-mix",
		cfg: func(*testing.T) simnet.Config {
			return simnet.Config{N: 12, Compromised: []trace.NodeID{1, 2, 3},
				BatchThreshold: 16, Shards: 1, Seed: 31}
		},
		send: func(t *testing.T, nw *simnet.Network) trace.MessageID {
			var last trace.MessageID
			for i := 0; i < 40; i++ {
				route := []trace.NodeID{trace.NodeID(1 + i%11), trace.NodeID(1 + (i+3)%11), trace.NodeID(1 + (i+7)%11)}
				id, err := nw.SendRoute(0, route, nil)
				if err != nil {
					t.Fatal(err)
				}
				last = id
			}
			settle(t, nw)
			return last
		},
	},
	{
		name: "crowds",
		cfg: func(t *testing.T) simnet.Config {
			return simnet.Config{N: 24, Compromised: []trace.NodeID{0, 1, 2},
				Shards: 4, MaxHopDelay: 2, Seed: 37, Forwarder: recordCrowds(t)}
		},
		send: func(t *testing.T, nw *simnet.Network) trace.MessageID {
			fwd := recordCrowds(t)
			var last trace.MessageID
			for i := 0; i < 300; i++ {
				id, err := nw.Inject(trace.NodeID(3+i%21), fwd.FirstHop(i), simnet.Packet{})
				if err != nil {
					t.Fatal(err)
				}
				last = id
			}
			settle(t, nw)
			return last
		},
	},
}

func recordRing(t *testing.T) *onion.KeyRing {
	t.Helper()
	kr, err := onion.NewKeyRing([]byte("record ring"), 32)
	if err != nil {
		t.Fatal(err)
	}
	return kr
}

func recordCrowds(t *testing.T) *crowds.Forwarder {
	t.Helper()
	fwd, err := crowds.NewForwarder(24, 0.7, 37)
	if err != nil {
		t.Fatal(err)
	}
	return fwd
}

// runRecordCase runs c at the given GOMAXPROCS, on the given number of
// shards (0 keeps the case's own), checks its records, and returns its
// snapshots.
func runRecordCase(t *testing.T, c recordCase, procs, shards int) ([]trace.Tuple, []simnet.Delivery) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	cfg := c.cfg(t)
	if shards > 0 {
		cfg.Shards = shards
	}
	nw, err := simnet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	defer nw.Close()
	last := c.send(t, nw)

	dels := nw.Deliveries()
	delivered := make(map[trace.MessageID]simnet.Delivery, len(dels))
	for i, d := range dels {
		if i > 0 && d.Msg <= dels[i-1].Msg {
			t.Fatalf("deliveries out of message order: %d after %d", d.Msg, dels[i-1].Msg)
		}
		delivered[d.Msg] = d
	}
	var reports, retries int
	for id := trace.MessageID(1); id <= last; id++ {
		mt := nw.Trace(id)
		if mt == nil || mt.Msg != id {
			t.Fatalf("message %d: trace %+v", id, mt)
		}
		for i, r := range mt.Reports {
			if r.Msg != id || r.Observer == trace.Receiver {
				t.Fatalf("message %d: foreign report %+v", id, r)
			}
			if i > 0 && r.Time <= mt.Reports[i-1].Time {
				t.Fatalf("message %d: report times %d then %d", id, mt.Reports[i-1].Time, r.Time)
			}
		}
		reports += len(mt.Reports)
		taps := nw.RetryTaps(id)
		for i, r := range taps {
			if r.Msg != id {
				t.Fatalf("message %d: foreign retransmission tap %+v", id, r)
			}
			if i > 0 && r.Time <= taps[i-1].Time {
				t.Fatalf("message %d: retransmission tap times %d then %d", id, taps[i-1].Time, r.Time)
			}
		}
		retries += len(taps)
		d, ok := delivered[id]
		if mt.ReceiverSeen != ok {
			t.Fatalf("message %d: receiver report %v, delivered %v", id, mt.ReceiverSeen, ok)
		}
		if ok && d.Pred != mt.ReceiverPred {
			t.Fatalf("message %d: delivery from %v, receiver reported %v", id, d.Pred, mt.ReceiverPred)
		}
	}
	if nw.Trace(0) != nil || nw.Trace(last+1) != nil || nw.RetryTaps(last+1) != nil {
		t.Fatal("an ID the network never issued has a record")
	}
	if reports == 0 || len(dels) == 0 {
		t.Fatalf("vacuous run: %d reports, %d deliveries", reports, len(dels))
	}
	if c.retries && retries == 0 {
		t.Fatal("no retransmission taps")
	}

	tuples := nw.Tuples()
	if want := reports + len(dels); len(tuples) != want {
		t.Fatalf("Tuples holds %d, want %d reports and receiver reports", len(tuples), want)
	}
	for i := 1; i < len(tuples); i++ {
		if tuples[i].Msg < tuples[i-1].Msg {
			t.Fatalf("tuples out of message order: %d after %d", tuples[i].Msg, tuples[i-1].Msg)
		}
	}
	return tuples, dels
}

// TestRecordsOrderedAndRepeatable runs every substrate at GOMAXPROCS 1 and
// 4 and requires the same Tuples and Deliveries slices.
func TestRecordsOrderedAndRepeatable(t *testing.T) {
	for _, c := range recordCases {
		t.Run(c.name, func(t *testing.T) {
			t1, d1 := runRecordCase(t, c, 1, 0)
			t4, d4 := runRecordCase(t, c, 4, 0)
			if !reflect.DeepEqual(t1, t4) {
				t.Errorf("Tuples differ between GOMAXPROCS 1 and 4 (%d and %d tuples)", len(t1), len(t4))
			}
			if !reflect.DeepEqual(d1, d4) {
				t.Errorf("Deliveries differ between GOMAXPROCS 1 and 4 (%d and %d deliveries)", len(d1), len(d4))
			}
		})
	}
}

// TestRecordsIgnoreShardCount runs every substrate but the threshold mix,
// whose batches are seeded on one shard, at Shards 1, 4 and 8 and requires
// the same Tuples and Deliveries slices. On one shard every hop stays on
// the shard that made it; on more, most hops are handed to another shard.
func TestRecordsIgnoreShardCount(t *testing.T) {
	for _, c := range recordCases {
		if c.cfg(t).BatchThreshold > 0 {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			t1, d1 := runRecordCase(t, c, 4, 1)
			for _, shards := range []int{4, 8} {
				ts, ds := runRecordCase(t, c, 4, shards)
				if !reflect.DeepEqual(t1, ts) {
					t.Errorf("Tuples differ between 1 and %d shards (%d and %d tuples)", shards, len(t1), len(ts))
				}
				if !reflect.DeepEqual(d1, ds) {
					t.Errorf("Deliveries differ between 1 and %d shards (%d and %d deliveries)", shards, len(d1), len(ds))
				}
			}
		})
	}
}

// TestTraceBesideInject reads the records of a settled phase while another
// goroutine injects the next one, growing the record book past a chunk;
// under -race it pins the lookups as safe beside Inject.
func TestTraceBesideInject(t *testing.T) {
	nw, err := simnet.New(simnet.Config{N: 64, Compromised: []trace.NodeID{1, 2, 3}, Shards: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	defer nw.Close()
	last := sendRoutes(t, nw, 64, 100, 4, 5)
	const more = 600
	done := make(chan error, 1)
	go func() {
		for i := 0; i < more; i++ {
			if _, err := nw.SendRoute(trace.NodeID(i%64), []trace.NodeID{1, 2}, nil); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for pass := 0; pass < 10; pass++ {
		for id := trace.MessageID(1); id <= last; id++ {
			if mt := nw.Trace(id); mt == nil || !mt.ReceiverSeen || nw.RetryTaps(id) != nil {
				t.Fatalf("message %d of the settled phase: trace %+v", id, mt)
			}
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	settle(t, nw)
	if got := len(nw.Deliveries()); got != int(last)+more {
		t.Fatalf("%d deliveries, want %d", got, int(last)+more)
	}
}
