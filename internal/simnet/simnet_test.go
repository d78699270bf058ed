package simnet_test

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"anonmix/internal/adversary"
	"anonmix/internal/dist"
	"anonmix/internal/events"
	"anonmix/internal/pathsel"
	"anonmix/internal/simnet"
	"anonmix/internal/stats"
	"anonmix/internal/trace"
)

func TestNewValidation(t *testing.T) {
	if _, err := simnet.New(simnet.Config{N: 1}); !errors.Is(err, simnet.ErrBadConfig) {
		t.Errorf("n=1 err = %v", err)
	}
	if _, err := simnet.New(simnet.Config{N: 5, Compromised: []trace.NodeID{7}}); !errors.Is(err, simnet.ErrBadConfig) {
		t.Errorf("bad compromised err = %v", err)
	}
	if _, err := simnet.New(simnet.Config{N: 5, Compromised: []trace.NodeID{1, 1}}); !errors.Is(err, simnet.ErrBadConfig) {
		t.Errorf("duplicate compromised err = %v", err)
	}
}

func TestDirectSend(t *testing.T) {
	nw, err := simnet.New(simnet.Config{N: 4})
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	defer nw.Close()
	id, err := nw.SendRoute(2, nil, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.WaitSettled(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	dels := nw.Deliveries()
	if len(dels) != 1 {
		t.Fatalf("%d deliveries", len(dels))
	}
	d := dels[0]
	if d.Msg != id || d.Pred != 2 || string(d.Payload) != "hello" {
		t.Errorf("delivery = %+v", d)
	}
	// Receiver is always compromised: exactly one tuple, from R.
	tuples := nw.Tuples()
	if len(tuples) != 1 || tuples[0].Observer != trace.Receiver || tuples[0].Pred != 2 {
		t.Errorf("tuples = %+v", tuples)
	}
}

func TestRouteTraversalAndTaps(t *testing.T) {
	nw, err := simnet.New(simnet.Config{N: 8, Compromised: []trace.NodeID{1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	defer nw.Close()
	route := []trace.NodeID{5, 1, 3, 6}
	id, err := nw.SendRoute(0, route, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.WaitSettled(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	mt := trace.Collate(nw.Tuples())[id]
	if mt == nil {
		t.Fatal("no trace for message")
	}
	if len(mt.Reports) != 2 {
		t.Fatalf("reports: %+v", mt.Reports)
	}
	// Node 1 saw 5 → 3; node 3 saw 1 → 6; receiver saw 6.
	r0, r1 := mt.Reports[0], mt.Reports[1]
	if r0.Observer != 1 || r0.Pred != 5 || r0.Succ != 3 {
		t.Errorf("report 0 = %+v", r0)
	}
	if r1.Observer != 3 || r1.Pred != 1 || r1.Succ != 6 {
		t.Errorf("report 1 = %+v", r1)
	}
	if !(r0.Time < r1.Time) {
		t.Errorf("times not causal: %d %d", r0.Time, r1.Time)
	}
	if !mt.ReceiverSeen || mt.ReceiverPred != 6 {
		t.Errorf("receiver: %+v", mt)
	}
}

func TestInjectValidation(t *testing.T) {
	nw, err := simnet.New(simnet.Config{N: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Inject(0, 1, simnet.Packet{}); !errors.Is(err, simnet.ErrClosed) {
		t.Errorf("inject before start err = %v", err)
	}
	nw.Start()
	if _, err := nw.Inject(9, 1, simnet.Packet{}); !errors.Is(err, simnet.ErrBadConfig) {
		t.Errorf("bad sender err = %v", err)
	}
	if _, err := nw.Inject(0, 9, simnet.Packet{}); !errors.Is(err, simnet.ErrBadConfig) {
		t.Errorf("bad first hop err = %v", err)
	}
	nw.Close()
	if _, err := nw.SendRoute(0, nil, nil); !errors.Is(err, simnet.ErrClosed) {
		t.Errorf("send after close err = %v", err)
	}
	nw.Close() // idempotent
}

// errForwarder drops everything.
type errForwarder struct{}

func (errForwarder) Next(trace.NodeID, *simnet.Packet) (trace.NodeID, error) {
	return 0, errors.New("boom")
}

func TestDroppedPackets(t *testing.T) {
	nw, err := simnet.New(simnet.Config{N: 4, Forwarder: errForwarder{}})
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	defer nw.Close()
	if _, err := nw.SendRoute(0, []trace.NodeID{1}, nil); err != nil {
		t.Fatal(err)
	}
	if err := nw.WaitSettled(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if st := nw.DropStats(); st.Total != 1 {
		t.Errorf("%d drops: %v", st.Total, st.Samples)
	}
	if len(nw.Deliveries()) != 0 {
		t.Errorf("deliveries = %v", nw.Deliveries())
	}
}

// badHopForwarder returns an out-of-range node.
type badHopForwarder struct{}

func (badHopForwarder) Next(trace.NodeID, *simnet.Packet) (trace.NodeID, error) {
	return trace.NodeID(99), nil
}

func TestBadHopDropped(t *testing.T) {
	nw, err := simnet.New(simnet.Config{N: 4, Forwarder: badHopForwarder{}})
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	defer nw.Close()
	if _, err := nw.SendRoute(0, []trace.NodeID{1}, nil); err != nil {
		t.Fatal(err)
	}
	if err := nw.WaitSettled(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if st := nw.DropStats(); st.Total != 1 || !errors.Is(st.Samples[0], simnet.ErrBadHop) {
		t.Errorf("%d drops: %v", st.Total, st.Samples)
	}
}

func TestConcurrentSenders(t *testing.T) {
	nw, err := simnet.New(simnet.Config{N: 16, Compromised: []trace.NodeID{2}})
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	defer nw.Close()
	const senders, perSender = 8, 25
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := stats.Fork(5, int64(s))
			for i := 0; i < perSender; i++ {
				route := []trace.NodeID{
					trace.NodeID(rng.Intn(16)),
					trace.NodeID(rng.Intn(16)),
				}
				if _, err := nw.SendRoute(trace.NodeID(s), route, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	if err := nw.WaitSettled(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := len(nw.Deliveries()); got != senders*perSender {
		t.Errorf("%d deliveries, want %d", got, senders*perSender)
	}
	// Logical times along each message strictly increase.
	for id, mt := range trace.Collate(nw.Tuples()) {
		last := uint64(0)
		for _, r := range mt.Reports {
			if r.Time <= last {
				t.Errorf("msg %d: non-increasing times", id)
			}
			last = r.Time
		}
	}
}

func TestHopDelayKeepsCausalOrder(t *testing.T) {
	nw, err := simnet.New(simnet.Config{
		N: 6, Compromised: []trace.NodeID{1, 2, 3}, MaxHopDelay: 200 * time.Microsecond, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	defer nw.Close()
	for i := 0; i < 30; i++ {
		if _, err := nw.SendRoute(0, []trace.NodeID{1, 2, 3}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := nw.WaitSettled(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for id, mt := range trace.Collate(nw.Tuples()) {
		if len(mt.Reports) != 3 {
			t.Fatalf("msg %d: %d reports", id, len(mt.Reports))
		}
		for i, r := range mt.Reports {
			want := trace.NodeID(i + 1)
			if r.Observer != want {
				t.Errorf("msg %d: report %d from %v, want %v (times reordered?)", id, i, r.Observer, want)
			}
		}
	}
}

// TestEndToEndAnonymityDegree is the flagship integration test: messages
// flow through the goroutine testbed, compromised nodes tap them, the
// adversary reconstructs observation classes and posteriors, and the
// empirical average entropy must match the exact engine's H*(S).
func TestEndToEndAnonymityDegree(t *testing.T) {
	const (
		n      = 14
		trials = 4000
	)
	compromised := []trace.NodeID{2, 7, 11}
	u, err := dist.NewUniform(0, 6)
	if err != nil {
		t.Fatal(err)
	}
	strat := pathsel.Strategy{Name: "U(0,6)", Length: u, Kind: pathsel.Simple}
	sel, err := pathsel.NewSelector(n, strat)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sel.NewSampler()
	if err != nil {
		t.Fatal(err)
	}
	engine, err := events.New(n, len(compromised))
	if err != nil {
		t.Fatal(err)
	}
	analyst, err := adversary.NewAnalyst(engine, u, compromised)
	if err != nil {
		t.Fatal(err)
	}

	nw, err := simnet.New(simnet.Config{N: n, Compromised: compromised})
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	defer nw.Close()

	senders := make(map[trace.MessageID]trace.NodeID, trials)
	for i := 0; i < trials; i++ {
		rng := stats.NewStream(2024, int64(i))
		sender := trace.NodeID(rng.Intn(n))
		path, err := sp.SelectPath(&rng, sender)
		if err != nil {
			t.Fatal(err)
		}
		id, err := nw.SendRoute(sender, path, nil)
		if err != nil {
			t.Fatal(err)
		}
		senders[id] = sender
	}
	if err := nw.WaitSettled(30 * time.Second); err != nil {
		t.Fatal(err)
	}

	var sum stats.Summary
	collated := trace.Collate(nw.Tuples())
	if len(collated) != trials {
		t.Fatalf("collated %d messages, want %d", len(collated), trials)
	}
	for id, mt := range collated {
		sender := senders[id]
		if analyst.Compromised(sender) {
			// Local-eavesdropper branch: the adversary's agent at the
			// sender identifies it outright.
			sum.Add(0)
			continue
		}
		post, err := analyst.Posterior(mt)
		if err != nil {
			t.Fatalf("msg %d: %v", id, err)
		}
		if post.P[sender] <= 0 {
			t.Fatalf("msg %d: true sender excluded by inference", id)
		}
		sum.Add(post.H)
	}
	want, err := engine.AnonymityDegree(u)
	if err != nil {
		t.Fatal(err)
	}
	tol := 4*sum.StdErr() + 1e-3
	if math.Abs(sum.Mean()-want) > tol {
		t.Errorf("testbed H = %v ± %v, engine H* = %v", sum.Mean(), sum.StdErr(), want)
	}
}

func ExampleNetwork() {
	nw, err := simnet.New(simnet.Config{N: 6, Compromised: []trace.NodeID{3}})
	if err != nil {
		panic(err)
	}
	nw.Start()
	defer nw.Close()
	if _, err := nw.SendRoute(0, []trace.NodeID{1, 3, 5}, []byte("payload")); err != nil {
		panic(err)
	}
	if err := nw.WaitSettled(5 * time.Second); err != nil {
		panic(err)
	}
	for _, tp := range nw.Tuples() {
		fmt.Printf("%s saw %s -> %s\n", tp.Observer, tp.Pred, tp.Succ)
	}
	// Output:
	// n3 saw n1 -> n5
	// R saw n5 -> R
}
