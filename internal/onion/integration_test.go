package onion_test

// Full-stack integration: strategy-driven routes are onion-encoded, flow
// through the goroutine testbed, compromised nodes and the receiver file
// tuple reports, the adversary analyzes the whole stream in one call, and
// the empirical anonymity degree must match the exact engine. This
// exercises every layer of the repository in one test.

import (
	"crypto/rand"
	"math"
	"testing"
	"time"

	"anonmix/internal/adversary"
	"anonmix/internal/dist"
	"anonmix/internal/events"
	"anonmix/internal/onion"
	"anonmix/internal/pathsel"
	"anonmix/internal/simnet"
	"anonmix/internal/stats"
	"anonmix/internal/trace"
)

func TestOnionFullStackAnonymityDegree(t *testing.T) {
	const (
		n      = 12
		trials = 1500
	)
	compromised := []trace.NodeID{3, 8}
	u, err := dist.NewUniform(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	strat := pathsel.Strategy{Name: "U(0,5)", Length: u, Kind: pathsel.Simple}
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
	kr := ring(t, n)
	fwd, err := onion.NewForwarder(kr)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := simnet.New(simnet.Config{N: n, Compromised: compromised, Forwarder: fwd})
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	defer nw.Close()

	senders := make(map[trace.MessageID]trace.NodeID, trials)
	for i := 0; i < trials; i++ {
		rng := stats.NewStream(99, int64(i))
		sender := trace.NodeID(rng.Intn(n))
		path, err := sp.SelectPath(&rng, sender)
		if err != nil {
			t.Fatal(err)
		}
		var id trace.MessageID
		if len(path) == 0 {
			id, err = nw.Inject(sender, trace.Receiver, simnet.Packet{Payload: []byte("m")})
		} else {
			var blob []byte
			blob, err = onion.Build(kr, path, []byte("m"), rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			id, err = nw.Inject(sender, path[0], simnet.Packet{Onion: blob})
		}
		if err != nil {
			t.Fatal(err)
		}
		senders[id] = sender
	}
	if err := nw.WaitSettled(time.Minute); err != nil {
		t.Fatal(err)
	}
	if st := nw.DropStats(); st.Total != 0 {
		t.Fatalf("%d drops: %v", st.Total, st.Samples)
	}
	// Every message decrypted correctly at the exit.
	for _, d := range nw.Deliveries() {
		if string(d.Payload) != "m" {
			t.Fatalf("message %d: payload %q", d.Msg, d.Payload)
		}
	}

	posts, incomplete, err := analyst.AnalyzeAll(nw.Tuples())
	if err != nil {
		t.Fatal(err)
	}
	if len(incomplete) != 0 {
		t.Fatalf("incomplete traces: %v", incomplete)
	}
	if len(posts) != trials {
		t.Fatalf("analyzed %d of %d", len(posts), trials)
	}
	var sum stats.Summary
	for id, post := range posts {
		sender := senders[id]
		if analyst.Compromised(sender) {
			sum.Add(0)
			continue
		}
		if post.P[sender] <= 0 {
			t.Fatalf("msg %d: true sender excluded", id)
		}
		sum.Add(post.H)
	}
	want, err := engine.AnonymityDegree(u)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum.Mean()-want) > 4*sum.StdErr()+2e-3 {
		t.Errorf("onion stack H = %v ± %v, engine H* = %v", sum.Mean(), sum.StdErr(), want)
	}
}
