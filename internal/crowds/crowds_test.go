package crowds_test

import (
	"errors"
	"math"
	"testing"
	"time"

	"anonmix/internal/crowds"
	"anonmix/internal/entropy"
	"anonmix/internal/simnet"
	"anonmix/internal/trace"
)

func TestParamValidation(t *testing.T) {
	if _, err := crowds.NewForwarder(1, 0.5, 1); !errors.Is(err, crowds.ErrBadParam) {
		t.Errorf("n=1 err = %v", err)
	}
	for _, pf := range []float64{-0.1, 1, 1.5, math.NaN()} {
		if _, err := crowds.NewForwarder(10, pf, 1); !errors.Is(err, crowds.ErrBadParam) {
			t.Errorf("pf=%v err = %v", pf, err)
		}
		if _, err := crowds.PredecessorProb(10, 1, pf); !errors.Is(err, crowds.ErrBadParam) {
			t.Errorf("PredecessorProb pf=%v err = %v", pf, err)
		}
	}
	if _, err := crowds.PredecessorProb(10, 10, 0.6); !errors.Is(err, crowds.ErrBadParam) {
		t.Error("c=n accepted")
	}
	if _, err := crowds.SimulatePredecessor(10, 1, 0.6, 0, 1); !errors.Is(err, crowds.ErrBadParam) {
		t.Error("zero trials accepted")
	}
}

func TestPredecessorProbKnownValues(t *testing.T) {
	// pf=0: the first (mandatory) hop is the only hop, so any collaborator
	// that sees the message sees the initiator: P = 1.
	p, err := crowds.PredecessorProb(10, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p != 1 {
		t.Errorf("pf=0: P = %v, want 1", p)
	}
	// Reiter–Rubin form: 1 − pf(n−c−1)/n.
	p, err = crowds.PredecessorProb(20, 3, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - 0.75*16.0/20
	if math.Abs(p-want) > 1e-12 {
		t.Errorf("P = %v, want %v", p, want)
	}
}

func TestRoundsBoundValidation(t *testing.T) {
	for _, delta := range []float64{0, 1, -0.1, math.NaN()} {
		if _, err := crowds.RoundsBound(20, 2, 0.75, delta); !errors.Is(err, crowds.ErrBadParam) {
			t.Errorf("delta=%v err = %v", delta, err)
		}
	}
	if _, err := crowds.RoundsBound(20, 2, 1.5, 0.1); !errors.Is(err, crowds.ErrBadParam) {
		t.Errorf("pf=1.5 err = %v", err)
	}
	// n−c−1 = 0: single honest jondo, trivially identified.
	b, err := crowds.RoundsBound(3, 2, 0.6, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if b != 1 {
		t.Errorf("degenerate bound = %d, want 1", b)
	}
}

// TestPredecessorFormulaMatchesSimulation validates the closed form against
// direct protocol simulation.
func TestPredecessorFormulaMatchesSimulation(t *testing.T) {
	cases := []struct {
		n, c int
		pf   float64
	}{
		{10, 1, 0.5}, {10, 2, 0.75}, {25, 3, 0.8}, {50, 5, 0.66}, {8, 1, 0.9},
	}
	for _, c := range cases {
		want, err := crowds.PredecessorProb(c.n, c.c, c.pf)
		if err != nil {
			t.Fatal(err)
		}
		got, err := crowds.SimulatePredecessor(c.n, c.c, c.pf, 400000, 7)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 0.01 {
			t.Errorf("n=%d c=%d pf=%v: simulated %v, formula %v", c.n, c.c, c.pf, got, want)
		}
	}
}

func TestProbableInnocence(t *testing.T) {
	// Reiter–Rubin: probable innocence iff n ≥ pf/(pf−1/2)·(c+1).
	pf := 0.75
	for _, tc := range []struct {
		n, c int
		want bool
	}{
		{6, 1, true},   // threshold: 3·2 = 6
		{5, 1, false},  // below threshold
		{9, 2, true},   // 3·3 = 9
		{8, 2, false},  //
		{100, 1, true}, //
		{3, 1, false},  //
	} {
		got, err := crowds.ProbableInnocence(tc.n, tc.c, pf)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			p, _ := crowds.PredecessorProb(tc.n, tc.c, pf)
			t.Errorf("n=%d c=%d: probable innocence = %v (P=%v), want %v", tc.n, tc.c, got, p, tc.want)
		}
	}
	// pf ≤ 1/2 can never give probable innocence with c ≥ 1 present.
	ok, err := crowds.ProbableInnocence(1000, 1, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("probable innocence with pf=0.4 should be impossible")
	}
}

func TestEventEntropy(t *testing.T) {
	h, err := crowds.EventEntropy(20, 2, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	p, err := crowds.PredecessorProb(20, 2, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	want := entropy.SpikeAndSlab(p, 17)
	if math.Abs(h-want) > 1e-12 {
		t.Errorf("EventEntropy = %v, want %v", h, want)
	}
	if h < 0 || h > math.Log2(20) {
		t.Errorf("entropy %v out of range", h)
	}
}

// TestCrowdsOverTestbed runs the jondo protocol on the goroutine network
// and cross-checks the empirical first-collaborator statistics against the
// closed form.
func TestCrowdsOverTestbed(t *testing.T) {
	const (
		n      = 12
		c      = 2
		pf     = 0.7
		trials = 3000
	)
	fwd, err := crowds.NewForwarder(n, pf, 11)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := simnet.New(simnet.Config{
		N: n, Compromised: []trace.NodeID{0, 1}, Forwarder: fwd,
	})
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	defer nw.Close()

	senders := make(map[trace.MessageID]trace.NodeID, trials)
	for i := 0; i < trials; i++ {
		sender := trace.NodeID(c + i%(n-c)) // honest initiators only
		id, err := nw.Inject(sender, fwd.FirstHop(i), simnet.Packet{})
		if err != nil {
			t.Fatal(err)
		}
		senders[id] = sender
	}
	if err := nw.WaitSettled(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := len(nw.Deliveries()); got != trials {
		t.Fatalf("%d deliveries, want %d", got, trials)
	}

	var events, hits int
	for id, mt := range trace.Collate(nw.Tuples()) {
		if len(mt.Reports) == 0 {
			continue
		}
		events++
		if mt.Reports[0].Pred == senders[id] {
			hits++
		}
	}
	if events == 0 {
		t.Fatal("no collaborator observations at all")
	}
	got := float64(hits) / float64(events)
	want, err := crowds.PredecessorProb(n, c, pf)
	if err != nil {
		t.Fatal(err)
	}
	sigma := math.Sqrt(want * (1 - want) / float64(events))
	if math.Abs(got-want) > 5*sigma+0.01 {
		t.Errorf("testbed P(H1|H1+) = %v over %d events, formula %v", got, events, want)
	}
}

// TestOnPathProb cross-checks the log-space hypergeometric form against a
// direct rational computation and pins its boundary behavior.
func TestOnPathProb(t *testing.T) {
	for _, tc := range []struct{ n, c, l int }{
		{10, 2, 0}, {10, 2, 3}, {10, 2, 7}, {50, 5, 20}, {100, 1, 51},
	} {
		got, err := crowds.OnPathProb(tc.n, tc.c, tc.l)
		if err != nil {
			t.Fatal(err)
		}
		// Direct product: miss = Π_{i<l} (n-1-c-i)/(n-1-i).
		miss := 1.0
		for i := 0; i < tc.l; i++ {
			miss *= float64(tc.n-1-tc.c-i) / float64(tc.n-1-i)
		}
		if math.Abs(got-(1-miss)) > 1e-12 {
			t.Errorf("n=%d c=%d l=%d: %v, want %v", tc.n, tc.c, tc.l, got, 1-miss)
		}
	}
	// l = 0 never meets a collaborator; saturated paths always do.
	if p, _ := crowds.OnPathProb(10, 3, 0); p != 0 {
		t.Errorf("l=0: %v", p)
	}
	if p, _ := crowds.OnPathProb(10, 3, 7); p != 1 {
		t.Errorf("saturated: %v", p)
	}
	// c = 0 never hits.
	if p, _ := crowds.OnPathProb(10, 0, 5); p != 0 {
		t.Errorf("c=0: %v", p)
	}
	for _, tc := range []struct{ n, c, l int }{{1, 0, 0}, {10, -1, 2}, {10, 10, 2}, {10, 2, -1}, {10, 2, 10}} {
		if _, err := crowds.OnPathProb(tc.n, tc.c, tc.l); !errors.Is(err, crowds.ErrBadParam) {
			t.Errorf("n=%d c=%d l=%d accepted", tc.n, tc.c, tc.l)
		}
	}
}
