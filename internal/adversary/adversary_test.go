package adversary_test

import (
	"errors"
	"math"
	"testing"

	"anonmix/internal/adversary"
	"anonmix/internal/dist"
	"anonmix/internal/events"
	"anonmix/internal/montecarlo"
	"anonmix/internal/trace"
)

func analyst(t *testing.T, n int, compromised []trace.NodeID, d dist.Length) *adversary.Analyst {
	t.Helper()
	e, err := events.New(n, len(compromised))
	if err != nil {
		t.Fatal(err)
	}
	a, err := adversary.NewAnalyst(e, d, compromised)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func uniform(t *testing.T, a, b int) dist.Length {
	t.Helper()
	u, err := dist.NewUniform(a, b)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// synth builds the trace for a concrete path using the shared synthesizer.
func synth(sender trace.NodeID, path []trace.NodeID, compromised ...trace.NodeID) *trace.MessageTrace {
	set := make(map[trace.NodeID]bool, len(compromised))
	for _, c := range compromised {
		set[c] = true
	}
	return montecarlo.Synthesize(1, sender, path, func(id trace.NodeID) bool { return set[id] })
}

func TestNewAnalystValidation(t *testing.T) {
	e, err := events.New(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	d := uniform(t, 0, 5)
	cases := []struct {
		name string
		e    *events.Engine
		d    dist.Length
		comp []trace.NodeID
	}{
		{"nil engine", nil, d, []trace.NodeID{0, 1}},
		{"nil dist", e, nil, []trace.NodeID{0, 1}},
		{"wrong count", e, d, []trace.NodeID{0}},
		{"out of range", e, d, []trace.NodeID{0, 10}},
		{"duplicate", e, d, []trace.NodeID{3, 3}},
	}
	for _, c := range cases {
		if _, err := adversary.NewAnalyst(c.e, c.d, c.comp); !errors.Is(err, adversary.ErrBadConfig) {
			t.Errorf("%s: err = %v", c.name, err)
		}
	}
}

// TestNewAnalystRejectsEngineInvalidLength: the engine validates the length
// distribution when the analyst is built, not at its first trace.
func TestNewAnalystRejectsEngineInvalidLength(t *testing.T) {
	e, err := events.New(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	comp := []trace.NodeID{0, 1}
	if _, err := adversary.NewAnalyst(e, uniform(t, 2, 10), comp); !errors.Is(err, events.ErrSupportTooLong) {
		t.Errorf("support beyond N-1: err = %v, want ErrSupportTooLong", err)
	}
	if _, err := adversary.NewAnalyst(e, dist.Uniform{A: 5, B: 2}, comp); !errors.Is(err, dist.ErrInvalid) {
		t.Errorf("empty support: err = %v, want dist.ErrInvalid", err)
	}
}

// TestClassifyErrors: traces the simple-path model cannot produce fail
// EntropyScratch and Posterior alike, with the classifier's sentinels.
func TestClassifyErrors(t *testing.T) {
	a := analyst(t, 12, []trace.NodeID{0, 1}, uniform(t, 0, 9))
	var sc adversary.Scratch
	check := func(name string, mt *trace.MessageTrace, want error) {
		t.Helper()
		if _, err := a.EntropyScratch(mt, &sc); !errors.Is(err, want) {
			t.Errorf("%s: EntropyScratch err = %v, want %v", name, err, want)
		}
		if _, err := a.Posterior(mt); !errors.Is(err, want) {
			t.Errorf("%s: Posterior err = %v, want %v", name, err, want)
		}
	}
	check("nil trace", nil, adversary.ErrCorruptTrace)
	check("no receiver", &trace.MessageTrace{}, trace.ErrNoReceiverReport)
	// Report from a node the analyst does not control.
	check("foreign agent", &trace.MessageTrace{ReceiverSeen: true, ReceiverPred: 5,
		Reports: []trace.Tuple{{Time: 1, Observer: 9, Pred: 3, Succ: 5}}}, adversary.ErrCorruptTrace)
	// Cyclic route: same observer twice.
	check("cycle", &trace.MessageTrace{ReceiverSeen: true, ReceiverPred: 5, Reports: []trace.Tuple{
		{Time: 1, Observer: 0, Pred: 3, Succ: 4},
		{Time: 2, Observer: 0, Pred: 4, Succ: 5},
	}}, adversary.ErrModelMismatch)
	// Broken run linkage: succ says adjacent but pred disagrees.
	check("broken linkage", &trace.MessageTrace{ReceiverSeen: true, ReceiverPred: 5, Reports: []trace.Tuple{
		{Time: 1, Observer: 0, Pred: 3, Succ: 1},
		{Time: 2, Observer: 1, Pred: 4, Succ: 5},
	}}, adversary.ErrCorruptTrace)
}

// TestIdentifiedObservations: a compromised node that originates a message
// betrays itself — either the receiver's predecessor is a silent
// compromised node (direct send) or the first run's predecessor is one of
// the adversary's own nodes. The posterior is then a point mass on it, and
// the entropy is zero.
func TestIdentifiedObservations(t *testing.T) {
	a := analyst(t, 12, []trace.NodeID{0, 1}, uniform(t, 0, 6))
	var sc adversary.Scratch
	identified := func(name string, mt *trace.MessageTrace, sender trace.NodeID) {
		t.Helper()
		post, err := a.Posterior(mt)
		if err != nil {
			t.Fatal(err)
		}
		if post.Candidate != sender || post.P[sender] != 1 || post.H != 0 || post.Alpha != 1 {
			t.Errorf("%s: posterior = %+v", name, post)
		}
		if h, err := a.EntropyScratch(mt, &sc); err != nil || h != 0 {
			t.Errorf("%s: EntropyScratch = %v, %v", name, h, err)
		}
	}
	// Direct send by compromised node 0: receiver reports pred 0, no
	// relay reports.
	identified("direct compromised send", &trace.MessageTrace{ReceiverSeen: true, ReceiverPred: 0}, 0)
	// Compromised node 0 sends via compromised first hop 1: node 1's
	// report names 0 as predecessor, but 0 filed no relay report.
	identified("compromised origin via compromised hop",
		montecarlo.Synthesize(2, 0, []trace.NodeID{1, 7}, a.Compromised), 0)
	// Honest traces must never be marked identified.
	mt3 := montecarlo.Synthesize(3, 5, []trace.NodeID{1, 7}, a.Compromised)
	post, err := a.Posterior(mt3)
	if err != nil {
		t.Fatal(err)
	}
	h, err := a.EntropyScratch(mt3, &sc)
	if err != nil {
		t.Fatal(err)
	}
	if post.Candidate != 5 || post.Alpha >= 1 || post.H <= 0 || h <= 0 {
		t.Errorf("honest trace identified: posterior %+v, EntropyScratch %v", post, h)
	}
}

func TestPosteriorIsDistribution(t *testing.T) {
	a := analyst(t, 12, []trace.NodeID{0, 1, 2}, uniform(t, 0, 9))
	paths := [][]trace.NodeID{
		{7, 8}, nil, {7, 0}, {0, 7}, {0, 7, 8}, {7, 0, 1, 8},
		{0, 7, 1, 8}, {0, 7, 8, 1}, {6, 0, 7, 1, 2, 8, 9},
	}
	for _, path := range paths {
		post, err := a.Posterior(synth(5, path, 0, 1, 2))
		if err != nil {
			t.Fatalf("path %v: %v", path, err)
		}
		var sum float64
		for v, p := range post.P {
			if p < 0 || p > 1 {
				t.Errorf("path %v: P[%d] = %v", path, v, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("path %v: posterior sums to %v", path, sum)
		}
		// Compromised nodes can never carry posterior mass here.
		for _, c := range []int{0, 1, 2} {
			if post.P[c] != 0 {
				t.Errorf("path %v: compromised node %d has mass %v", path, c, post.P[c])
			}
		}
		if post.P[post.Candidate] != post.Alpha {
			t.Errorf("path %v: candidate mass %v ≠ alpha %v",
				path, post.P[post.Candidate], post.Alpha)
		}
	}
}

// TestPosteriorNeverExcludesTrueSender: the true sender must always carry
// positive posterior mass (soundness of the inference).
func TestPosteriorNeverExcludesTrueSender(t *testing.T) {
	a := analyst(t, 12, []trace.NodeID{0, 1, 2}, uniform(t, 0, 9))
	paths := [][]trace.NodeID{
		{7, 8}, {7, 0}, {0, 7}, {0, 7, 8}, {7, 0, 1, 8}, {6, 0, 7, 1, 2, 8, 9},
	}
	for _, path := range paths {
		post, err := a.Posterior(synth(5, path, 0, 1, 2))
		if err != nil {
			t.Fatal(err)
		}
		if post.P[5] <= 0 {
			t.Errorf("path %v: true sender has zero posterior", path)
		}
	}
}

// TestPosteriorCertainIdentification: with a length-1 fixed strategy, a
// compromised first intermediate identifies the sender with certainty.
func TestPosteriorCertainIdentification(t *testing.T) {
	f, err := dist.NewFixed(1)
	if err != nil {
		t.Fatal(err)
	}
	a := analyst(t, 12, []trace.NodeID{0}, f)
	post, err := a.Posterior(synth(5, []trace.NodeID{0}, 0))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(post.P[5]-1) > 1e-12 || post.H > 1e-12 {
		t.Errorf("sender not identified: P[5]=%v H=%v", post.P[5], post.H)
	}
}

func TestAnalyzeAll(t *testing.T) {
	a := analyst(t, 12, []trace.NodeID{0, 1}, uniform(t, 0, 6))
	// Build tuple streams for three messages: two complete, one missing
	// its receiver report.
	var tuples []trace.Tuple
	mt1 := synth(5, []trace.NodeID{0, 7}, 0, 1)
	mt1.Msg = 1
	for i := range mt1.Reports {
		mt1.Reports[i].Msg = 1
	}
	tuples = append(tuples, mt1.Reports...)
	tuples = append(tuples, trace.Tuple{Time: 99, Observer: trace.Receiver, Msg: 1, Pred: mt1.ReceiverPred})

	mt2 := synth(6, []trace.NodeID{9, 1, 4}, 0, 1)
	for i := range mt2.Reports {
		mt2.Reports[i].Msg = 2
	}
	tuples = append(tuples, mt2.Reports...)
	tuples = append(tuples, trace.Tuple{Time: 120, Observer: trace.Receiver, Msg: 2, Pred: mt2.ReceiverPred})

	tuples = append(tuples, trace.Tuple{Time: 130, Observer: 0, Msg: 3, Pred: 8, Succ: 9}) // in flight

	posts, incomplete, err := a.AnalyzeAll(tuples)
	if err != nil {
		t.Fatal(err)
	}
	if len(posts) != 2 {
		t.Fatalf("%d posteriors", len(posts))
	}
	if len(incomplete) != 1 || incomplete[0] != 3 {
		t.Errorf("incomplete = %v", incomplete)
	}
	if p, ok := posts[1]; !ok || p.P[5] <= 0 {
		t.Errorf("message 1 posterior: %+v", p)
	}
	if p, ok := posts[2]; !ok || p.P[6] <= 0 {
		t.Errorf("message 2 posterior: %+v", p)
	}
	// Corrupt stream: report from a foreign agent must surface an error.
	bad := []trace.Tuple{
		{Time: 1, Observer: 7, Msg: 9, Pred: 3, Succ: 5},
		{Time: 2, Observer: trace.Receiver, Msg: 9, Pred: 5},
	}
	if _, _, err := a.AnalyzeAll(bad); !errors.Is(err, adversary.ErrCorruptTrace) {
		t.Errorf("corrupt stream err = %v", err)
	}
}

func TestCompromisedAndEngineAccessors(t *testing.T) {
	a := analyst(t, 12, []trace.NodeID{3, 4}, uniform(t, 0, 5))
	if !a.Compromised(3) || a.Compromised(5) {
		t.Error("Compromised accessor wrong")
	}
	// The set is a bitset over [0, N): word boundaries and identities
	// outside the system (the receiver's −1 included) must read false.
	wide := analyst(t, 130, []trace.NodeID{0, 63, 64, 129}, uniform(t, 0, 5))
	for id, want := range map[trace.NodeID]bool{
		0: true, 63: true, 64: true, 129: true, 1: false, 62: false, 65: false, 128: false,
		130: false, 191: false, 192: false, trace.Receiver: false, -64: false, 1 << 40: false,
	} {
		if got := wide.Compromised(id); got != want {
			t.Errorf("Compromised(%d) = %v, want %v", id, got, want)
		}
	}
	if a.Engine() == nil || a.Engine().N() != 12 {
		t.Error("Engine accessor wrong")
	}
}
