package scenario

// White-box tests for the fault-analysis helpers: the degenerate branches
// the end-to-end reliability suite cannot steer the kernel into — an
// observer missing from a trace, partials the adversary discards, and the
// unexpected-drop guard firing on a real defect (a forwarder error) rather
// than the fault process.

import (
	"errors"
	"strings"
	"testing"
	"time"

	"anonmix/internal/adversary"
	"anonmix/internal/dist"
	"anonmix/internal/events"
	"anonmix/internal/montecarlo"
	"anonmix/internal/simnet"
	"anonmix/internal/trace"
)

func TestTruncateAtObserverAbsent(t *testing.T) {
	comp := map[trace.NodeID]bool{3: true}
	mt := montecarlo.Synthesize(1, 5, []trace.NodeID{3, 7}, func(id trace.NodeID) bool { return comp[id] })
	if got := truncateAtObserver(mt, 3); got == nil || len(got.Reports) == 0 {
		t.Errorf("observer 3 reported, got %v", got)
	}
	if got := truncateAtObserver(mt, 99); got != nil {
		t.Errorf("observer 99 never reported, got %v", got)
	}
}

func TestFoldDegradedSkipsUnusablePartials(t *testing.T) {
	e, err := events.New(12, 2)
	if err != nil {
		t.Fatal(err)
	}
	eU, err := events.New(12, 2, events.WithUncompromisedReceiver())
	if err != nil {
		t.Fatal(err)
	}
	u, err := dist.NewUniform(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	compromised := []trace.NodeID{0, 1}
	analyst, err := adversary.NewAnalyst(e, u, compromised)
	if err != nil {
		t.Fatal(err)
	}
	analystU, err := adversary.NewAnalyst(eU, u, compromised)
	if err != nil {
		t.Fatal(err)
	}
	isComp := func(id trace.NodeID) bool { return id < 2 }
	mt := montecarlo.Synthesize(7, 5, []trace.NodeID{1, 8}, isComp)
	var sc adversary.Scratch
	plain, err := analyst.EntropyScratch(mt, &sc)
	if err != nil {
		t.Fatal(err)
	}
	// A nil partial (observer absent from the delivered trace) and an
	// unclassifiable one must both be skipped, leaving the plain entropy.
	junk := &trace.MessageTrace{Msg: 7, Reports: []trace.Tuple{
		{Msg: 7, Time: 1, Observer: 0, Pred: 0, Succ: 0},
		{Msg: 7, Time: 2, Observer: 0, Pred: 0, Succ: 0},
		{Msg: 7, Time: 3, Observer: 0, Pred: 0, Succ: 0},
	}}
	acc, err := adversary.NewAccumulator(analyst)
	if err != nil {
		t.Fatal(err)
	}
	h, err := foldDegraded(acc, analystU, mt, []*trace.MessageTrace{nil, junk}, &sc)
	if err != nil {
		t.Fatal(err)
	}
	if diff := h - plain; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("skipped partials changed entropy: %v vs %v", h, plain)
	}
}

// TestFoldDegradedRejectsForeignAnalyst: a partial fold through an
// analyst over another population is a configuration error, not an
// unclassifiable partial, and must fail the fold instead of silently
// leaving HDegraded at H.
func TestFoldDegradedRejectsForeignAnalyst(t *testing.T) {
	u, err := dist.NewUniform(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	compromised := []trace.NodeID{0, 1}
	e, err := events.New(12, 2)
	if err != nil {
		t.Fatal(err)
	}
	analyst, err := adversary.NewAnalyst(e, u, compromised)
	if err != nil {
		t.Fatal(err)
	}
	eU, err := events.New(13, 2, events.WithUncompromisedReceiver())
	if err != nil {
		t.Fatal(err)
	}
	analystU, err := adversary.NewAnalyst(eU, u, compromised)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := adversary.NewAccumulator(analyst)
	if err != nil {
		t.Fatal(err)
	}
	isComp := func(id trace.NodeID) bool { return id < 2 }
	mt := montecarlo.Synthesize(7, 5, []trace.NodeID{1, 8}, isComp)
	partial := montecarlo.SynthesizePartial(7, 5, []trace.NodeID{1, 8}, 1, isComp)
	var sc adversary.Scratch
	if _, err := foldDegraded(acc, analystU, mt, []*trace.MessageTrace{partial}, &sc); !errors.Is(err, adversary.ErrBadConfig) {
		t.Fatalf("fold through a 13-node analyst into a 12-node accumulator: err = %v, want ErrBadConfig", err)
	}
}

// erringForwarder rejects every packet, producing DropForwarder — a drop
// cause fault injection never generates.
type erringForwarder struct{}

func (erringForwarder) Next(self trace.NodeID, pkt *simnet.Packet) (trace.NodeID, error) {
	return 0, errForward
}

var errForward = &forwardError{}

type forwardError struct{}

func (*forwardError) Error() string { return "synthetic forwarder failure" }

func TestCheckUnexpectedDropsFlagsRealDefects(t *testing.T) {
	nw, err := simnet.New(simnet.Config{N: 8, Forwarder: erringForwarder{}})
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	defer nw.Close()
	if _, err := nw.Inject(0, 3, simnet.Packet{Onion: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if err := nw.WaitSettled(time.Minute); err != nil {
		t.Fatal(err)
	}
	err = checkUnexpectedDrops(nw)
	if err == nil || !strings.Contains(err.Error(), "unexpected cause") {
		t.Errorf("forwarder drop not flagged: %v", err)
	}
}

func TestProtocolStrings(t *testing.T) {
	cases := map[Protocol]string{
		ProtocolPlain:  "plain",
		ProtocolOnion:  "onion",
		ProtocolCrowds: "crowds",
		ProtocolMix:    "mix",
		Protocol(42):   "Protocol(42)",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("Protocol(%d).String() = %q, want %q", uint8(p), got, want)
		}
	}
}

func TestNewAnalystFacade(t *testing.T) {
	a, err := NewAnalyst(Config{
		N:            20,
		StrategySpec: "uniform:1,5",
		Adversary:    Adversary{Count: 2},
		Workload:     Workload{Messages: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Compromised(0) || a.Compromised(5) {
		t.Error("analyst compromised set wrong")
	}
	if _, err := NewAnalyst(Config{N: -1}); err == nil {
		t.Error("bad config accepted")
	}
}
