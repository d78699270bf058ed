package montecarlo_test

import (
	"testing"

	"anonmix/internal/montecarlo"
	"anonmix/internal/trace"
)

func TestSynthesize(t *testing.T) {
	comp := func(id trace.NodeID) bool { return id == 2 || id == 4 }
	mt := montecarlo.Synthesize(7, 9, []trace.NodeID{1, 2, 4, 3}, comp)
	if mt.Msg != 7 || !mt.ReceiverSeen || mt.ReceiverPred != 3 {
		t.Errorf("trace header: %+v", mt)
	}
	if len(mt.Reports) != 2 {
		t.Fatalf("%d reports", len(mt.Reports))
	}
	r0, r1 := mt.Reports[0], mt.Reports[1]
	if r0.Observer != 2 || r0.Pred != 1 || r0.Succ != 4 {
		t.Errorf("report 0: %+v", r0)
	}
	if r1.Observer != 4 || r1.Pred != 2 || r1.Succ != 3 {
		t.Errorf("report 1: %+v", r1)
	}
	if !(r0.Time < r1.Time) {
		t.Errorf("times not increasing: %d %d", r0.Time, r1.Time)
	}
	// Last hop compromised: successor must be the receiver marker.
	mt = montecarlo.Synthesize(1, 0, []trace.NodeID{5, 2}, comp)
	if mt.Reports[0].Succ != trace.Receiver {
		t.Errorf("tail succ = %v, want Receiver", mt.Reports[0].Succ)
	}
	// Direct send: no reports, receiver sees the sender.
	mt = montecarlo.Synthesize(1, 3, nil, comp)
	if len(mt.Reports) != 0 || mt.ReceiverPred != 3 {
		t.Errorf("direct send trace: %+v", mt)
	}
}
