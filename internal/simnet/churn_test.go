package simnet

import (
	"errors"
	"testing"
	"time"

	"anonmix/internal/trace"
)

// TestChurnValidation pins the per-node state machine of the churn
// schedule: every illegal transition is rejected with ErrBadConfig.
func TestChurnValidation(t *testing.T) {
	base := func() Config { return Config{N: 6, Compromised: []trace.NodeID{0}} }
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"join of live node", func(c *Config) {
			c.Churn = []ChurnEvent{{Time: 5, Kind: ChurnJoin, Node: 2}}
		}},
		{"leave of absent node", func(c *Config) {
			c.Down = []trace.NodeID{3}
			c.Churn = []ChurnEvent{{Time: 5, Kind: ChurnLeave, Node: 3}}
		}},
		{"leave of compromised node", func(c *Config) {
			c.Churn = []ChurnEvent{{Time: 5, Kind: ChurnLeave, Node: 0}}
		}},
		{"double compromise", func(c *Config) {
			c.Churn = []ChurnEvent{
				{Time: 5, Kind: ChurnCompromise, Node: 2},
				{Time: 9, Kind: ChurnCompromise, Node: 2},
			}
		}},
		{"compromise of absent node", func(c *Config) {
			c.Down = []trace.NodeID{3}
			c.Churn = []ChurnEvent{{Time: 5, Kind: ChurnCompromise, Node: 3}}
		}},
		{"recover of honest node", func(c *Config) {
			c.Churn = []ChurnEvent{{Time: 5, Kind: ChurnRecover, Node: 2}}
		}},
		{"node out of range", func(c *Config) {
			c.Churn = []ChurnEvent{{Time: 5, Kind: ChurnJoin, Node: 6}}
		}},
		{"unknown kind", func(c *Config) {
			c.Churn = []ChurnEvent{{Time: 5, Kind: ChurnKind(9), Node: 2}}
		}},
		{"down node compromised", func(c *Config) {
			c.Down = []trace.NodeID{0}
		}},
		{"duplicate down node", func(c *Config) {
			c.Down = []trace.NodeID{3, 3}
		}},
		{"down node out of range", func(c *Config) {
			c.Down = []trace.NodeID{7}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mut(&cfg)
			if _, err := New(cfg); !errors.Is(err, ErrBadConfig) {
				t.Errorf("err = %v, want ErrBadConfig", err)
			}
		})
	}
	// A legal lifecycle passes: join → compromise → recover → leave.
	cfg := base()
	cfg.Down = []trace.NodeID{5}
	cfg.Churn = []ChurnEvent{
		{Time: 10, Kind: ChurnJoin, Node: 5},
		{Time: 20, Kind: ChurnCompromise, Node: 5},
		{Time: 30, Kind: ChurnRecover, Node: 5},
		{Time: 40, Kind: ChurnLeave, Node: 5},
	}
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := nw.Metrics().Churn; got != 4 {
		t.Errorf("Metrics.Churn = %d, want 4", got)
	}
}

// TestChurnTapFollowsVirtualTime: a node compromised at virtual time T taps
// traffic with timestamps ≥ T and nothing before, regardless of wall-clock
// processing order.
func TestChurnTapFollowsVirtualTime(t *testing.T) {
	nw, err := New(Config{
		N: 6,
		Churn: []ChurnEvent{
			{Time: 100, Kind: ChurnCompromise, Node: 3},
			{Time: 200, Kind: ChurnRecover, Node: 3},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	defer nw.Close()

	// Phase 1 (t < 100): node 3 honest — no tap.
	early, err := nw.SendRoute(1, []trace.NodeID{3, 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Settle(time.Second); err != nil {
		t.Fatal(err)
	}
	// Phase 2 (100 ≤ t < 200): node 3 compromised — tapped.
	nw.AdvanceTime(100)
	mid, err := nw.SendRoute(1, []trace.NodeID{3, 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Settle(time.Second); err != nil {
		t.Fatal(err)
	}
	// Phase 3 (t ≥ 200): recovered — no tap again.
	nw.AdvanceTime(200)
	late, err := nw.SendRoute(1, []trace.NodeID{3, 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Settle(time.Second); err != nil {
		t.Fatal(err)
	}

	taps := map[trace.MessageID]int{}
	for _, tu := range nw.Tuples() {
		if tu.Observer == trace.NodeID(3) {
			taps[tu.Msg]++
		}
	}
	if taps[early] != 0 || taps[mid] != 1 || taps[late] != 0 {
		t.Errorf("taps by node 3: early=%d mid=%d late=%d, want 0/1/0", taps[early], taps[mid], taps[late])
	}
	if len(nw.Deliveries()) != 3 {
		t.Errorf("deliveries = %d, want 3", len(nw.Deliveries()))
	}
}

// TestChurnMembershipGates: traffic to an absent node is dropped with
// ErrAbsent, both at injection (absent sender) and in flight (absent hop),
// and a joiner becomes reachable from its join time on.
func TestChurnMembershipGates(t *testing.T) {
	nw, err := New(Config{
		N:    5,
		Down: []trace.NodeID{4},
		Churn: []ChurnEvent{
			{Time: 100, Kind: ChurnJoin, Node: 4},
			{Time: 100, Kind: ChurnLeave, Node: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	defer nw.Close()

	// The not-yet-joined node cannot send.
	if _, err := nw.SendRoute(4, []trace.NodeID{1}, nil); !errors.Is(err, ErrAbsent) {
		t.Errorf("absent sender err = %v, want ErrAbsent", err)
	}
	// Routing through the not-yet-joined node drops the packet.
	if _, err := nw.SendRoute(0, []trace.NodeID{4, 1}, nil); err != nil {
		t.Fatal(err)
	}
	if err := nw.Settle(time.Second); err != nil {
		t.Fatal(err)
	}
	if st := nw.DropStats(); st.Total != 1 || !errors.Is(st.Samples[0], ErrAbsent) {
		t.Fatalf("%d drops %v, want one ErrAbsent", st.Total, st.Samples)
	}

	// After the boundary the joiner works and the leaver is gone.
	nw.AdvanceTime(100)
	if _, err := nw.SendRoute(4, []trace.NodeID{1}, nil); err != nil {
		t.Errorf("joined sender refused: %v", err)
	}
	if _, err := nw.SendRoute(0, []trace.NodeID{2}, nil); err != nil {
		t.Fatal(err)
	}
	if err := nw.Settle(time.Second); err != nil {
		t.Fatal(err)
	}
	if st := nw.DropStats(); st.Total != 2 || !errors.Is(st.Samples[1], ErrAbsent) {
		t.Fatalf("%d drops after leave %v, want a second ErrAbsent", st.Total, st.Samples)
	}
}

// TestSettleReArms: Settle flushes partial threshold-mix batches like
// WaitSettled but re-arms the network, so a later phase accumulates fresh
// batches instead of flushing every packet straight through.
func TestSettleReArms(t *testing.T) {
	nw, err := New(Config{N: 4, BatchThreshold: 3, Shards: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	defer nw.Close()

	// Two packets into node 1: a partial batch, released only by Settle.
	for i := 0; i < 2; i++ {
		if _, err := nw.SendRoute(0, []trace.NodeID{1}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := nw.Settle(time.Second); err != nil {
		t.Fatal(err)
	}
	m := nw.Metrics()
	if m.BatchFlushes != 1 {
		t.Fatalf("flushes after phase 1 = %d, want 1 (quiescence flush)", m.BatchFlushes)
	}
	if len(nw.Deliveries()) != 2 {
		t.Fatalf("deliveries after phase 1 = %d", len(nw.Deliveries()))
	}

	// Phase 2: three packets fill a batch (threshold flush), and one more
	// is again released by quiescence — proving the drain state reset.
	for i := 0; i < 4; i++ {
		if _, err := nw.SendRoute(0, []trace.NodeID{1}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := nw.Settle(time.Second); err != nil {
		t.Fatal(err)
	}
	m = nw.Metrics()
	if m.BatchFlushes != 3 {
		t.Errorf("flushes after phase 2 = %d, want 3 (threshold + quiescence)", m.BatchFlushes)
	}
	if len(nw.Deliveries()) != 6 {
		t.Errorf("deliveries after phase 2 = %d", len(nw.Deliveries()))
	}
}

// TestAdvanceTime: the injection clock only moves forward, and injections
// after an advance carry timestamps beyond it.
func TestAdvanceTime(t *testing.T) {
	nw, err := New(Config{N: 3})
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	defer nw.Close()
	nw.AdvanceTime(500)
	nw.AdvanceTime(100) // no-op: the clock never rewinds
	if _, err := nw.SendRoute(0, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := nw.Settle(time.Second); err != nil {
		t.Fatal(err)
	}
	d := nw.Deliveries()
	if len(d) != 1 || d[0].Time <= 500 {
		t.Errorf("delivery time = %+v, want > 500", d)
	}
}
