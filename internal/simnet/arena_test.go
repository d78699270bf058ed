package simnet

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"anonmix/internal/faults"
	"anonmix/internal/trace"
)

// failForwarder rejects every packet, like an onion peel failure.
type failForwarder struct{}

func (failForwarder) Next(trace.NodeID, *Packet) (trace.NodeID, error) {
	return 0, errors.New("peel failed")
}

// TestRetiredPacketsReleased pins the arena's ownership rule: whichever
// path retires a message zeroes its slot, so a settled network pins no
// route, onion or payload. Each case drives one retirement path, checks
// that the path was taken, and then checks every slot the arena handed
// out. Every case stays under one chunk, so the arena's current chunk
// holds all of its slots.
func TestRetiredPacketsReleased(t *testing.T) {
	pkt := func(first trace.NodeID, rest ...trace.NodeID) (trace.NodeID, Packet) {
		return first, Packet{Route: rest, Onion: []byte("layers"), Payload: []byte("payload")}
	}
	cases := []struct {
		name string
		cfg  Config
		// send injects the case's traffic and returns how many injections
		// reached the arena.
		send func(t *testing.T, nw *Network) int
		// took checks that the settled network retired traffic by the
		// case's path.
		took func(nw *Network) bool
	}{
		{
			name: "delivery",
			cfg:  Config{N: 8, Compromised: []trace.NodeID{2}},
			send: func(t *testing.T, nw *Network) int {
				for i := 0; i < 20; i++ {
					first, p := pkt(1, 2, 3)
					mustInject(t, nw, 0, first, p)
				}
				_, p := pkt(0)
				mustInject(t, nw, 4, trace.Receiver, p) // delivered by Inject itself
				return 21
			},
			took: func(nw *Network) bool { return len(nw.Deliveries()) == 21 },
		},
		{
			name: "threshold-mix delivery",
			cfg:  Config{N: 8, BatchThreshold: 3, Shards: 1, Seed: 4},
			send: func(t *testing.T, nw *Network) int {
				for i := 0; i < 7; i++ { // two full batches and a partial one
					first, p := pkt(1, 2)
					mustInject(t, nw, 0, first, p)
				}
				return 7
			},
			took: func(nw *Network) bool { return len(nw.Deliveries()) == 7 },
		},
		{
			name: "absent node",
			cfg:  Config{N: 8, Down: []trace.NodeID{5}},
			send: func(t *testing.T, nw *Network) int {
				first, p := pkt(1, 5, 2)
				mustInject(t, nw, 0, first, p)
				return 1
			},
			took: func(nw *Network) bool { return nw.DropStats().ByCause[DropAbsent] == 1 },
		},
		{
			name: "bad hop",
			cfg:  Config{N: 8},
			send: func(t *testing.T, nw *Network) int {
				first, p := pkt(1, 99)
				mustInject(t, nw, 0, first, p)
				return 1
			},
			took: func(nw *Network) bool { return nw.DropStats().ByCause[DropBadHop] == 1 },
		},
		{
			name: "forwarder error",
			cfg:  Config{N: 8, Forwarder: failForwarder{}},
			send: func(t *testing.T, nw *Network) int {
				first, p := pkt(1)
				mustInject(t, nw, 0, first, p)
				return 1
			},
			took: func(nw *Network) bool { return nw.DropStats().ByCause[DropForwarder] == 1 },
		},
		{
			name: "loss under PolicyNone",
			cfg:  Config{N: 8, LinkLoss: 0.5, Seed: 3},
			send: func(t *testing.T, nw *Network) int {
				for i := 0; i < 40; i++ {
					first, p := pkt(1, 2, 3, 4)
					mustInject(t, nw, 0, first, p)
				}
				return 40
			},
			took: func(nw *Network) bool { return nw.DropStats().ByCause[DropLoss] > 0 },
		},
		{
			name: "crash retries exhausted under PolicyRetransmit",
			cfg: Config{
				N: 8, Crashes: []faults.Crash{{Node: 2, At: 0}},
				Policy: faults.PolicyRetransmit, MaxAttempts: 3, RetryBackoff: 4,
			},
			send: func(t *testing.T, nw *Network) int {
				first, p := pkt(1, 2, 3)
				mustInject(t, nw, 0, first, p)
				return 1
			},
			took: func(nw *Network) bool {
				return nw.DropStats().ByCause[DropCrash] == 1 && nw.Metrics().Retries == 2
			},
		},
		{
			name: "reroute handoff",
			cfg: Config{
				N: 8, Crashes: []faults.Crash{{Node: 2, At: 0}},
				Policy: faults.PolicyReroute,
			},
			send: func(t *testing.T, nw *Network) int {
				first, p := pkt(1, 2, 3)
				mustInject(t, nw, 0, first, p)
				return 1
			},
			took: func(nw *Network) bool { return len(nw.TakeFailed()) == 1 },
		},
		{
			name: "sender not live",
			cfg:  Config{N: 8, Down: []trace.NodeID{0}},
			send: func(t *testing.T, nw *Network) int {
				first, p := pkt(1, 2)
				if _, err := nw.Inject(0, first, p); !errors.Is(err, ErrAbsent) {
					t.Fatalf("absent sender: err = %v, want ErrAbsent", err)
				}
				return 1
			},
			took: func(nw *Network) bool { return len(nw.Deliveries()) == 0 && nw.DropStats().Total == 0 },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nw := reliabilityNet(t, tc.cfg)
			n := tc.send(t, nw)
			if err := nw.Settle(30 * time.Second); err != nil {
				t.Fatal(err)
			}
			nw.Close() // the shards have exited: the arena is quiescent
			if !tc.took(nw) {
				t.Fatalf("retirement path not taken: %d deliveries, drops %+v", len(nw.Deliveries()), nw.DropStats())
			}
			if nw.arena.used != n {
				t.Fatalf("arena handed out %d slots for %d injections", nw.arena.used, n)
			}
			for i := range nw.arena.chunk[:nw.arena.used] {
				if p := nw.arena.chunk[i]; !reflect.ValueOf(p).IsZero() {
					t.Errorf("slot %d still holds %+v after the network settled", i, p)
				}
			}
		})
	}
}

// mustInject injects a packet, failing the test on error.
func mustInject(t *testing.T, nw *Network, sender, first trace.NodeID, pkt Packet) {
	t.Helper()
	if _, err := nw.Inject(sender, first, pkt); err != nil {
		t.Fatal(err)
	}
}
