package onion_test

import (
	"bytes"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"anonmix/internal/onion"
	"anonmix/internal/simnet"
	"anonmix/internal/trace"
)

func ring(t *testing.T, n int) *onion.KeyRing {
	t.Helper()
	kr, err := onion.NewKeyRing([]byte("test ring secret"), n)
	if err != nil {
		t.Fatal(err)
	}
	return kr
}

func TestKeyRing(t *testing.T) {
	if _, err := onion.NewKeyRing(nil, 0); !errors.Is(err, onion.ErrBadRoute) {
		t.Errorf("n=0 err = %v", err)
	}
	kr := ring(t, 5)
	if kr.N() != 5 {
		t.Errorf("N = %d", kr.N())
	}
	k0, err := kr.Key(0)
	if err != nil {
		t.Fatal(err)
	}
	k1, err := kr.Key(1)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(k0, k1) {
		t.Error("distinct nodes share a key")
	}
	if _, err := kr.Key(5); !errors.Is(err, onion.ErrBadRoute) {
		t.Errorf("out-of-range key err = %v", err)
	}
	if _, err := kr.Key(trace.Receiver); !errors.Is(err, onion.ErrBadRoute) {
		t.Errorf("receiver key err = %v", err)
	}
	// Different ring secrets derive different keys.
	kr2, err := onion.NewKeyRing([]byte("other secret"), 5)
	if err != nil {
		t.Fatal(err)
	}
	o0, err := kr2.Key(0)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(k0, o0) {
		t.Error("different secrets derived the same key")
	}
	// Every key is HMAC-SHA256(secret, big-endian uint32(i)), and its
	// capacity ends at its length, so appending to one key cannot
	// overwrite the next.
	for i := 0; i < kr.N(); i++ {
		k, err := kr.Key(trace.NodeID(i))
		if err != nil {
			t.Fatal(err)
		}
		mac := hmac.New(sha256.New, []byte("test ring secret"))
		var id [4]byte
		binary.BigEndian.PutUint32(id[:], uint32(i))
		mac.Write(id[:])
		if want := mac.Sum(nil); !bytes.Equal(k, want) {
			t.Errorf("key %d = %x, want %x", i, k, want)
		}
		if cap(k) != len(k) {
			t.Errorf("key %d: cap %d != len %d", i, cap(k), len(k))
		}
	}
}

func TestBuildPeelRoundTrip(t *testing.T) {
	kr := ring(t, 8)
	payload := []byte("the quick brown fox")
	routes := [][]trace.NodeID{
		{},
		{3},
		{1, 5},
		{7, 0, 2, 4, 6},
	}
	for _, route := range routes {
		blob, err := onion.Build(kr, route, payload, rand.Reader)
		if err != nil {
			t.Fatalf("route %v: %v", route, err)
		}
		for i, hop := range route {
			next, inner, err := onion.Peel(kr, hop, blob)
			if err != nil {
				t.Fatalf("route %v hop %d: %v", route, i, err)
			}
			wantNext := trace.Receiver
			if i+1 < len(route) {
				wantNext = route[i+1]
			}
			if next != wantNext {
				t.Fatalf("route %v hop %d: next = %v, want %v", route, i, next, wantNext)
			}
			blob = inner
		}
		if !bytes.Equal(blob, payload) {
			t.Errorf("route %v: payload corrupted: %q", route, blob)
		}
	}
}

func TestPeelWrongNodeFails(t *testing.T) {
	kr := ring(t, 6)
	blob, err := onion.Build(kr, []trace.NodeID{2, 4}, []byte("secret"), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := onion.Peel(kr, 3, blob); !errors.Is(err, onion.ErrAuth) {
		t.Errorf("wrong node peel err = %v", err)
	}
	// The inner layer must not peel under the outer node's key either.
	_, inner, err := onion.Peel(kr, 2, blob)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := onion.Peel(kr, 2, inner); !errors.Is(err, onion.ErrAuth) {
		t.Errorf("replayed key peel err = %v", err)
	}
}

func TestPeelTamperDetected(t *testing.T) {
	kr := ring(t, 4)
	blob, err := onion.Build(kr, []trace.NodeID{1}, []byte("x"), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 0x01
	if _, _, err := onion.Peel(kr, 1, blob); !errors.Is(err, onion.ErrAuth) {
		t.Errorf("tampered peel err = %v", err)
	}
	if _, _, err := onion.Peel(kr, 1, blob[:10]); !errors.Is(err, onion.ErrTruncated) {
		t.Errorf("truncated peel err = %v", err)
	}
}

func TestBuildValidation(t *testing.T) {
	kr := ring(t, 4)
	if _, err := onion.Build(nil, nil, nil, rand.Reader); !errors.Is(err, onion.ErrBadRoute) {
		t.Errorf("nil ring err = %v", err)
	}
	if _, err := onion.Build(kr, []trace.NodeID{9}, nil, rand.Reader); !errors.Is(err, onion.ErrBadRoute) {
		t.Errorf("bad hop err = %v", err)
	}
	if _, err := onion.NewForwarder(nil); !errors.Is(err, onion.ErrBadRoute) {
		t.Errorf("nil forwarder ring err = %v", err)
	}
}

// TestLayersHideRoute: a compromised node must not learn hops beyond its
// successor — peeled layers reveal exactly one next hop, and the remaining
// blob is indistinguishable from random to that node (we verify it cannot
// be peeled again with the same key, and that two onions over the same
// route differ thanks to fresh IVs).
func TestLayersHideRoute(t *testing.T) {
	kr := ring(t, 6)
	route := []trace.NodeID{1, 2, 3}
	a, err := onion.Build(kr, route, []byte("p"), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	b, err := onion.Build(kr, route, []byte("p"), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, b) {
		t.Error("identical onions for identical routes: IVs not fresh")
	}
}

// TestOnionOverTestbed runs the onion stack end to end on the goroutine
// network: routes are onion-encoded, nodes peel layers, the exit delivers
// the decrypted payload, and compromised taps still see only predecessor
// and successor.
func TestOnionOverTestbed(t *testing.T) {
	const n = 10
	kr := ring(t, n)
	fwd, err := onion.NewForwarder(kr)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := simnet.New(simnet.Config{
		N: n, Compromised: []trace.NodeID{4}, Forwarder: fwd,
	})
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	defer nw.Close()

	route := []trace.NodeID{2, 4, 7}
	blob, err := onion.Build(kr, route, []byte("top secret"), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	id, err := nw.Inject(0, route[0], simnet.Packet{Onion: blob})
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.WaitSettled(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	dels := nw.Deliveries()
	if len(dels) != 1 {
		t.Fatalf("%d deliveries (drops: %v)", len(dels), nw.Dropped())
	}
	if dels[0].Msg != id || string(dels[0].Payload) != "top secret" || dels[0].Pred != 7 {
		t.Errorf("delivery = %+v", dels[0])
	}
	mt := trace.Collate(nw.Tuples())[id]
	if len(mt.Reports) != 1 {
		t.Fatalf("reports = %+v", mt.Reports)
	}
	r := mt.Reports[0]
	if r.Observer != 4 || r.Pred != 2 || r.Succ != 7 {
		t.Errorf("compromised tap = %+v", r)
	}
}

// FuzzBuildPeel exercises the codec with arbitrary payloads and route
// shapes.
func FuzzBuildPeel(f *testing.F) {
	f.Add([]byte("seed"), uint8(3))
	f.Add([]byte{}, uint8(0))
	f.Add(bytes.Repeat([]byte{0xFF}, 1024), uint8(7))
	kr, err := onion.NewKeyRing([]byte("fuzz ring"), 8)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, payload []byte, routeLen uint8) {
		l := int(routeLen) % 8
		route := make([]trace.NodeID, l)
		for i := range route {
			route[i] = trace.NodeID((i * 3) % 8)
		}
		blob, err := onion.Build(kr, route, payload, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		for i, hop := range route {
			next, inner, err := onion.Peel(kr, hop, blob)
			if err != nil {
				t.Fatalf("hop %d: %v", i, err)
			}
			if i == len(route)-1 {
				if next != trace.Receiver {
					t.Fatalf("exit next = %v", next)
				}
			} else if next != route[i+1] {
				t.Fatalf("hop %d: next %v, want %v", i, next, route[i+1])
			}
			blob = inner
		}
		if !bytes.Equal(blob, payload) && !(len(blob) == 0 && len(payload) == 0) {
			t.Fatalf("payload mismatch: %d vs %d bytes", len(blob), len(payload))
		}
	})
}
