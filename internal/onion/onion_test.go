package onion_test

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"anonmix/internal/onion"
	"anonmix/internal/simnet"
	"anonmix/internal/stats"
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
		t.Fatalf("%d deliveries (drops: %v)", len(dels), nw.DropStats().Samples)
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

// TestForwarderNextDoesNotAllocate: peeling a layer on the testbed
// allocates nothing. Peel decrypts in place, and a node's layer state is
// built once, on its first layer.
func TestForwarderNextDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	const runs = 100
	kr := ring(t, 8)
	fwd, err := onion.NewForwarder(kr)
	if err != nil {
		t.Fatal(err)
	}
	route := []trace.NodeID{1, 4, 6, 3, 0}
	blobs := make([][]byte, runs+1) // AllocsPerRun adds a warm-up run
	for i := range blobs {
		if blobs[i], err = onion.Build(kr, route, []byte("payload"), rand.Reader); err != nil {
			t.Fatal(err)
		}
	}
	var pkt simnet.Packet
	run := 0
	allocs := testing.AllocsPerRun(runs, func() {
		pkt = simnet.Packet{Onion: blobs[run]}
		run++
		for _, hop := range route {
			if _, err := fwd.Next(hop, &pkt); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("Forwarder.Next: %v allocations per 5-hop onion, want 0", allocs)
	}
	if string(pkt.Payload) != "payload" {
		t.Errorf("exit payload %q", pkt.Payload)
	}
}

// TestConcurrentBuildPeel builds and peels onions over the same nodes from
// four goroutines on a fresh ring, so the layer states are built, published
// and used concurrently; run it under -race.
func TestConcurrentBuildPeel(t *testing.T) {
	kr := ring(t, 6)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				route := []trace.NodeID{trace.NodeID((g + i) % 6), trace.NodeID((g + 2*i + 1) % 6), trace.NodeID(i % 6)}
				payload := []byte{byte(g), byte(i)}
				blob, err := onion.Build(kr, route, payload, rand.Reader)
				if err != nil {
					t.Error(err)
					return
				}
				for _, hop := range route {
					if _, blob, err = onion.Peel(kr, hop, blob); err != nil {
						t.Error(err)
						return
					}
				}
				if !bytes.Equal(blob, payload) {
					t.Errorf("goroutine %d, onion %d: payload %x", g, i, blob)
					return
				}
			}
		}(g)
	}
	wg.Wait()
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

// refLayers builds an onion the reference way, every layer from
// aes.NewCipher, cipher.NewCTR and hmac.New: a layer is IV ‖
// HMAC-SHA256(key, IV ‖ ct) ‖ ct, where ct is AES-256-CTR under the same
// key of (next hop as a big-endian int32 ‖ inner length as a big-endian
// uint32 ‖ inner), and the IVs come from ivs innermost layer first. It
// returns every layer, outermost first, followed by the payload.
func refLayers(t *testing.T, kr *onion.KeyRing, route []trace.NodeID, payload []byte, ivs io.Reader) [][]byte {
	t.Helper()
	layers := [][]byte{payload}
	next := trace.Receiver
	for i := len(route) - 1; i >= 0; i-- {
		key, err := kr.Key(route[i])
		if err != nil {
			t.Fatal(err)
		}
		inner := layers[0]
		plain := make([]byte, 8+len(inner))
		binary.BigEndian.PutUint32(plain[0:4], uint32(int32(next)))
		binary.BigEndian.PutUint32(plain[4:8], uint32(len(inner)))
		copy(plain[8:], inner)
		iv := make([]byte, aes.BlockSize)
		if _, err := io.ReadFull(ivs, iv); err != nil {
			t.Fatal(err)
		}
		block, err := aes.NewCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		ct := make([]byte, len(plain))
		cipher.NewCTR(block, iv).XORKeyStream(ct, plain)
		mac := hmac.New(sha256.New, key)
		mac.Write(iv)
		mac.Write(ct)
		layer := append(append(iv, mac.Sum(nil)...), ct...)
		layers = append([][]byte{layer}, layers...)
		next = route[i]
	}
	return layers
}

// TestBuildKnownAnswer pins the onion bytes: over routes of 0 to 10 hops
// and payloads of 0 to 300 bytes, Build's output equals the reference
// layers byte for byte when both draw IVs from the same stream, and each
// Peel returns the reference's next layer. Three IV streams take turns:
// all 0xff, so the CTR counter wraps across both 64-bit halves after the
// first block; a low half of 0xff, so it carries into the high half; and
// seeded bytes, which pin the order IVs are drawn in.
func TestBuildKnownAnswer(t *testing.T) {
	const maxHops, maxPayload, n = 10, 300, 16
	kr := ring(t, n)
	streams := make([][]byte, 3)
	streams[0] = bytes.Repeat([]byte{0xff}, maxHops*aes.BlockSize)
	for i := 0; i < maxHops; i++ {
		iv := make([]byte, aes.BlockSize)
		iv[0], iv[7] = byte(i), 0x80
		copy(iv[8:], bytes.Repeat([]byte{0xff}, 8))
		streams[1] = append(streams[1], iv...)
	}
	streams[2] = make([]byte, maxHops*aes.BlockSize)
	rng := stats.NewRand(41)
	for i := range streams[2] {
		streams[2][i] = byte(rng.Intn(256))
	}
	payload := make([]byte, maxPayload)
	for i := range payload {
		payload[i] = byte(i*7 + 3)
	}
	for hops := 0; hops <= maxHops; hops++ {
		for size := 0; size <= maxPayload; size++ {
			route := make([]trace.NodeID, hops)
			for i := range route {
				route[i] = trace.NodeID((size + 5*i) % n)
			}
			stream := streams[(hops+size)%len(streams)]
			want := refLayers(t, kr, route, payload[:size], bytes.NewReader(stream))
			ivs := bytes.NewReader(stream)
			blob, err := onion.Build(kr, route, payload[:size], ivs)
			if err != nil {
				t.Fatalf("%d hops, %d bytes: %v", hops, size, err)
			}
			if !bytes.Equal(blob, want[0]) {
				t.Fatalf("%d hops, %d bytes, IV stream %d: Build = %x, reference %x",
					hops, size, (hops+size)%len(streams), blob, want[0])
			}
			if drawn := len(stream) - ivs.Len(); drawn != hops*aes.BlockSize {
				t.Fatalf("%d hops: Build drew %d IV bytes", hops, drawn)
			}
			for i, hop := range route {
				next, inner, err := onion.Peel(kr, hop, blob)
				if err != nil {
					t.Fatalf("%d hops, %d bytes, layer %d: %v", hops, size, i, err)
				}
				wantNext := trace.Receiver
				if i+1 < hops {
					wantNext = route[i+1]
				}
				if next != wantNext || !bytes.Equal(inner, want[i+1]) {
					t.Fatalf("%d hops, %d bytes, layer %d: Peel = %v, %x; reference %v, %x",
						hops, size, i, next, inner, wantNext, want[i+1])
				}
				blob = inner
			}
		}
	}
}

// TestPeelRejectsLongInnerLength: a layer whose tag verifies but whose
// header claims more inner bytes than it carries fails with ErrTruncated,
// and Peel leaves it as it was although it decrypted it to read the
// header.
func TestPeelRejectsLongInnerLength(t *testing.T) {
	kr := ring(t, 4)
	key, err := kr.Key(2)
	if err != nil {
		t.Fatal(err)
	}
	plain := make([]byte, 8+5)
	binary.BigEndian.PutUint32(plain[0:4], 3) // next hop: node 3
	binary.BigEndian.PutUint32(plain[4:8], 6) // 6 inner bytes; 5 follow
	iv := bytes.Repeat([]byte{0x5a}, aes.BlockSize)
	block, err := aes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	ct := make([]byte, len(plain))
	cipher.NewCTR(block, iv).XORKeyStream(ct, plain)
	mac := hmac.New(sha256.New, key)
	mac.Write(iv)
	mac.Write(ct)
	blob := append(append(iv, mac.Sum(nil)...), ct...)
	orig := bytes.Clone(blob)
	if _, _, err := onion.Peel(kr, 2, blob); !errors.Is(err, onion.ErrTruncated) {
		t.Fatalf("Peel err = %v, want ErrTruncated", err)
	}
	if !bytes.Equal(blob, orig) {
		t.Fatal("Peel changed the layer it rejected")
	}
}

// FuzzPeel hands Peel arbitrary bytes and node IDs. It must not panic, it
// may fail only with ErrTruncated, ErrAuth or ErrBadRoute, and a blob it
// rejects must be left byte for byte as it was.
func FuzzPeel(f *testing.F) {
	kr, err := onion.NewKeyRing([]byte("fuzz ring"), 8)
	if err != nil {
		f.Fatal(err)
	}
	valid, err := onion.Build(kr, []trace.NodeID{3, 5}, []byte("seed"), bytes.NewReader(make([]byte, 32)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid, int64(3))
	f.Add(valid, int64(5))
	f.Add(valid[:len(valid)-1], int64(3))
	f.Add(valid[:55], int64(3))
	f.Add([]byte{}, int64(0))
	f.Add(bytes.Repeat([]byte{0xff}, 64), int64(-1))
	f.Add(valid, int64(8))
	f.Fuzz(func(t *testing.T, blob []byte, self int64) {
		work := bytes.Clone(blob)
		next, inner, err := onion.Peel(kr, trace.NodeID(self), work)
		if err != nil {
			if !errors.Is(err, onion.ErrTruncated) && !errors.Is(err, onion.ErrAuth) && !errors.Is(err, onion.ErrBadRoute) {
				t.Fatalf("Peel error %v is none of ErrTruncated, ErrAuth, ErrBadRoute", err)
			}
			if !bytes.Equal(work, blob) {
				t.Fatalf("Peel rejected the blob (%v) and changed it", err)
			}
			return
		}
		if next != trace.Receiver && (next < 0 || int(next) >= kr.N()) {
			t.Fatalf("Peel returned next hop %v", next)
		}
		if len(inner) > len(blob)-56 {
			t.Fatalf("inner layer of %d bytes from a blob of %d", len(inner), len(blob))
		}
	})
}
