// Package onion implements the layered-encryption message format of
// onion-routing systems (Onion Routing I/II, Freedom, PipeNet — paper §2):
// the sender wraps the payload in one encryption layer per intermediate
// node, each layer naming only the next hop. A node peels its layer with
// its own key and learns nothing but its predecessor and successor — which
// is precisely the per-node observation granted to the adversary in the
// paper's threat model (§4).
//
// Layers use AES-256-CTR for confidentiality and HMAC-SHA256 for layer
// integrity, both from the standard library. Key management is pre-shared:
// a KeyRing derives per-node keys from a ring secret, standing in for the
// public-key infrastructure real deployments use (see DESIGN.md §5).
package onion

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"anonmix/internal/simnet"
	"anonmix/internal/trace"
)

// Errors returned by the codec.
var (
	// ErrBadRoute reports an invalid route for Build.
	ErrBadRoute = errors.New("onion: invalid route")
	// ErrAuth reports a layer whose HMAC does not verify under the
	// peeling node's key (wrong node, corrupted, or truncated onion).
	ErrAuth = errors.New("onion: layer authentication failed")
	// ErrTruncated reports a structurally short blob.
	ErrTruncated = errors.New("onion: truncated layer")
)

const (
	keySize   = 32
	macSize   = sha256.Size
	ivSize    = aes.BlockSize
	headerLen = 8 // next-hop int32 + inner length uint32
)

// KeyRing holds the symmetric key of every node, derived from a ring
// secret. The adversary's compromised nodes hold their own keys only —
// peeling someone else's layer fails authentication.
type KeyRing struct {
	keys [][]byte
}

// NewKeyRing derives n per-node keys from the given secret: node i's key
// is HMAC-SHA256(secret, big-endian uint32(i)). One HMAC state, reset per
// node, sums every key into one backing array; each key's capacity ends
// at its own length, so no key reaches into the next.
func NewKeyRing(secret []byte, n int) (*KeyRing, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: %d nodes", ErrBadRoute, n)
	}
	kr := &KeyRing{keys: make([][]byte, n)}
	backing := make([]byte, n*macSize)
	mac := hmac.New(sha256.New, secret)
	var id [4]byte
	for i := range kr.keys {
		mac.Reset()
		binary.BigEndian.PutUint32(id[:], uint32(i))
		mac.Write(id[:])
		kr.keys[i] = mac.Sum(backing[i*macSize : i*macSize : (i+1)*macSize])
	}
	return kr, nil
}

// Key returns node id's key (the caller must not modify it).
func (kr *KeyRing) Key(id trace.NodeID) ([]byte, error) {
	if int(id) < 0 || int(id) >= len(kr.keys) {
		return nil, fmt.Errorf("%w: no key for %v", ErrBadRoute, id)
	}
	return kr.keys[id], nil
}

// N returns the number of keys in the ring.
func (kr *KeyRing) N() int { return len(kr.keys) }

// Build wraps payload in one layer per route node, innermost first. The
// first element of route peels first. Random IVs are drawn from rand
// (pass a seeded reader for reproducible simulations, crypto/rand.Reader
// otherwise). The first hop is route[0]; Build returns the blob to hand to
// it.
func Build(kr *KeyRing, route []trace.NodeID, payload []byte, rand io.Reader) ([]byte, error) {
	if kr == nil {
		return nil, fmt.Errorf("%w: nil key ring", ErrBadRoute)
	}
	for _, hop := range route {
		if int(hop) < 0 || int(hop) >= kr.N() {
			return nil, fmt.Errorf("%w: hop %v", ErrBadRoute, hop)
		}
	}
	// Innermost layer: deliver to the receiver.
	blob := append([]byte(nil), payload...)
	next := trace.Receiver
	for i := len(route) - 1; i >= 0; i-- {
		key, err := kr.Key(route[i])
		if err != nil {
			return nil, err
		}
		blob, err = seal(key, next, blob, rand)
		if err != nil {
			return nil, err
		}
		next = route[i]
	}
	return blob, nil
}

// Peel removes the outermost layer with the given node's key, returning
// the next hop (trace.Receiver when this node is the exit) and the inner
// blob (the payload at the exit).
func Peel(kr *KeyRing, self trace.NodeID, blob []byte) (trace.NodeID, []byte, error) {
	key, err := kr.Key(self)
	if err != nil {
		return 0, nil, err
	}
	return open(key, blob)
}

// seal encrypts the header (next, len(inner)) and inner under key with a
// fresh IV and prepends IV ‖ HMAC(iv ‖ ciphertext).
func seal(key []byte, next trace.NodeID, inner []byte, rand io.Reader) ([]byte, error) {
	plain := make([]byte, headerLen+len(inner))
	binary.BigEndian.PutUint32(plain[0:4], uint32(int32(next)))
	binary.BigEndian.PutUint32(plain[4:8], uint32(len(inner)))
	copy(plain[headerLen:], inner)

	iv := make([]byte, ivSize)
	if _, err := io.ReadFull(rand, iv); err != nil {
		return nil, fmt.Errorf("onion: drawing IV: %w", err)
	}
	block, err := aes.NewCipher(key[:keySize])
	if err != nil {
		return nil, fmt.Errorf("onion: cipher init: %w", err)
	}
	ct := make([]byte, len(plain))
	cipher.NewCTR(block, iv).XORKeyStream(ct, plain)

	mac := hmac.New(sha256.New, key)
	mac.Write(iv)
	mac.Write(ct)
	tag := mac.Sum(nil)

	out := make([]byte, 0, ivSize+macSize+len(ct))
	out = append(out, iv...)
	out = append(out, tag...)
	out = append(out, ct...)
	return out, nil
}

// open verifies and decrypts one layer. Blobs come from outside, so it
// checks the header's inner length against the bytes it carries.
func open(key, blob []byte) (trace.NodeID, []byte, error) {
	if len(blob) < ivSize+macSize+headerLen {
		return 0, nil, ErrTruncated
	}
	iv := blob[:ivSize]
	tag := blob[ivSize : ivSize+macSize]
	ct := blob[ivSize+macSize:]

	mac := hmac.New(sha256.New, key)
	mac.Write(iv)
	mac.Write(ct)
	if !hmac.Equal(tag, mac.Sum(nil)) {
		return 0, nil, ErrAuth
	}
	block, err := aes.NewCipher(key[:keySize])
	if err != nil {
		return 0, nil, fmt.Errorf("onion: cipher init: %w", err)
	}
	plain := make([]byte, len(ct))
	cipher.NewCTR(block, iv).XORKeyStream(plain, ct)

	next := trace.NodeID(int32(binary.BigEndian.Uint32(plain[0:4])))
	innerLen := binary.BigEndian.Uint32(plain[4:8])
	if int(innerLen) > len(plain)-headerLen {
		return 0, nil, ErrTruncated
	}
	return next, plain[headerLen : headerLen+int(innerLen)], nil
}

// Forwarder peels one onion layer per hop on the simnet testbed.
type Forwarder struct {
	ring *KeyRing
}

// NewForwarder returns a testbed forwarder over the given key ring.
func NewForwarder(kr *KeyRing) (*Forwarder, error) {
	if kr == nil {
		return nil, fmt.Errorf("%w: nil key ring", ErrBadRoute)
	}
	return &Forwarder{ring: kr}, nil
}

// Next implements simnet.Forwarder by peeling the packet's onion with this
// node's key. At the exit node the decrypted payload replaces the packet
// payload.
func (f *Forwarder) Next(self trace.NodeID, pkt *simnet.Packet) (trace.NodeID, error) {
	next, inner, err := Peel(f.ring, self, pkt.Onion)
	if err != nil {
		return 0, err
	}
	if next == trace.Receiver {
		pkt.Payload = inner
		pkt.Onion = nil
	} else {
		pkt.Onion = inner
	}
	return next, nil
}

// Interface compliance.
var _ simnet.Forwarder = (*Forwarder)(nil)
