// Package onion implements the layered-encryption message format of
// onion-routing systems (Onion Routing I/II, Freedom, PipeNet — paper §2):
// the sender wraps the payload in one encryption layer per intermediate
// node, each layer naming only the next hop. A node peels its layer with
// its own key and learns nothing but its predecessor and successor — which
// is precisely the per-node observation granted to the adversary in the
// paper's threat model (§4).
//
// Layers use AES-256-CTR for confidentiality and HMAC-SHA256 for layer
// integrity, built on the standard library's AES block and SHA-256. Key
// management is pre-shared: a KeyRing derives per-node keys from a ring
// secret, standing in for the public-key infrastructure real deployments
// use (see DESIGN.md §5). Beside each key, the ring shares one immutable
// layer state per node (the AES block and the HMAC pad states) between
// the goroutine that builds onions and those that peel them. Build seals
// every layer in place in one buffer, and Peel decrypts a layer in place
// and returns a sub-slice of its input, so a layer allocates nothing.
package onion

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"crypto/subtle"
	"encoding"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"sync"
	"sync/atomic"

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
	// overhead is the number of bytes one layer adds.
	overhead = ivSize + macSize + headerLen
)

// KeyRing holds the symmetric key of every node, derived from a ring
// secret. The adversary's compromised nodes hold their own keys only —
// peeling someone else's layer fails authentication.
//
// Beside each key the ring keeps the node's layer state: the AES-256 block
// and the HMAC-SHA256 states after the inner and outer pads. It is built on
// the node's first layer and never changes after, so the goroutine that
// builds onions and the shards that peel them share it without a lock.
// That relies on the block crypto/aes returns being safe for concurrent
// use, which its type (crypto/internal/fips140/aes.Block) documents though
// cipher.Block does not; the race detector covers the sharing
// (TestConcurrentBuildPeel).
type KeyRing struct {
	keys   []byte // node i's key is keys[i*keySize : (i+1)*keySize]
	layers []atomic.Pointer[layerState]
}

// layerState is one node's immutable layer state.
type layerState struct {
	block cipher.Block
	// inner and outer are SHA-256 states (AppendBinary) after absorbing
	// the key XOR the HMAC inner and outer pads, held in states.
	inner, outer []byte
	states       [2 * stateSize]byte
}

// NewKeyRing derives n per-node keys from the given secret: node i's key
// is HMAC-SHA256(secret, big-endian uint32(i)). One HMAC state, reset per
// node, sums every key into one backing array. Layer states are built on
// first use, not here.
func NewKeyRing(secret []byte, n int) (*KeyRing, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: %d nodes", ErrBadRoute, n)
	}
	kr := &KeyRing{keys: make([]byte, 0, n*keySize), layers: make([]atomic.Pointer[layerState], n)}
	mac := hmac.New(sha256.New, secret)
	var id [4]byte
	for i := 0; i < n; i++ {
		mac.Reset()
		binary.BigEndian.PutUint32(id[:], uint32(i))
		mac.Write(id[:])
		kr.keys = mac.Sum(kr.keys)
	}
	return kr, nil
}

// Key returns node id's key (the caller must not modify it). Its capacity
// ends at its length, so appending to it cannot reach the next key.
func (kr *KeyRing) Key(id trace.NodeID) ([]byte, error) {
	if int(id) < 0 || int(id) >= kr.N() {
		return nil, fmt.Errorf("%w: no key for %v", ErrBadRoute, id)
	}
	i := int(id) * keySize
	return kr.keys[i : i+keySize : i+keySize], nil
}

// N returns the number of keys in the ring.
func (kr *KeyRing) N() int { return len(kr.layers) }

// layer returns node id's layer state, building it on first use with the
// scratch s. Two goroutines may build it at once; both results are equal,
// and the first one published wins.
func (kr *KeyRing) layer(id trace.NodeID, s *scratch) (*layerState, error) {
	key, err := kr.Key(id)
	if err != nil {
		return nil, err
	}
	slot := &kr.layers[id]
	if ls := slot.Load(); ls != nil {
		return ls, nil
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("onion: cipher init: %w", err)
	}
	ls := &layerState{block: block}
	ls.inner = s.padState(key, 0x36, ls.states[:0:stateSize])
	ls.outer = s.padState(key, 0x5c, ls.states[stateSize:stateSize])
	if !slot.CompareAndSwap(nil, ls) {
		ls = slot.Load()
	}
	return ls, nil
}

// shaState is a SHA-256 hash whose state can be saved and restored, as
// crypto/sha256 documents for the hashes it returns.
type shaState interface {
	hash.Hash
	encoding.BinaryAppender
	encoding.BinaryUnmarshaler
}

// stateSize is the length of a saved SHA-256 state, so a layer state
// holds both of its own; were it too short, AppendBinary would allocate.
const stateSize = 108

// scratch is the mutable state of one seal or open: a SHA-256 state that
// the layer's pad states are loaded into, and the CTR counter and
// keystream blocks. Scratches are pooled, so a layer allocates nothing.
type scratch struct {
	h       shaState
	sum     [macSize]byte
	ctr, ks [ivSize]byte
	pad     [sha256.BlockSize]byte
}

var scratches = sync.Pool{New: func() any { return &scratch{h: sha256.New().(shaState)} }}

// padState appends to dst the SHA-256 state after the first block HMAC
// hashes: the key, zero-padded to the block size, XOR pad.
func (s *scratch) padState(key []byte, pad byte, dst []byte) []byte {
	clear(s.pad[:])
	copy(s.pad[:], key)
	for i := range s.pad {
		s.pad[i] ^= pad
	}
	s.h.Reset()
	s.h.Write(s.pad[:])
	state, err := s.h.AppendBinary(dst)
	if err != nil {
		panic(err) // a SHA-256 state always saves
	}
	return state
}

// mac returns HMAC-SHA256(key, iv ‖ ct) in s.sum.
func (ls *layerState) mac(s *scratch, iv, ct []byte) []byte {
	if err := s.h.UnmarshalBinary(ls.inner); err != nil {
		panic(err) // the state was saved by the same hash
	}
	s.h.Write(iv)
	s.h.Write(ct)
	inner := s.h.Sum(s.sum[:0])
	if err := s.h.UnmarshalBinary(ls.outer); err != nil {
		panic(err)
	}
	s.h.Write(inner)
	return s.h.Sum(s.sum[:0])
}

// xorCTR XORs buf in place with the AES-CTR keystream from iv: block k of
// the keystream encrypts iv + k, a 128-bit big-endian counter that wraps
// around, as cipher.NewCTR counts.
func (ls *layerState) xorCTR(s *scratch, iv, buf []byte) {
	hi, lo := binary.BigEndian.Uint64(iv[:8]), binary.BigEndian.Uint64(iv[8:])
	for len(buf) > 0 {
		binary.BigEndian.PutUint64(s.ctr[:8], hi)
		binary.BigEndian.PutUint64(s.ctr[8:], lo)
		ls.block.Encrypt(s.ks[:], s.ctr[:])
		n := subtle.XORBytes(buf, buf, s.ks[:])
		buf = buf[n:]
		if lo++; lo == 0 {
			hi++
		}
	}
}

// Build wraps payload in one layer per route node, innermost first. The
// first element of route peels first. Random IVs are drawn from rand
// (pass a seeded reader for reproducible simulations, crypto/rand.Reader
// otherwise), innermost layer first. The first hop is route[0]; Build
// returns the blob to hand to it: len(payload) + 56·len(route) bytes,
// every layer sealed in place in that one buffer.
func Build(kr *KeyRing, route []trace.NodeID, payload []byte, rand io.Reader) ([]byte, error) {
	if kr == nil {
		return nil, fmt.Errorf("%w: nil key ring", ErrBadRoute)
	}
	for _, hop := range route {
		if int(hop) < 0 || int(hop) >= kr.N() {
			return nil, fmt.Errorf("%w: hop %v", ErrBadRoute, hop)
		}
	}
	blob := make([]byte, overhead*len(route)+len(payload))
	copy(blob[overhead*len(route):], payload)
	s := scratches.Get().(*scratch)
	defer scratches.Put(s)
	next := trace.Receiver
	for i := len(route) - 1; i >= 0; i-- {
		ls, err := kr.layer(route[i], s)
		if err != nil {
			return nil, err
		}
		if err := seal(ls, s, blob[i*overhead:], next, rand); err != nil {
			return nil, err
		}
		next = route[i]
	}
	return blob, nil
}

// Peel removes the outermost layer with the given node's key, returning
// the next hop (trace.Receiver when this node is the exit) and the inner
// blob (the payload at the exit). It verifies the layer's tag, then
// decrypts the layer in place, so the inner blob is a sub-slice of blob
// and blob no longer holds the layer's ciphertext. A blob Peel rejects is
// left as it was.
func Peel(kr *KeyRing, self trace.NodeID, blob []byte) (trace.NodeID, []byte, error) {
	s := scratches.Get().(*scratch)
	defer scratches.Put(s)
	ls, err := kr.layer(self, s)
	if err != nil {
		return 0, nil, err
	}
	return open(ls, s, blob)
}

// seal turns layer, which holds overhead free bytes followed by the inner
// blob, into IV ‖ HMAC(iv ‖ ciphertext) ‖ ciphertext, where the ciphertext
// encrypts the header (next, len(inner)) and the inner blob, drawing the
// IV from rand.
func seal(ls *layerState, s *scratch, layer []byte, next trace.NodeID, rand io.Reader) error {
	iv, tag, ct := layer[:ivSize], layer[ivSize:ivSize+macSize], layer[ivSize+macSize:]
	binary.BigEndian.PutUint32(ct[0:4], uint32(int32(next)))
	binary.BigEndian.PutUint32(ct[4:8], uint32(len(ct)-headerLen))
	if _, err := io.ReadFull(rand, iv); err != nil {
		return fmt.Errorf("onion: drawing IV: %w", err)
	}
	ls.xorCTR(s, iv, ct)
	copy(tag, ls.mac(s, iv, ct))
	return nil
}

// open verifies and decrypts one layer in place. Blobs come from outside,
// so it checks the header's inner length against the bytes the layer
// carries, and a layer it rejects stays as it was: one that fails that
// check is encrypted again, as CTR is its own inverse.
func open(ls *layerState, s *scratch, blob []byte) (trace.NodeID, []byte, error) {
	if len(blob) < overhead {
		return 0, nil, ErrTruncated
	}
	iv, tag, ct := blob[:ivSize], blob[ivSize:ivSize+macSize], blob[ivSize+macSize:]
	if !hmac.Equal(tag, ls.mac(s, iv, ct)) {
		return 0, nil, ErrAuth
	}
	ls.xorCTR(s, iv, ct)
	next := trace.NodeID(int32(binary.BigEndian.Uint32(ct[0:4])))
	innerLen := binary.BigEndian.Uint32(ct[4:8])
	if int(innerLen) > len(ct)-headerLen {
		ls.xorCTR(s, iv, ct)
		return 0, nil, ErrTruncated
	}
	return next, ct[headerLen : headerLen+int(innerLen)], nil
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
