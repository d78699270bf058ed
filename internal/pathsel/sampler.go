package pathsel

import (
	"fmt"

	"anonmix/internal/dist"
	"anonmix/internal/stats"
	"anonmix/internal/trace"
)

// Sampler is a per-worker path-drawing arena: an alias table for O(1)
// length draws plus reusable node buffers, so the steady-state cost of a
// path is zero heap allocations. It is NOT safe for concurrent use — each
// worker goroutine builds its own from the shared (read-only) Selector —
// and the slice returned by SelectPath is valid only until the next call.
//
// Draws come from a counter-based stats.Stream, so a path is a pure
// function of the stream's (seed, stream-index) identity; the Monte-Carlo
// estimator and the testbed route the same streams through this sampler,
// which is what keeps their traces bit-identical.
type Sampler struct {
	sel   *Selector
	alias *dist.Alias

	path []trace.NodeID // reused output buffer
	pool []int32        // dense-draw Fisher–Yates pool of indices, allocated on first use
	swap []int32        // a dense draw's swap partners, undone after the draw
	seen []int32        // sparse-draw open-addressed set, entries are id+1
	mask int            // len(seen)-1, a power of two minus one
}

// NewSampler builds a sampling arena for the selector's strategy.
func (s *Selector) NewSampler() (*Sampler, error) {
	a, err := dist.NewAlias(s.strategy.Length)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadStrategy, err)
	}
	_, hi := s.strategy.Length.Support()
	sp := &Sampler{
		sel:   s,
		alias: a,
		path:  make([]trace.NodeID, 0, hi),
	}
	if s.strategy.Kind == Simple {
		// The rejection set holds at most hi+1 entries (path plus sender);
		// size it to the next power of two ≥ 4x that for a ≤1/4 load factor.
		size := 4
		for size < 4*(hi+2) {
			size *= 2
		}
		sp.seen = make([]int32, size)
		sp.mask = size - 1
	}
	return sp, nil
}

// SampleLength draws a path length in O(1) from the alias table. Point
// masses (K == 1) consume no draws; all other distributions consume
// exactly two (column, then threshold), regardless of the outcome.
func (sp *Sampler) SampleLength(rng *stats.Stream) int {
	if sp.alias.K() == 1 {
		return sp.alias.Lo()
	}
	col := rng.Intn(sp.alias.K())
	return sp.alias.Draw(col, rng.Float64())
}

// SelectPath implements Figure 2: it draws a length, then the ordered
// intermediate nodes of a message from the given sender, into the
// sampler's reused buffer. The path never contains the receiver; a simple
// path holds no repeats and never the sender. The result is valid until
// the next SelectPath call; callers that retain paths must copy.
func (sp *Sampler) SelectPath(rng *stats.Stream, sender trace.NodeID) ([]trace.NodeID, error) {
	s := sp.sel
	if int(sender) < 0 || int(sender) >= s.n {
		return nil, fmt.Errorf("%w: %v in system of %d", ErrBadSender, sender, s.n)
	}
	l := sp.SampleLength(rng)
	if s.strategy.Kind == Complicated {
		return sp.complicated(rng, sender, l), nil
	}
	return sp.simple(rng, sender, l), nil
}

// simple samples l distinct intermediates uniformly from the n−1 nodes
// other than the sender. Sparse draws (l·16 ≤ n) reject repeats against
// the open-addressed set, so a draw is O(l) at any n; dense draws run a
// partial Fisher–Yates over the reused pool. Both make each next hop
// uniform over the not-yet-used nodes.
func (sp *Sampler) simple(rng *stats.Stream, sender trace.NodeID, l int) []trace.NodeID {
	s := sp.sel
	sp.path = sp.path[:0]
	if l*16 <= s.n {
		sp.clearSeen()
		sp.insertSeen(int32(sender))
		for len(sp.path) < l {
			v := int32(rng.Intn(s.n))
			if sp.insertSeen(v) {
				sp.path = append(sp.path, trace.NodeID(v))
			}
		}
		return sp.path
	}
	if sp.pool == nil {
		// Only dense draws use the O(n) pool, and a sparse system at
		// N = 10^6 never makes one, so it is allocated here, once, with
		// the swap record after it. It holds the indices 0..n−2 of the
		// nodes other than the sender, index k standing for node k below
		// the sender and node k+1 from it on, so one pool in ascending
		// order serves every sender.
		buf := make([]int32, s.n-1+cap(sp.path))
		sp.pool, sp.swap = buf[:s.n-1], buf[s.n-1:]
		for k := range sp.pool {
			sp.pool[k] = int32(k)
		}
	}
	for i := 0; i < l; i++ {
		j := i + rng.Intn(len(sp.pool)-i)
		sp.pool[i], sp.pool[j] = sp.pool[j], sp.pool[i]
		sp.swap[i] = int32(j)
		v := trace.NodeID(sp.pool[i])
		if v >= sender {
			v++
		}
		sp.path = append(sp.path, v)
	}
	// Undo the swaps, last first, which restores the ascending pool.
	for i := l - 1; i >= 0; i-- {
		j := sp.swap[i]
		sp.pool[i], sp.pool[j] = sp.pool[j], sp.pool[i]
	}
	return sp.path
}

// complicated picks each hop uniformly among all nodes except the one
// currently holding the message, so cycles, and returns through the
// sender, are possible: the Crowds and Onion Routing II route shape.
func (sp *Sampler) complicated(rng *stats.Stream, sender trace.NodeID, l int) []trace.NodeID {
	s := sp.sel
	sp.path = sp.path[:0]
	cur := sender
	for i := 0; i < l; i++ {
		next := trace.NodeID(rng.Intn(s.n - 1))
		if next >= cur {
			next++ // skip the current holder
		}
		sp.path = append(sp.path, next)
		cur = next
	}
	return sp.path
}

func (sp *Sampler) clearSeen() {
	for i := range sp.seen {
		sp.seen[i] = 0
	}
}

// insertSeen adds node id v to the set, reporting whether it was new.
// Entries are stored as v+1 so zero means empty.
func (sp *Sampler) insertSeen(v int32) bool {
	e := v + 1
	i := int(uint64(e)*0x9E3779B97F4A7C15>>32) & sp.mask
	for {
		switch sp.seen[i] {
		case 0:
			sp.seen[i] = e
			return true
		case e:
			return false
		}
		i = (i + 1) & sp.mask
	}
}
