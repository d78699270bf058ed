// Package crowds implements the Crowds protocol of Reiter and Rubin (1998)
// as surveyed in §2 of Guan et al.: each jondo, upon receiving a request,
// forwards it to a uniformly random jondo with probability pf and submits
// it to the receiver otherwise, producing the geometric path-length
// distribution of the paper's Formula (12) with cycles allowed.
//
// The package also provides the classical predecessor analysis: the
// probability that the node a collaborator first sees is the true
// initiator, the probable-innocence condition, and the entropy of the
// resulting posterior — the baseline against which the paper's exact
// simple-path analysis is compared.
package crowds

import (
	"errors"
	"fmt"
	"math"

	"anonmix/internal/combin"
	"anonmix/internal/entropy"
	"anonmix/internal/simnet"
	"anonmix/internal/stats"
	"anonmix/internal/trace"
)

// ErrBadParam reports an out-of-domain protocol parameter.
var ErrBadParam = errors.New("crowds: invalid parameter")

// Forwarder implements the jondo forwarding rule on the simnet testbed.
// Every draw is a pure function of the seed and the hop it decides: a
// message's first hop draws from the counter-based stream keyed by its
// injection index, and each later hop from the one keyed by (message,
// Packet.Hops) — so a run replays exactly under any shard scheduling, as
// the kernel's jitter and loss draws do. It holds no mutable state and is
// safe for concurrent use by the testbed's shards.
type Forwarder struct {
	n  int
	pf float64
	// first and hop seed the two stream families: first hops by injection
	// index, later hops by (message, hop).
	first, hop int64
}

// NewForwarder returns a Crowds forwarder for n jondos with forwarding
// probability pf ∈ [0, 1), drawing under seed.
func NewForwarder(n int, pf float64, seed int64) (*Forwarder, error) {
	if n < 2 {
		return nil, fmt.Errorf("%w: n = %d", ErrBadParam, n)
	}
	if pf < 0 || pf >= 1 || math.IsNaN(pf) {
		return nil, fmt.Errorf("%w: pf = %v", ErrBadParam, pf)
	}
	return &Forwarder{n: n, pf: pf, first: stats.ForkSeed(seed, 1), hop: stats.ForkSeed(seed, 2)}, nil
}

// Next implements simnet.Forwarder: with probability pf the packet goes to
// a uniformly random jondo (possibly this one — Reiter–Rubin allow
// self-selection), otherwise to the receiver.
func (f *Forwarder) Next(_ trace.NodeID, pkt *simnet.Packet) (trace.NodeID, error) {
	rng := stats.NewStream(stats.ForkSeed(f.hop, int64(pkt.Msg)), int64(pkt.Hops()))
	if rng.Float64() >= f.pf {
		return trace.Receiver, nil
	}
	return trace.NodeID(rng.Intn(f.n)), nil
}

// FirstHop draws the initiator's mandatory first forwarding choice (the
// initiator always forwards at least once; the coin applies afterwards)
// for the message injected as the injection-th of the run, counting from
// 0. Like every hop, the choice is uniform over all jondos. The draw is
// keyed by the injection index because the kernel assigns the message ID
// only when the message is injected.
func (f *Forwarder) FirstHop(injection int) trace.NodeID {
	rng := stats.NewStream(f.first, int64(injection))
	return trace.NodeID(rng.Intn(f.n))
}

// PredecessorProb returns the probability that the immediate predecessor
// observed by the first collaborating jondo on a path is the true
// initiator, conditioned on at least one collaborator joining the path
// (Reiter–Rubin's P(H1 | H1+)):
//
//	P = 1 − pf·(n−c−1)/n
//
// derived for n jondos of which c collaborate and forwarding probability
// pf, with the uniform next-jondo choice over all n members.
func PredecessorProb(n, c int, pf float64) (float64, error) {
	if n < 2 || c < 0 || c >= n {
		return 0, fmt.Errorf("%w: n=%d c=%d", ErrBadParam, n, c)
	}
	if pf < 0 || pf >= 1 || math.IsNaN(pf) {
		return 0, fmt.Errorf("%w: pf=%v", ErrBadParam, pf)
	}
	return 1 - pf*float64(n-c-1)/float64(n), nil
}

// ProbableInnocence reports whether the configuration satisfies
// Reiter–Rubin probable innocence: the first collaborator's predecessor is
// the initiator with probability at most 1/2, which requires pf > 1/2 and
//
//	n ≥ pf/(pf − 1/2) · (c + 1).
func ProbableInnocence(n, c int, pf float64) (bool, error) {
	p, err := PredecessorProb(n, c, pf)
	if err != nil {
		return false, err
	}
	return p <= 0.5, nil
}

// EventEntropy returns the Shannon entropy (bits) of the sender posterior
// given the first-collaborator observation: the predecessor carries
// PredecessorProb and the remaining mass spreads over the other n−c−1
// honest jondos.
func EventEntropy(n, c int, pf float64) (float64, error) {
	p, err := PredecessorProb(n, c, pf)
	if err != nil {
		return 0, err
	}
	return entropy.SpikeAndSlab(p, n-c-1), nil
}

// OnPathProb returns the probability that at least one of c collaborators
// appears among the l distinct intermediates of a simple rerouting path
// drawn by an honest sender in an n-node system:
//
//	1 − C(n−1−c, l)/C(n−1, l)
//
// evaluated through the shared log-combinatorics table. This is the bridge
// between the Crowds predecessor analysis and the paper's simple-path
// model: it is the weight of the "adversary sees a relay report" branch
// that the class engine refines into run/gap signatures.
func OnPathProb(n, c, l int) (float64, error) {
	if n < 2 || c < 0 || c >= n {
		return 0, fmt.Errorf("%w: n=%d c=%d", ErrBadParam, n, c)
	}
	if l < 0 || l > n-1 {
		return 0, fmt.Errorf("%w: path length %d outside [0,%d]", ErrBadParam, l, n-1)
	}
	if l > n-1-c {
		return 1, nil // more intermediates than honest nodes: a hit is forced
	}
	miss := math.Exp(combin.LogChoose(n-1-c, l) - combin.LogChoose(n-1, l))
	return 1 - miss, nil
}

// SimulatePredecessor estimates P(H1 | H1+) by direct protocol simulation:
// it walks random Crowds paths and reports the fraction of paths, among
// those visiting at least one collaborator, whose first collaborator saw
// the initiator as predecessor. Collaborators are jondos 0..c−1; the
// initiator is drawn from the honest jondos.
func SimulatePredecessor(n, c int, pf float64, trials int, seed int64) (float64, error) {
	if _, err := PredecessorProb(n, c, pf); err != nil {
		return 0, err
	}
	if trials <= 0 {
		return 0, fmt.Errorf("%w: trials = %d", ErrBadParam, trials)
	}
	rng := stats.NewRand(seed)
	var hits, events int
	for t := 0; t < trials; t++ {
		initiator := trace.NodeID(c + rng.Intn(n-c))
		pred := initiator
		cur := trace.NodeID(rng.Intn(n)) // initiator's first uniform choice
		for {
			if int(cur) < c {
				events++
				if pred == initiator {
					hits++
				}
				break
			}
			if rng.Float64() >= pf {
				break // submitted to the receiver
			}
			pred = cur
			cur = trace.NodeID(rng.Intn(n))
		}
	}
	if events == 0 {
		return 0, nil
	}
	return float64(hits) / float64(events), nil
}

// Interface compliance.
var _ simnet.Forwarder = (*Forwarder)(nil)
