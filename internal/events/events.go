// Package events implements the exact anonymity-degree engine of Guan et al.
// (ICDCS 2002): it enumerates the equivalence classes of observations a
// passive adversary can make on rerouting paths, applies Bayes' rule over
// the unknown path length and head gap (the paper's Formulas 7–8), and
// computes the anonymity degree H*(S) = Σ_e H(e)·P(e) (Formulas 4–6).
//
// # Observation classes
//
// A rerouting path a0 → a1 → … → al → R with sender a0 and compromised node
// set K induces an observation: every compromised intermediate reports its
// (predecessor, successor), the compromised receiver reports its
// predecessor, and off-path compromised nodes report silence. Because
// intermediate nodes of a simple path are an exchangeable uniform sample,
// the posterior entropy depends on the outcome only through a small
// *class* signature:
//
//   - the ordered lengths of maximal runs of compromised positions,
//   - for each junction between consecutive runs, whether the gap is exactly
//     one node (the reports name the same witness) or at least two,
//   - the tail gap between the last run and the receiver (0, 1, or ≥2), and
//   - the unobservable head gap g0 between the sender and the first run —
//     whose posterior P(g0 = 0 | class) is exactly the adversary's
//     confidence that the first observed predecessor is the sender.
//
// For each class, stars-and-bars counts give the number of position
// arrangements with and without g0 = 0, and a Bayes mixture over the path
// length distribution yields the spike-and-slab sender posterior whose
// entropy is H(e). Everything is exact (log-space combinatorics); no
// sampling is involved.
//
// # Counted buckets
//
// The class space grows as Θ(3^C), but every statistic above depends on a
// class only through its shape (k compromised, m runs, j₂ wide junctions,
// tail flag), so aggregate queries — AnonymityDegree, BucketStats, and the
// optimizer's Weights — collapse the enumeration into O(min(C, L)³) shape
// buckets with closed-form multiplicities C(k−1,m−1)·C(m−1,j₂) (see
// aggregate.go). Those paths are exact for any C ≤ N−1; only the per-class
// APIs (ClassStats, Enumerate) keep the enumeration and its C ≤ 12 bound.
package events

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"anonmix/internal/combin"
	"anonmix/internal/dist"
	"anonmix/internal/entropy"
	"anonmix/internal/pool"
)

// Errors returned by the engine.
var (
	// ErrInvalidSystem reports inconsistent N/C parameters.
	ErrInvalidSystem = errors.New("events: invalid system parameters")
	// ErrSupportTooLong reports a path-length distribution whose support
	// exceeds N−1, the longest simple path in an N-node clique.
	ErrSupportTooLong = errors.New("events: path length support exceeds N-1 (simple paths)")
	// ErrTooManyClasses reports a compromised-node count whose class space
	// is too large to enumerate class-by-class. The bucketed aggregates
	// (AnonymityDegree, BucketStats, Weights) and single-class StatsFor
	// have no such limit.
	ErrTooManyClasses = errors.New("events: class space too large for exact enumeration")
	// ErrClassMismatch reports a class signature inconsistent with the
	// engine's system parameters.
	ErrClassMismatch = errors.New("events: class signature inconsistent with system")
)

// maxCompromisedEnumerate bounds the per-class enumeration (ClassStats and
// the hop-count paths): the concrete class space grows as Θ(3^C). The
// bucketed aggregates in aggregate.go are polynomial and unbounded.
const maxCompromisedEnumerate = 12

// GapFlag classifies the observable size of the gap between two consecutive
// compromised runs on a path.
type GapFlag uint8

// Gap flag values.
const (
	// GapOne marks a junction bridged by exactly one uncompromised node:
	// the successor reported by one run equals the predecessor reported by
	// the next.
	GapOne GapFlag = iota + 1
	// GapWide marks a junction with at least two uncompromised nodes.
	GapWide
)

// String returns a compact rendering of the flag.
func (g GapFlag) String() string {
	switch g {
	case GapOne:
		return "1"
	case GapWide:
		return "2+"
	default:
		return fmt.Sprintf("GapFlag(%d)", uint8(g))
	}
}

// TailFlag classifies the observable gap between the last compromised run
// and the receiver.
type TailFlag uint8

// Tail flag values.
const (
	// TailZero marks a path whose last intermediate node is compromised
	// (its reported successor is the receiver).
	TailZero TailFlag = iota + 1
	// TailOne marks exactly one uncompromised node before the receiver:
	// the last run's successor equals the receiver's predecessor.
	TailOne
	// TailWide marks at least two uncompromised nodes before the receiver.
	TailWide
	// TailUnobserved is used when the receiver is not compromised: only
	// adjacency to the receiver (successor == R) remains observable, so
	// TailOne and TailWide collapse into this flag.
	TailUnobserved
)

// String returns a compact rendering of the flag.
func (t TailFlag) String() string {
	switch t {
	case TailZero:
		return "0"
	case TailOne:
		return "1"
	case TailWide:
		return "2+"
	case TailUnobserved:
		return "?"
	default:
		return fmt.Sprintf("TailFlag(%d)", uint8(t))
	}
}

// Class is the observable equivalence class of a path outcome. The zero
// value (no runs) is the class in which no compromised node lies on the
// path and the adversary sees only the receiver's report (if any).
type Class struct {
	// Runs holds the ordered lengths of maximal consecutive groups of
	// compromised intermediate positions. Empty means no compromised node
	// on the path.
	Runs []int
	// Gaps holds one flag per junction between consecutive runs
	// (len(Gaps) == len(Runs)−1 when len(Runs) > 0).
	Gaps []GapFlag
	// Tail classifies the gap between the last run and the receiver.
	// Unused when Runs is empty.
	Tail TailFlag
	// ExactTail carries the exact tail gap under InferenceHopCount
	// (timing reveals the hop distance from the last run to the
	// receiver), encoded as gap+1 so the zero value means "unobserved"
	// (the standard model). Use ExactTailGap / NewHopCountClass rather
	// than touching the encoding directly.
	ExactTail int
}

// ExactTailGap returns the exact tail gap and whether it is observed.
func (c Class) ExactTailGap() (int, bool) {
	if c.ExactTail <= 0 {
		return 0, false
	}
	return c.ExactTail - 1, true
}

// NewHopCountClass returns the C = 1 hop-count-adversary class: one
// compromised node observed exactly t hops before the receiver.
func NewHopCountClass(t int) (Class, error) {
	if t < 0 {
		return Class{}, fmt.Errorf("%w: tail gap %d", ErrClassMismatch, t)
	}
	tail := TailWide
	switch t {
	case 0:
		tail = TailZero
	case 1:
		tail = TailOne
	}
	return Class{Runs: []int{1}, Tail: tail, ExactTail: t + 1}, nil
}

// K returns the number of compromised intermediate nodes in the class.
func (c Class) K() int {
	var k int
	for _, r := range c.Runs {
		k += r
	}
	return k
}

// Empty reports whether no compromised node lies on the path.
func (c Class) Empty() bool { return len(c.Runs) == 0 }

// String renders the class in a compact run/gap notation, e.g.
// "[2]-1-[1]-t2+" for a 2-run, a one-node gap, a 1-run, and a wide tail;
// exact hop-count tails render as "-t=3".
func (c Class) String() string {
	if c.Empty() {
		return "[none]"
	}
	s := ""
	for i, r := range c.Runs {
		if i > 0 {
			s += fmt.Sprintf("-%s-", c.Gaps[i-1])
		}
		s += fmt.Sprintf("[%d]", r)
	}
	if t, ok := c.ExactTailGap(); ok {
		return s + fmt.Sprintf("-t=%d", t)
	}
	return s + "-t" + c.Tail.String()
}

// validate checks structural consistency of the signature.
func (c Class) validate() error {
	if c.Empty() {
		if len(c.Gaps) != 0 {
			return fmt.Errorf("%w: gaps without runs", ErrClassMismatch)
		}
		if _, ok := c.ExactTailGap(); ok {
			return fmt.Errorf("%w: exact tail without runs", ErrClassMismatch)
		}
		return nil
	}
	if t, ok := c.ExactTailGap(); ok {
		if len(c.Runs) != 1 || c.Runs[0] != 1 {
			return fmt.Errorf("%w: exact tail needs a single length-1 run", ErrClassMismatch)
		}
		want := TailWide
		switch t {
		case 0:
			want = TailZero
		case 1:
			want = TailOne
		}
		if c.Tail != want {
			return fmt.Errorf("%w: exact tail %d inconsistent with flag %v", ErrClassMismatch, t, c.Tail)
		}
	}
	if len(c.Gaps) != len(c.Runs)-1 {
		return fmt.Errorf("%w: %d runs need %d gap flags, have %d",
			ErrClassMismatch, len(c.Runs), len(c.Runs)-1, len(c.Gaps))
	}
	for _, r := range c.Runs {
		if r < 1 {
			return fmt.Errorf("%w: run length %d", ErrClassMismatch, r)
		}
	}
	for _, g := range c.Gaps {
		if g != GapOne && g != GapWide {
			return fmt.Errorf("%w: gap flag %v", ErrClassMismatch, g)
		}
	}
	switch c.Tail {
	case TailZero, TailOne, TailWide, TailUnobserved:
		return nil
	default:
		return fmt.Errorf("%w: tail flag %v", ErrClassMismatch, c.Tail)
	}
}

// InferenceMode selects how much information the adversary extracts from
// its observations. The default, InferenceStandard, grants everything the
// paper's threat model (§4) makes available to a passive adversary with
// store-and-forward timing: report ordering and node-identity correlation
// across reports. InferenceFullPosition additionally grants the exact
// position of every compromised node on the path (a hop-count/timing
// oracle), which is strictly stronger; it is provided for ablation studies
// of how inference strength moves the long-path-effect peak.
type InferenceMode uint8

// Inference modes.
const (
	// InferenceStandard is the paper-faithful passive adversary.
	InferenceStandard InferenceMode = iota + 1
	// InferenceFullPosition reveals exact on-path positions (ablation).
	InferenceFullPosition
	// InferenceHopCount reveals, via timing, the exact hop distance from
	// each observation point to the receiver — but not the distance from
	// the hidden sender. For fixed-length strategies this equals
	// InferenceFullPosition (the length is known, so positions follow);
	// for variable-length strategies the sender-side gap stays uncertain,
	// which is exactly why variable lengths are more robust (paper
	// conclusion 4). Supported for C ≤ 1 (the exact-gap class space for
	// larger C grows with the support size; use the estimator there).
	InferenceHopCount
)

// String names the mode.
func (m InferenceMode) String() string {
	switch m {
	case InferenceStandard:
		return "standard"
	case InferenceFullPosition:
		return "full-position"
	case InferenceHopCount:
		return "hop-count"
	default:
		return fmt.Sprintf("InferenceMode(%d)", uint8(m))
	}
}

// Engine computes exact anonymity degrees for a rerouting-based anonymous
// communication system with n nodes of which c are compromised.
//
// The engine memoizes its results per length distribution, keyed by the
// distribution's exact mass fingerprint: the aggregate and per-class
// vectors whole, and single-class statistics in a per-distribution
// StatsTable keyed by class shape. It is safe for concurrent use; cached
// results are bit-identical to fresh computation.
type Engine struct {
	n, c       int
	mode       InferenceMode
	receiver   bool // receiver compromised (paper default: true)
	selfReport bool // compromised sender identifies itself (paper default: true)

	// fam, when set, shares per-distribution shape tables with every
	// engine this one was Neighbor-derived from or to (see family.go).
	fam atomic.Pointer[family]

	memo engineMemo
}

// Option configures an Engine.
type Option func(*Engine)

// WithInference selects the adversary inference mode.
func WithInference(m InferenceMode) Option {
	return func(e *Engine) { e.mode = m }
}

// WithUncompromisedReceiver models a receiver outside the adversary's
// control: the receiver's predecessor report disappears, so the tail gap is
// observable only through run-successor == receiver adjacency. The paper
// assumes the receiver is compromised; this option exists to reproduce the
// log2(N) upper-bound case of §5.1 and for ablations.
func WithUncompromisedReceiver() Option {
	return func(e *Engine) { e.receiver = false }
}

// WithoutSenderSelfReport models compromised nodes that cannot recognize
// messages originating at themselves (contrary to the paper's local-
// eavesdropper case). Provided for ablations.
func WithoutSenderSelfReport() Option {
	return func(e *Engine) { e.selfReport = false }
}

// New returns an exact engine for an n-node system with c compromised
// nodes. The receiver is compromised in addition to the c nodes, matching
// the paper's threat model. Any c ≤ n is accepted: the aggregate queries
// run on the counted-bucket engine, which is polynomial in c; only the
// per-class ClassStats enumeration keeps a small-c bound. At c = n the
// degenerate system has H* = 0 (AnonymityDegree short-circuits), but the
// per-class partition, which conditions on an uncompromised sender, is
// undefined and ClassStats/BucketStats report an accounting error.
func New(n, c int, opts ...Option) (*Engine, error) {
	if n < 2 {
		return nil, fmt.Errorf("%w: need at least 2 nodes, have %d", ErrInvalidSystem, n)
	}
	if c < 0 || c > n {
		return nil, fmt.Errorf("%w: %d compromised of %d nodes", ErrInvalidSystem, c, n)
	}
	e := &Engine{n: n, c: c, mode: InferenceStandard, receiver: true, selfReport: true}
	for _, o := range opts {
		o(e)
	}
	if e.mode == InferenceHopCount && c > 1 {
		return nil, fmt.Errorf("%w: hop-count inference supports c ≤ 1, have %d", ErrTooManyClasses, c)
	}
	return e, nil
}

// N returns the number of nodes in the system.
func (e *Engine) N() int { return e.n }

// C returns the number of compromised nodes.
func (e *Engine) C() int { return e.c }

// Mode returns the adversary inference mode.
func (e *Engine) Mode() InferenceMode { return e.mode }

// ReceiverCompromised reports whether the receiver is part of the
// adversary (the paper's default; see WithUncompromisedReceiver).
func (e *Engine) ReceiverCompromised() bool { return e.receiver }

// SenderSelfReport reports whether a compromised sender identifies itself
// (the paper's local-eavesdropper default; see WithoutSenderSelfReport).
func (e *Engine) SenderSelfReport() bool { return e.selfReport }

// MaxAnonymity returns the upper bound log2(N) on the anonymity degree
// (paper §5.1 and conclusion 4).
func (e *Engine) MaxAnonymity() float64 { return entropy.Max(e.n) }

// Stats aggregates everything the engine knows about one observation class
// under a given path-length distribution.
type Stats struct {
	// Class is the observation signature.
	Class Class
	// P is the probability of observing the class, conditioned on the
	// sender not being compromised.
	P float64
	// Alpha is the posterior probability that the predecessor of the first
	// observed entity (first run, or the receiver when no run exists) is
	// the true sender — P(g0 = 0 | class) via the paper's Formulas (7)–(8).
	Alpha float64
	// Rest is the number of unobserved, uncompromised nodes that share the
	// remaining 1−Alpha posterior mass uniformly.
	Rest int
	// H is the Shannon entropy (bits) of the sender posterior for this
	// class under the engine's inference mode.
	H float64
}

// checkDist validates a distribution against the engine's system size.
func (e *Engine) checkDist(d dist.Length) error {
	if d == nil {
		return fmt.Errorf("%w: nil distribution", ErrInvalidSystem)
	}
	if err := dist.Validate(d); err != nil {
		return err
	}
	_, hi := d.Support()
	if hi > e.n-1 {
		return fmt.Errorf("%w: support max %d, N-1 = %d", ErrSupportTooLong, hi, e.n-1)
	}
	return nil
}

// ClassStats enumerates every observation class and returns its statistics
// under the path-length distribution d. The returned probabilities sum to 1
// (over the sender-not-compromised branch); this invariant is verified and
// an error is returned if it fails, since it would indicate a combinatorial
// accounting bug. The concrete class space grows as Θ(3^C), so ClassStats
// returns ErrTooManyClasses beyond C = 12; use BucketStats for the
// polynomial aggregate view at any C.
func (e *Engine) ClassStats(d dist.Length) ([]Stats, error) {
	if err := e.checkDist(d); err != nil {
		return nil, err
	}
	return e.classStatsKeyed(distKey(d), d)
}

// classStatsKeyed is ClassStats after validation, with the memo key already
// computed (AnonymityDegree reuses its own key here).
func (e *Engine) classStatsKeyed(key string, d dist.Length) ([]Stats, error) {
	if s, ok := e.memo.loadClassStats(key); ok {
		return append([]Stats(nil), s...), nil
	}
	_, hi := d.Support()
	classes, err := e.enumerate(hi)
	if err != nil {
		return nil, err
	}
	out := make([]Stats, len(classes))
	// Fan the per-class posteriors out over the shared worker pool. Each
	// task writes only its own slot, and the verification sum below runs
	// over the slots in class order, so the parallel path is bit-identical
	// to the serial one. Small class spaces (C = 1 has four classes) are
	// not worth the dispatch overhead.
	if len(classes) >= parallelClassThreshold {
		pool.ForEach(len(classes), func(i int) {
			out[i] = e.statsFor(classes[i], d)
		})
	} else {
		for i, cl := range classes {
			out[i] = e.statsFor(cl, d)
		}
	}
	var total float64
	for i := range out {
		total += out[i].P
	}
	if math.Abs(total-1) > 1e-6 {
		return nil, fmt.Errorf("events: class probabilities sum to %v, want 1 (internal accounting bug)", total)
	}
	e.memo.storeClassStats(key, out)
	return append([]Stats(nil), out...), nil
}

// parallelClassThreshold is the class-space size below which ClassStats
// and Weights stay serial (pool dispatch would cost more than the work).
const parallelClassThreshold = 64

// StatsFor returns the statistics of a single observation class under d.
// It is the entry point used by the simulation adversary, which reconstructs
// a Class from concrete tuple reports and needs the posterior spike Alpha
// and candidate count Rest to build the full sender posterior. It is a
// lookup through StatsTable(d); callers that query many classes under one
// distribution should resolve the table once instead.
func (e *Engine) StatsFor(cl Class, d dist.Length) (Stats, error) {
	t, err := e.StatsTable(d)
	if err != nil {
		return Stats{}, err
	}
	return t.StatsFor(cl)
}

// statsFor computes the Bayes mixture for one class from its compromised
// count and shape alone; see the package comment for the derivation.
func (e *Engine) statsFor(cl Class, d dist.Length) Stats {
	base, free, nObs := e.shape(cl)
	return e.statsForShape(cl.K(), base, free, nObs, d).stats(cl)
}

// statsForShape computes the Bayes mixture shared by every class with k
// compromised nodes and shape (base, free, nObs); k == 0 is the empty
// class.
//
// The position-set weight W(l,k) = P(C,k)·P(N−1−C, l−k)/P(N−1,l) is carried
// through the length loop by the multiplicative recurrence
//
//	W(k,k)   = Π_{i<k} (C−i)/(N−1−i)
//	W(l,k)   = W(l−1,k) · (N−1−C−(l−1−k)) / (N−1−(l−1))
//
// which stays in [0,1] for any system size (no overflow, no log/exp in the
// hot path). The arrangement counts are small binomials (the number of free
// gap variables is at most C+2).
func (e *Engine) statsForShape(k, base, free, nObs int, d dist.Length) shapeStats {
	lo, hi := d.Support()
	if hi > e.n-1 {
		hi = e.n - 1
	}
	w := 1.0
	for i := 0; i < k; i++ {
		w *= float64(e.c-i) / float64(e.n-1-i)
	}
	var sumP, sumP0 float64 // Σ_l p(l)·W(l,k)·A(l) and the g0=0 restriction
	for l := k; l <= hi; l++ {
		if l > k {
			num := float64(e.n - 1 - e.c - (l - 1 - k))
			if num <= 0 {
				break // more uncompromised slots than uncompromised nodes
			}
			w *= num / float64(e.n-1-(l-1))
		}
		if l < lo || l < base {
			continue
		}
		p := d.PMF(l)
		if p == 0 {
			continue
		}
		slack := l - base
		sumP += p * w * starsAndBars(slack, free)
		sumP0 += p * w * starsAndBars(slack, free-1)
	}

	st := shapeStats{rest: e.n - e.c - nObs}
	if sumP <= 0 {
		// Class unreachable under this distribution.
		return st
	}
	st.p = sumP
	st.alpha = sumP0 / sumP
	if st.alpha > 1 {
		st.alpha = 1 // guard against rounding
	}
	// The empty class with an uncompromised receiver observes nothing: the
	// posterior is uniform over all non-compromised nodes (the adversary's
	// own nodes know they did not send).
	if k == 0 && !e.receiver {
		st.alpha = 0
		st.rest = e.n - e.c
		st.h = entropy.Max(st.rest)
		return st
	}
	switch {
	case e.mode == InferenceFullPosition && k > 0:
		// Positions of the compromised reports are known exactly, so the
		// head gap g0 is known: with probability Alpha the sender is
		// identified (g0 = 0), otherwise it is uniform over Rest nodes.
		// With no compromised node on the path there is no report to
		// position, so the empty class falls through to the standard
		// spike-and-slab posterior.
		st.h = (1 - st.alpha) * entropy.Max(st.rest)
	default:
		st.h = entropy.SpikeAndSlab(st.alpha, st.rest)
	}
	return st
}

// shape returns, for a class, the minimum path length that can produce it
// (base), the number of free non-negative gap variables including the head
// gap g0 (free ≥ 1), and the number of observed uncompromised witness nodes
// (nObs, the head predecessor included). Hop-count classes are handled
// here; every other class goes through standardShape.
func (e *Engine) shape(cl Class) (base, free, nObs int) {
	if t, ok := cl.ExactTailGap(); ok && !cl.Empty() {
		// Hop-count class: one compromised node exactly t hops before the
		// receiver. Only the head gap g0 is free; the identity witnesses
		// are the predecessor, plus the successor when t ≥ 1, plus the
		// receiver's (distinct) predecessor when t ≥ 2.
		nObs = 1
		if t >= 1 {
			nObs++
		}
		if t >= 2 {
			nObs++
		}
		return 1 + t, 1, nObs
	}
	var one, wide int
	for _, g := range cl.Gaps {
		switch g {
		case GapOne:
			one++
		case GapWide:
			wide++
		}
	}
	return e.standardShape(cl.K(), one, wide, cl.Tail)
}

// standardShape is shape for a flag-based class with k compromised nodes
// whose runs meet at `one` one-node junctions and `wide` wider ones, and
// whose tail is flagged tail; k == 0 is the empty class, whose counts and
// tail are ignored. It is the one place the shape arithmetic lives:
// shape derives the counts from a Class, StatsTable.ShapeStats takes them
// from a caller that counted them along a path.
//
// nObs counts every uncompromised node whose identity the adversary has
// seen: the predecessor of the first run (the sender candidate), junction
// witnesses (one for GapOne, two for GapWide), and tail witnesses (none for
// TailZero, one for TailOne/TailUnobserved, two for TailWide). For the
// empty class it is 1 when the receiver reports a predecessor, 0 otherwise.
func (e *Engine) standardShape(k, one, wide int, tail TailFlag) (base, free, nObs int) {
	if k == 0 {
		if e.receiver {
			return 0, 1, 1
		}
		return 0, 1, 0
	}
	base = k + one + 2*wide
	free = 1 + wide         // head gap g0, then one per wide junction
	nObs = 1 + one + 2*wide // predecessor of the first run, then the junctions'
	switch tail {
	case TailZero:
		// Last intermediate is compromised; receiver's predecessor is it.
	case TailOne:
		base++
		nObs++
	case TailWide:
		base += 2
		free++
		nObs += 2
	case TailUnobserved:
		// Uncompromised receiver: gap known only to be ≥ 1; its single
		// closest witness (the run's successor) is observed.
		base++
		free++
		nObs++
	}
	return base, free, nObs
}

// starsAndBars returns the number of ways to write slack as an ordered sum
// of vars non-negative integers, in linear space (the engine's free-variable
// counts are tiny, so the binomial is exact in a float64). It is served
// from the process-wide table in internal/combin.
func starsAndBars(slack, vars int) float64 {
	return combin.StarsAndBars(slack, vars)
}

// ClassWeights holds, for one observation class, the linear weight vectors
// that make the anonymity degree a sum of linear-fractional terms in the
// path-length mass function p:
//
//	P_σ(p)  = Σ_l W[l−lo]·p(l)        (class probability)
//	P0_σ(p) = Σ_l W0[l−lo]·p(l)       (g0 = 0 restriction)
//	α_σ     = P0_σ/P_σ
//	H*(p)   = (N−C)/N · Σ_σ P_σ·f(α_σ, Rest)
//
// with f the spike-and-slab entropy (or its full-position variant). The
// optimizer uses this decomposition for exact analytic gradients.
//
// One entry covers a whole shape bucket of Count classes sharing the same
// per-class vectors, so the objective and its gradient must weight each
// entry's contribution by Count (the hop-count path enumerates concrete
// classes, with Count == 1).
type ClassWeights struct {
	// Class is the observation signature (a canonical bucket
	// representative on the bucketed path).
	Class Class
	// Count is the bucket multiplicity: the number of concrete classes
	// sharing these vectors. Always ≥ 1.
	Count float64
	// Rest is the slab candidate count for the class.
	Rest int
	// FullPosition selects the (1−α)·log2(Rest) entropy form.
	FullPosition bool
	// UniformOverAll marks the no-observation case (empty class with an
	// uncompromised receiver): entropy is the constant log2(N−C).
	UniformOverAll bool
	// W and W0 are indexed by l−Lo.
	W, W0 []float64
	// Lo is the first length the weight vectors cover.
	Lo int
}

// Weights returns the weight vectors for path lengths in [lo, hi]. hi must
// not exceed N−1. Under the standard and full-position modes the entries
// are shape buckets (one per bucket, with the multiplicity in Count),
// which keeps the decomposition polynomial for any C; hop-count inference
// enumerates its concrete classes with Count == 1.
// The returned weight vectors are shared with the engine's cache and must
// be treated as read-only.
func (e *Engine) Weights(lo, hi int) ([]ClassWeights, error) {
	if lo < 0 || hi < lo || hi > e.n-1 {
		return nil, fmt.Errorf("%w: weight range [%d,%d] with N=%d", ErrInvalidSystem, lo, hi, e.n)
	}
	key := weightKey{lo, hi}
	if w, ok := e.memo.loadWeights(key); ok {
		return append([]ClassWeights(nil), w...), nil
	}
	if e.mode != InferenceHopCount {
		out := e.bucketWeights(lo, hi)
		e.memo.storeWeights(key, out)
		return append([]ClassWeights(nil), out...), nil
	}
	classes, err := e.enumerate(hi)
	if err != nil {
		return nil, err
	}
	out := make([]ClassWeights, len(classes))
	build := func(i int) {
		cl := classes[i]
		base, free, nObs := e.shape(cl)
		out[i] = e.buildWeights(cl, 1, cl.K(), base, free, nObs, lo, hi)
	}
	if len(classes) >= parallelClassThreshold {
		pool.ForEach(len(classes), build)
	} else {
		for i := range classes {
			build(i)
		}
	}
	e.memo.storeWeights(key, out)
	return append([]ClassWeights(nil), out...), nil
}

// buildWeights constructs one weight entry from a class (or bucket
// representative), its multiplicity, and its precomputed shape. Both
// Weights paths funnel through it so the length-loop recurrence can never
// diverge between the enumerated and bucketed decompositions.
func (e *Engine) buildWeights(cl Class, count float64, k, base, free, nObs, lo, hi int) ClassWeights {
	cw := ClassWeights{
		Class:        cl,
		Count:        count,
		Rest:         e.n - e.c - nObs,
		FullPosition: e.mode == InferenceFullPosition && !cl.Empty(),
		Lo:           lo,
		W:            make([]float64, hi-lo+1),
		W0:           make([]float64, hi-lo+1),
	}
	if cl.Empty() && !e.receiver {
		cw.UniformOverAll = true
		cw.Rest = e.n - e.c
	}
	w := 1.0
	for i := 0; i < k; i++ {
		w *= float64(e.c-i) / float64(e.n-1-i)
	}
	for l := k; l <= hi; l++ {
		if l > k {
			num := float64(e.n - 1 - e.c - (l - 1 - k))
			if num <= 0 {
				break
			}
			w *= num / float64(e.n-1-(l-1))
		}
		if l < lo || l < base {
			continue
		}
		slack := l - base
		cw.W[l-lo] = w * starsAndBars(slack, free)
		cw.W0[l-lo] = w * starsAndBars(slack, free-1)
	}
	return cw
}

// AnonymityDegree returns H*(S) (Formula 5): the expected posterior entropy
// over all observation classes, including the C/N branch in which the
// sender itself is compromised and immediately identified. It runs on the
// counted-bucket engine (O(min(C, L)³·L), exact for any C ≤ N−1); only
// hop-count inference still enumerates its concrete classes.
func (e *Engine) AnonymityDegree(d dist.Length) (float64, error) {
	if err := e.checkDist(d); err != nil {
		return 0, err
	}
	if e.c == e.n {
		// Every node (the sender included) is compromised: the
		// sender-not-compromised branch is empty and H*(S) = 0. The
		// per-class partition below conditions on that empty branch, so
		// short-circuit rather than divide by zero mass.
		return 0, nil
	}
	key := distKey(d)
	if h, ok := e.memo.loadDegree(key); ok {
		return h, nil
	}
	var h float64
	if e.mode == InferenceHopCount {
		stats, err := e.classStatsKeyed(key, d)
		if err != nil {
			return 0, err
		}
		for _, st := range stats {
			h += st.P * st.H
		}
	} else if f := e.fam.Load(); f != nil {
		// Family member (Neighbor-derived, or the root of a derivation):
		// evaluate through the shared shape tables instead of rebuilding
		// the per-bucket length loops. See family.go.
		var err error
		if h, err = e.familyDegree(f, key, d); err != nil {
			return 0, err
		}
	} else {
		buckets, err := e.bucketStatsKeyed(key, d)
		if err != nil {
			return 0, err
		}
		for _, st := range buckets {
			h += st.P * st.H
		}
	}
	frac := float64(e.n-e.c) / float64(e.n)
	if !e.selfReport {
		// Ablation: a compromised sender is *not* self-identified; it
		// behaves like an uncompromised one. The honest-sender analysis
		// then applies to all N senders.
		//
		// This is an approximation used only for ablation: the compromised
		// sender's first-hop report changes the observation slightly; the
		// Monte-Carlo estimator handles it exactly.
		frac = 1
	}
	h *= frac
	e.memo.storeDegree(key, h)
	return h, nil
}

// enumerate returns the mode-appropriate class set for distributions whose
// support ends at hi.
func (e *Engine) enumerate(hi int) ([]Class, error) {
	if e.mode != InferenceHopCount {
		if e.c > maxCompromisedEnumerate {
			return nil, fmt.Errorf("%w: c = %d > %d (per-class enumeration; BucketStats and Weights aggregate any c)",
				ErrTooManyClasses, e.c, maxCompromisedEnumerate)
		}
		return enumerateShared(e.c, e.receiver), nil
	}
	if !e.receiver {
		return nil, fmt.Errorf("%w: hop-count inference requires a compromised receiver (timing baseline)", ErrInvalidSystem)
	}
	out := []Class{{}}
	if e.c == 0 {
		return out, nil
	}
	for t := 0; t < hi; t++ {
		cl, err := NewHopCountClass(t)
		if err != nil {
			return nil, err
		}
		out = append(out, cl)
	}
	return out, nil
}

// Enumerate returns every observation class for c compromised nodes:
// the empty class plus, for each k = 1..c, each ordered composition of k
// into runs, each assignment of junction flags, and each tail flag. With a
// compromised receiver the tail flags are {0, 1, 2+}; otherwise {0, ≥1}.
func Enumerate(c int, receiverCompromised bool) []Class {
	tails := []TailFlag{TailZero, TailOne, TailWide}
	if !receiverCompromised {
		tails = []TailFlag{TailZero, TailUnobserved}
	}
	out := []Class{{}} // the empty class
	var rec func(remaining int, runs []int, gaps []GapFlag)
	rec = func(remaining int, runs []int, gaps []GapFlag) {
		if len(runs) > 0 {
			for _, t := range tails {
				cl := Class{
					Runs: append([]int(nil), runs...),
					Gaps: append([]GapFlag(nil), gaps...),
					Tail: t,
				}
				out = append(out, cl)
			}
		}
		if remaining == 0 {
			return
		}
		for r := 1; r <= remaining; r++ {
			extRuns := append(append([]int(nil), runs...), r)
			if len(runs) == 0 {
				rec(remaining-r, extRuns, gaps)
				continue
			}
			for _, g := range []GapFlag{GapOne, GapWide} {
				rec(remaining-r, extRuns, append(append([]GapFlag(nil), gaps...), g))
			}
		}
	}
	rec(c, nil, nil)
	return out
}
