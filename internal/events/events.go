// Package events implements the exact anonymity-degree engine of Guan et al.
// (ICDCS 2002): it partitions the observations a passive adversary can
// make on rerouting paths into equivalence classes, applies Bayes' rule over
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
// # Shape groups
//
// The class space grows as Θ(3^C), but a class's statistics depend on it
// only through its shape: k compromised, the minimum path length that can
// produce it, and its number of free gap variables. AnonymityDegree and the
// optimizer's Weights therefore fold the classes into O(min(C, L)³) shape
// groups with closed-form multiplicities (see family.go), exact for any
// C ≤ N−1. Every engine evaluates through the groups of its family — a
// fresh engine is a family of one, a Neighbor-derived one shares its
// source's — so an answer depends on the engine's configuration and the
// distribution alone, not on which engines were built or queried before.
package events

import (
	"errors"
	"fmt"
	"math"

	"anonmix/internal/combin"
	"anonmix/internal/dist"
	"anonmix/internal/entropy"
)

// Errors returned by the engine.
var (
	// ErrInvalidSystem reports inconsistent N/C parameters.
	ErrInvalidSystem = errors.New("events: invalid system parameters")
	// ErrSupportTooLong reports a path-length distribution whose support
	// exceeds N−1, the longest simple path in an N-node clique.
	ErrSupportTooLong = errors.New("events: path length support exceeds N-1 (simple paths)")
	// ErrTooManyClasses reports a compromised-node count beyond what the
	// inference mode models exactly: hop-count inference supports C ≤ 1.
	ErrTooManyClasses = errors.New("events: class space too large for exact enumeration")
	// ErrClassMismatch reports a class signature inconsistent with the
	// engine's system parameters.
	ErrClassMismatch = errors.New("events: class signature inconsistent with system")
)

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
// "[2]-1-[1]-t2+" for a 2-run, a one-node gap, a 1-run, and a wide tail.
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
	return s + "-t" + c.Tail.String()
}

// validate checks structural consistency of the signature.
func (c Class) validate() error {
	if c.Empty() {
		if len(c.Gaps) != 0 {
			return fmt.Errorf("%w: gaps without runs", ErrClassMismatch)
		}
		return nil
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
	// conclusion 4). Supported for C ≤ 1 with a compromised receiver, the
	// timing baseline (the exact-gap class space for larger C grows with
	// the support size; use the estimator there).
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
// distribution's exact mass fingerprint: degrees and weight vectors whole,
// and single-class statistics in a per-distribution StatsTable keyed by
// class shape. It is safe for concurrent use; cached results are
// bit-identical to fresh computation.
type Engine struct {
	n, c       int
	mode       InferenceMode
	receiver   bool // receiver compromised (paper default: true)
	selfReport bool // compromised sender identifies itself (paper default: true)

	// fam holds the per-distribution shape-group tables; New gives every
	// engine its own, and Neighbor shares it (see family.go).
	fam *family

	memo engineMemo
}

// Settings is an engine's configuration: the system size, the
// compromised count, and the adversary model its options select. It is
// comparable, so a cache can key engines on it and find a resident one
// without building anything.
type Settings struct {
	N, C int
	Mode InferenceMode
	// Receiver reports whether the receiver is compromised (the paper's
	// default; see WithUncompromisedReceiver).
	Receiver bool
	// SelfReport reports whether a compromised sender identifies itself
	// (the paper's default; see WithoutSenderSelfReport).
	SelfReport bool
}

// Option configures an Engine. Options are comparable values that apply
// to a Settings, so resolving them allocates nothing.
type Option struct {
	mode           InferenceMode
	setMode        bool
	honestReceiver bool
	noSelfReport   bool
}

// WithInference selects the adversary inference mode.
func WithInference(m InferenceMode) Option {
	return Option{mode: m, setMode: true}
}

// WithUncompromisedReceiver models a receiver outside the adversary's
// control: the receiver's predecessor report disappears, so the tail gap is
// observable only through run-successor == receiver adjacency. The paper
// assumes the receiver is compromised; this option exists to reproduce the
// log2(N) upper-bound case of §5.1 and for ablations.
func WithUncompromisedReceiver() Option {
	return Option{honestReceiver: true}
}

// WithoutSenderSelfReport models compromised nodes that cannot recognize
// messages originating at themselves (contrary to the paper's local-
// eavesdropper case). Provided for ablations.
func WithoutSenderSelfReport() Option {
	return Option{noSelfReport: true}
}

// Configure resolves opts over the paper's defaults — standard
// inference, a compromised receiver, a self-reporting sender — and
// validates the result: the Settings New(n, c, opts...) builds an engine
// for, or New's error.
func Configure(n, c int, opts ...Option) (Settings, error) {
	s := Settings{N: n, C: c, Mode: InferenceStandard, Receiver: true, SelfReport: true}
	for _, o := range opts {
		if o.setMode {
			s.Mode = o.mode
		}
		if o.honestReceiver {
			s.Receiver = false
		}
		if o.noSelfReport {
			s.SelfReport = false
		}
	}
	if err := s.validate(); err != nil {
		return Settings{}, err
	}
	return s, nil
}

// New returns an exact engine for an n-node system with c compromised
// nodes. The receiver is compromised in addition to the c nodes, matching
// the paper's threat model. Any c ≤ n is accepted: the shape groups are
// polynomial in c. At c = n the degenerate system has H* = 0
// (AnonymityDegree short-circuits).
func New(n, c int, opts ...Option) (*Engine, error) {
	s, err := Configure(n, c, opts...)
	if err != nil {
		return nil, err
	}
	return s.engine(&family{receiver: s.Receiver, hopCount: s.Mode == InferenceHopCount}), nil
}

// engine builds the engine s describes on the shape-group family fam.
func (s Settings) engine(fam *family) *Engine {
	return &Engine{n: s.N, c: s.C, mode: s.Mode, receiver: s.Receiver, selfReport: s.SelfReport, fam: fam}
}

// validate checks the system parameters and the inference mode's limits.
func (s Settings) validate() error {
	if s.N < 2 {
		return fmt.Errorf("%w: need at least 2 nodes, have %d", ErrInvalidSystem, s.N)
	}
	if s.C < 0 || s.C > s.N {
		return fmt.Errorf("%w: %d compromised of %d nodes", ErrInvalidSystem, s.C, s.N)
	}
	if s.Mode == InferenceHopCount {
		if s.C > 1 {
			return fmt.Errorf("%w: hop-count inference supports c ≤ 1, have %d", ErrTooManyClasses, s.C)
		}
		if !s.Receiver {
			return fmt.Errorf("%w: hop-count inference requires a compromised receiver (timing baseline)", ErrInvalidSystem)
		}
	}
	return nil
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

// statsForShape computes the Bayes mixture shared by every class with k
// compromised nodes and shape (base, free, nObs); k == 0 is the empty
// class. See the package comment for the derivation; the arrangement
// counts are small binomials (the number of free gap variables is at most
// C+2).
func (e *Engine) statsForShape(k, base, free, nObs int, d dist.Length) shapeStats {
	lo, hi := d.Support()
	hi = min(hi, e.n-1)
	w := make([]float64, hi+1)
	wRow(w, e.n, e.c, k)
	var sumP, sumP0 float64 // Σ_l p(l)·W(l,k)·A(l) and the g0=0 restriction
	for l := max(lo, base); l <= hi; l++ {
		p := d.PMF(l)
		if p == 0 || w[l] == 0 {
			continue
		}
		slack := l - base
		sumP += p * w[l] * starsAndBars(slack, free)
		sumP0 += p * w[l] * starsAndBars(slack, free-1)
	}
	st := shapeStats{rest: e.n - e.c - nObs}
	if sumP <= 0 {
		// Class unreachable under this distribution.
		return st
	}
	st.p = sumP
	st.alpha = min(sumP0/sumP, 1) // guard against rounding
	if k == 0 && !e.receiver {
		st.alpha = 0 // nothing observed: no spike
	}
	st.h = e.classEntropy(k, st.rest, st.alpha)
	return st
}

// classEntropy returns the entropy of the sender posterior of a class with k
// compromised nodes on the path, rest slab candidates, and spike alpha.
func (e *Engine) classEntropy(k, rest int, alpha float64) float64 {
	switch {
	case k == 0 && !e.receiver:
		// The empty class with an uncompromised receiver observes nothing:
		// the posterior is uniform over all non-compromised nodes (the
		// adversary's own nodes know they did not send).
		return entropy.Max(rest)
	case e.mode == InferenceFullPosition && k > 0:
		// Positions of the compromised reports are known exactly, so the
		// head gap g0 is known: with probability alpha the sender is
		// identified (g0 = 0), otherwise it is uniform over rest nodes.
		// With no compromised node on the path there is no report to
		// position, so the empty class falls through to the standard
		// spike-and-slab posterior.
		return (1 - alpha) * entropy.Max(rest)
	default:
		return entropy.SpikeAndSlab(alpha, rest)
	}
}

// wRow fills row[l] for l ≥ k with the position-set weight
// W(l,k) = P(C,k)·P(N−1−C, l−k)/P(N−1,l), and leaves it zero where no
// simple path exists. It is carried through the length loop by the
// multiplicative recurrence
//
//	W(k,k)   = Π_{i<k} (C−i)/(N−1−i)
//	W(l,k)   = W(l−1,k) · (N−1−C−(l−1−k)) / (N−1−(l−1))
//
// which stays in [0,1] for any system size (no overflow, no log/exp in the
// hot path).
func wRow(row []float64, n, c, k int) {
	if k >= len(row) {
		return
	}
	w := 1.0
	for i := 0; i < k; i++ {
		w *= float64(c-i) / float64(n-1-i)
	}
	row[k] = w
	for l := k + 1; l < len(row); l++ {
		num := float64(n - 1 - c - (l - 1 - k))
		if num <= 0 {
			break // more uncompromised slots than uncompromised nodes
		}
		w *= num / float64(n-1-(l-1))
		row[l] = w
	}
}

// wTable returns W(l,k) for k ≤ kMax and l ≤ hi as one row-major slice,
// row k at [k·(hi+1), (k+1)·(hi+1)) — the only per-(N, C) work of an
// aggregate query.
func wTable(n, c, kMax, hi int) []float64 {
	W := make([]float64, (kMax+1)*(hi+1))
	for k := 0; k <= kMax; k++ {
		wRow(W[k*(hi+1):(k+1)*(hi+1)], n, c, k)
	}
	return W
}

// shape returns, for a class, the minimum path length that can produce it
// (base), the number of free non-negative gap variables including the head
// gap g0 (free ≥ 1), and the number of observed uncompromised witness nodes
// (nObs, the head predecessor included).
func (e *Engine) shape(cl Class) (base, free, nObs int) {
	var one, wide int
	for _, g := range cl.Gaps {
		switch g {
		case GapOne:
			one++
		case GapWide:
			wide++
		}
	}
	return standardShape(cl.K(), one, wide, cl.Tail, e.receiver)
}

// standardShape is shape for a flag-based class with k compromised nodes
// whose runs meet at `one` one-node junctions and `wide` wider ones, and
// whose tail is flagged tail; k == 0 is the empty class, whose counts and
// tail are ignored. It is the one place the shape arithmetic lives:
// shape derives the counts from a Class, StatsTable.ShapeStats takes them
// from a caller that counted them along a path, and the shape groups
// invert it (family.go).
//
// nObs counts every uncompromised node whose identity the adversary has
// seen: the predecessor of the first run (the sender candidate), junction
// witnesses (one for GapOne, two for GapWide), and tail witnesses. For the
// empty class it is 1 when the receiver reports a predecessor, 0 otherwise.
func standardShape(k, one, wide int, tail TailFlag, receiver bool) (base, free, nObs int) {
	if k == 0 {
		if receiver {
			return 0, 1, 1
		}
		return 0, 1, 0
	}
	tb, tf, to := tailShape(tail)
	// The head gap g0 is free, then one gap per wide junction; the
	// predecessor of the first run is observed, then the junctions'.
	return k + one + 2*wide + tb, 1 + wide + tf, 1 + one + 2*wide + to
}

// tailShape returns what a tail flag adds to a class's minimum length,
// free gap count and witness count.
func tailShape(tail TailFlag) (base, free, nObs int) {
	switch tail {
	case TailOne:
		return 1, 0, 1
	case TailWide:
		return 2, 1, 2
	case TailUnobserved:
		// Uncompromised receiver: the gap is known only to be ≥ 1; its
		// single closest witness (the run's successor) is observed.
		return 1, 1, 1
	default:
		// TailZero: the last intermediate is compromised, and the
		// receiver's predecessor is that node.
		return 0, 0, 0
	}
}

// starsAndBars returns the number of ways to write slack as an ordered sum
// of vars non-negative integers, in linear space (the engine's free-variable
// counts are tiny, so the binomial is exact in a float64). It is served
// from the process-wide table in internal/combin.
func starsAndBars(slack, vars int) float64 {
	return combin.StarsAndBars(slack, vars)
}

// ClassWeights holds, for one shape group of observation classes, the
// linear weight vectors that make the anonymity degree a sum of
// linear-fractional terms in the path-length mass function p:
//
//	P_σ(p)  = Σ_l W[l−lo]·p(l)        (per-class probability)
//	P0_σ(p) = Σ_l W0[l−lo]·p(l)       (g0 = 0 restriction)
//	α_σ     = P0_σ/P_σ
//	H*(p)   = (N−C)/N · Σ_σ Count_σ·P_σ·f(α_σ, Rest)
//
// with f the spike-and-slab entropy (or its full-position variant). The
// optimizer uses this decomposition for exact analytic gradients.
//
// One entry covers a whole shape group of Count classes sharing the same
// per-class vectors, so the objective and its gradient must weight each
// entry's contribution by Count.
type ClassWeights struct {
	// Count is the group multiplicity: the number of concrete classes
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

// Weights returns the weight vectors for path lengths in [lo, hi], one
// entry per shape group of a distribution whose support ends at hi — the
// groups AnonymityDegree folds — which keeps the decomposition polynomial
// for any C. hi must not exceed N−1. The returned weight vectors are
// shared with the engine's cache and must be treated as read-only.
func (e *Engine) Weights(lo, hi int) ([]ClassWeights, error) {
	if lo < 0 || hi < lo || hi > e.n-1 {
		return nil, fmt.Errorf("%w: weight range [%d,%d] with N=%d", ErrInvalidSystem, lo, hi, e.n)
	}
	key := weightKey{lo, hi}
	if w, ok := e.memo.loadWeights(key); ok {
		return append([]ClassWeights(nil), w...), nil
	}
	kMax := min(e.c, hi)
	groups := e.fam.appendGroups(nil, 0, kMax, hi)
	W := wTable(e.n, e.c, kMax, hi)
	out := make([]ClassWeights, len(groups))
	span := hi - lo + 1
	vec := make([]float64, 2*span*len(groups))
	for i := range groups {
		g := &groups[i]
		cw := &out[i]
		*cw = ClassWeights{
			Count:          g.count,
			Rest:           e.n - e.c - g.nObs,
			FullPosition:   e.mode == InferenceFullPosition && g.k > 0,
			UniformOverAll: g.k == 0 && !e.receiver,
			W:              vec[2*i*span : (2*i+1)*span : (2*i+1)*span],
			W0:             vec[(2*i+1)*span : (2*i+2)*span : (2*i+2)*span],
			Lo:             lo,
		}
		row := W[g.k*(hi+1) : (g.k+1)*(hi+1)]
		for l := max(lo, g.base); l <= hi; l++ {
			if w := row[l]; w != 0 {
				cw.W[l-lo] = w * starsAndBars(l-g.base, g.free)
				cw.W0[l-lo] = w * starsAndBars(l-g.base, g.free-1)
			}
		}
	}
	e.memo.storeWeights(key, out)
	return append([]ClassWeights(nil), out...), nil
}

// AnonymityDegree returns H*(S) (Formula 5): the expected posterior entropy
// over all observation classes, including the C/N branch in which the
// sender itself is compromised and immediately identified. It folds the
// family's shape groups for d: one W(l, k) table for the engine's (N, C),
// then a dot product and one entropy per group, O(min(C, L)³·L) for any
// C ≤ N−1.
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
	var stack [keyStack]byte
	buf := appendDistKey(stack[:0], d)
	if h, ok := e.memo.loadDegree(buf); ok {
		return h, nil
	}
	key := string(buf)
	_, hi := d.Support()
	kMax := min(e.c, hi)
	groups := e.fam.table(key, d, hi, kMax)
	W := wTable(e.n, e.c, kMax, hi)
	var total, h float64
	for i := range groups {
		g := &groups[i]
		if g.k > kMax {
			break // k-major order: every later group is out of range too
		}
		sumP, sumP0 := g.mass(W[g.k*(hi+1):(g.k+1)*(hi+1)], e, d)
		if sumP <= 0 {
			continue // group unreachable under this distribution
		}
		total += sumP
		alpha := min(sumP0/sumP, 1) // guard against rounding
		h += sumP * e.classEntropy(g.k, e.n-e.c-g.nObs, alpha)
	}
	if math.Abs(total-1) > 1e-6 {
		return 0, fmt.Errorf("events: class probabilities sum to %v, want 1 (internal accounting bug)", total)
	}
	frac := float64(e.n-e.c) / float64(e.n)
	if !e.selfReport {
		// Ablation: a compromised sender is *not* self-identified; it
		// behaves like an uncompromised one. The honest-sender analysis
		// then applies to all N senders.
		//
		// This is an approximation: the compromised sender's first-hop
		// report changes the observation slightly. Only this exact
		// backend computes the ablation (the sampled backends refuse it),
		// and nothing checks the approximation yet (see ROADMAP).
		frac = 1
	}
	h *= frac
	e.memo.storeDegree(key, h)
	return h, nil
}
