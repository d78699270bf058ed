// Package combin provides log-space combinatorial primitives used by the
// exact anonymity-degree engine: factorials, falling factorials, binomial
// coefficients, and stars-and-bars composition counts.
//
// All quantities are computed in natural-log space via math.Lgamma so that
// expressions such as P(C,k)·P(N−1−C, l−k)/P(N−1,l) remain representable for
// systems with hundreds of nodes and paths spanning the whole clique. Exact
// big-integer variants are provided for cross-validation in tests.
package combin

import (
	"math"
	"math/big"
	"sync"
	"sync/atomic"
)

// NegInf is the log-space representation of an impossible count (zero ways).
var negInf = math.Inf(-1)

// The process-wide log-factorial table. Every figure regeneration,
// optimizer solve, and Monte-Carlo batch evaluates the same small set of
// ln(n!) values thousands of times, so they are computed once and shared.
// Reads are lock-free (atomic pointer load); growth is serialized by a
// mutex and monotone — a stored table is never shrunk or mutated, only
// replaced by a longer copy, so concurrent readers always see a fully
// initialized prefix. Entry n is computed directly by math.Lgamma, never
// incrementally, so every value is bit-identical regardless of the order
// in which goroutines grow the table.
var (
	lfMu  sync.Mutex
	lfTab atomic.Pointer[[]float64]
)

const lfInitialSize = 256

// LogFactorial returns ln(n!). It returns -Inf for n < 0, matching the
// convention that an impossible arrangement has zero weight. Values are
// served from a grow-on-demand process-wide table and safe for concurrent
// use.
func LogFactorial(n int) float64 {
	if n < 0 {
		return negInf
	}
	if t := lfTab.Load(); t != nil && n < len(*t) {
		return (*t)[n]
	}
	return growLogFactorial(n)
}

// growLogFactorial extends the shared table to cover n and returns ln(n!).
func growLogFactorial(n int) float64 {
	lfMu.Lock()
	defer lfMu.Unlock()
	var old []float64
	if t := lfTab.Load(); t != nil {
		old = *t
		if n < len(old) {
			return old[n]
		}
	}
	size := 2 * len(old)
	if size < lfInitialSize {
		size = lfInitialSize
	}
	if size <= n {
		size = n + 1
	}
	next := make([]float64, size)
	copy(next, old)
	for k := len(old); k < size; k++ {
		next[k], _ = math.Lgamma(float64(k) + 1)
	}
	lfTab.Store(&next)
	return next[n]
}

// LogFallingFactorial returns ln(n·(n−1)···(n−k+1)) = ln(n!/(n−k)!).
// It returns -Inf when the product is empty in the impossible sense
// (k > n or negative arguments); ln(1) = 0 when k == 0.
func LogFallingFactorial(n, k int) float64 {
	switch {
	case k == 0:
		return 0
	case n < 0 || k < 0 || k > n:
		return negInf
	default:
		return LogFactorial(n) - LogFactorial(n-k)
	}
}

// LogChoose returns ln(C(n,k)), or -Inf when C(n,k) == 0.
func LogChoose(n, k int) float64 {
	if k < 0 || n < 0 || k > n {
		return negInf
	}
	return LogFactorial(n) - LogFactorial(k) - LogFactorial(n-k)
}

// Choose returns C(n,k) as a float64. Small cases are computed exactly by
// iteration; large cases via LogChoose. Returns 0 when C(n,k) == 0.
func Choose(n, k int) float64 {
	if k < 0 || n < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	if k == 0 {
		return 1
	}
	// The iterative product is far more accurate than exp(LogChoose) and
	// cheap for small k (the engine's hot path has k ≤ C+2). Round only
	// when the result is exactly representable.
	if k <= 40 {
		res := 1.0
		for i := 1; i <= k; i++ {
			res = res * float64(n-k+i) / float64(i)
		}
		if res < 1e15 {
			return math.Round(res)
		}
		return res
	}
	return math.Exp(LogChoose(n, k))
}

// The stars-and-bars cache: StarsAndBars(slack, vars) is the innermost
// call of the exact engine's length loop, evaluated for every (class,
// length) pair of every posterior computation. vars is tiny (at most
// C+2 free gap variables) and slack is bounded by the path length, so a
// small 2-D table indexed [vars][slack] captures the whole workload.
// Same discipline as the log-factorial table: lock-free reads of an
// immutable snapshot, mutex-serialized copy-and-replace growth, and every
// entry computed by the same Choose call a cache miss would have made, so
// cached and uncached results are bit-identical.
const sbMaxVars = 40

var (
	sbMu  sync.Mutex
	sbTab atomic.Pointer[[][]float64]
)

// StarsAndBars returns the number of ways to write slack as an ordered sum
// of vars non-negative integers, C(slack+vars−1, vars−1), as a float64.
// With vars == 0 the count is 1 iff slack == 0. Results for small vars are
// served from a grow-on-demand process-wide table, safe for concurrent use.
func StarsAndBars(slack, vars int) float64 {
	if slack < 0 || vars < 0 {
		return 0
	}
	if vars == 0 {
		if slack == 0 {
			return 1
		}
		return 0
	}
	if vars >= sbMaxVars {
		return Choose(slack+vars-1, vars-1)
	}
	if t := sbTab.Load(); t != nil {
		if rows := *t; vars < len(rows) && slack < len(rows[vars]) {
			return rows[vars][slack]
		}
	}
	return growStarsAndBars(slack, vars)
}

// growStarsAndBars extends the shared table to cover (slack, vars).
func growStarsAndBars(slack, vars int) float64 {
	sbMu.Lock()
	defer sbMu.Unlock()
	var old [][]float64
	if t := sbTab.Load(); t != nil {
		old = *t
		if vars < len(old) && slack < len(old[vars]) {
			return old[vars][slack]
		}
	}
	nRows := len(old)
	if nRows <= vars {
		nRows = vars + 1
	}
	next := make([][]float64, nRows)
	copy(next, old)
	row := next[vars]
	size := 2 * len(row)
	if size < 128 {
		size = 128
	}
	if size <= slack {
		size = slack + 1
	}
	grown := make([]float64, size)
	copy(grown, row)
	for s := len(row); s < size; s++ {
		grown[s] = Choose(s+vars-1, vars-1)
	}
	next[vars] = grown
	sbTab.Store(&next)
	return grown[slack]
}

// LogStarsAndBars returns ln of the number of ways to write slack as an
// ordered sum of vars non-negative integers, i.e. ln(C(slack+vars−1, vars−1)).
// With vars == 0 the count is 1 iff slack == 0.
func LogStarsAndBars(slack, vars int) float64 {
	if slack < 0 || vars < 0 {
		return negInf
	}
	if vars == 0 {
		if slack == 0 {
			return 0
		}
		return negInf
	}
	return LogChoose(slack+vars-1, vars-1)
}

// ChooseBig returns C(n,k) exactly as a big.Int (0 when out of range).
// Intended for test cross-validation of the float64 paths.
func ChooseBig(n, k int) *big.Int {
	if k < 0 || n < 0 || k > n {
		return big.NewInt(0)
	}
	return new(big.Int).Binomial(int64(n), int64(k))
}

// FallingFactorialBig returns n·(n−1)···(n−k+1) exactly (1 when k == 0,
// 0 when k > n or arguments are negative).
func FallingFactorialBig(n, k int) *big.Int {
	if k == 0 {
		return big.NewInt(1)
	}
	if n < 0 || k < 0 || k > n {
		return big.NewInt(0)
	}
	res := big.NewInt(1)
	for i := 0; i < k; i++ {
		res.Mul(res, big.NewInt(int64(n-i)))
	}
	return res
}

// LogSumExp returns ln(Σ exp(xs[i])) computed stably. An empty input or an
// input of all -Inf yields -Inf (the log of zero).
func LogSumExp(xs []float64) float64 {
	maxV := negInf
	for _, x := range xs {
		if x > maxV {
			maxV = x
		}
	}
	if math.IsInf(maxV, -1) {
		return negInf
	}
	var sum float64
	for _, x := range xs {
		sum += math.Exp(x - maxV)
	}
	return maxV + math.Log(sum)
}

// LogAdd returns ln(exp(a) + exp(b)) computed stably.
func LogAdd(a, b float64) float64 {
	if math.IsInf(a, -1) {
		return b
	}
	if math.IsInf(b, -1) {
		return a
	}
	if a < b {
		a, b = b, a
	}
	return a + math.Log1p(math.Exp(b-a))
}
