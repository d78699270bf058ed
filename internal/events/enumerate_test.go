package events

// The enumerated oracle: every concrete observation class one by one, each
// with its own Bayes mixture. It shares only the single-class computation
// (statsForShape, behind StatsTable) with the engine, not the shape-group
// fold, so the aggregate queries are checked against it; the brute force
// in oracle_test.go checks both against literal path outcomes.

import (
	"fmt"
	"math"

	"anonmix/internal/dist"
)

// maxCompromisedEnumerate bounds the oracle: the concrete class space
// grows as Θ(3^C).
const maxCompromisedEnumerate = 12

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

// ClassStats enumerates every observation class and returns its statistics
// under d. The probabilities sum to 1 over the sender-not-compromised
// branch, which is verified. Under hop-count inference the classes are the
// empty one and, for C = 1, one per exact tail gap t below the support's
// end; their Stats.Class carries only the flag signature.
func (e *Engine) ClassStats(d dist.Length) ([]Stats, error) {
	if err := e.checkDist(d); err != nil {
		return nil, err
	}
	if e.c > maxCompromisedEnumerate {
		return nil, fmt.Errorf("%w: c = %d > %d (per-class enumeration)", ErrTooManyClasses, e.c, maxCompromisedEnumerate)
	}
	var out []Stats
	if e.mode == InferenceHopCount {
		out = append(out, e.statsFor(Class{}, d))
		if _, hi := d.Support(); e.c == 1 {
			for t := 0; t < hi; t++ {
				out = append(out, e.hopCountStats(t, d))
			}
		}
	} else {
		for _, cl := range Enumerate(e.c, e.receiver) {
			out = append(out, e.statsFor(cl, d))
		}
	}
	var total float64
	for i := range out {
		total += out[i].P
	}
	if math.Abs(total-1) > 1e-6 {
		return nil, fmt.Errorf("events: class probabilities sum to %v, want 1 (internal accounting bug)", total)
	}
	return out, nil
}

// statsFor computes the Bayes mixture for one class from its compromised
// count and shape alone.
func (e *Engine) statsFor(cl Class, d dist.Length) Stats {
	base, free, nObs := e.shape(cl)
	return e.statsForShape(cl.K(), base, free, nObs, d).stats(cl)
}

// hopCountStats computes the Bayes mixture for the hop-count class with
// one compromised node observed exactly t hops before the receiver. Only
// the head gap g0 is free; the witnesses are the predecessor, plus the
// successor when t ≥ 1, plus the receiver's (distinct) predecessor when
// t ≥ 2.
func (e *Engine) hopCountStats(t int, d dist.Length) Stats {
	tail, nObs := TailWide, 3
	switch t {
	case 0:
		tail, nObs = TailZero, 1
	case 1:
		tail, nObs = TailOne, 2
	}
	return e.statsForShape(1, 1+t, 1, nObs, d).stats(Class{Runs: []int{1}, Tail: tail})
}
