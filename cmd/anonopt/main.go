// Command anonopt solves the paper's path-length-distribution design
// problem (§5.4): given a system size, a compromised-node count, and a
// target expected path length, it prints the distribution maximizing the
// anonymity degree together with the baselines it beats.
//
// Usage:
//
//	anonopt -n 100 -c 1 -mean 10
//	anonopt -n 100 -c 1            # unconstrained (best possible strategy)
//	anonopt -n 100 -c 1 -mean 5 -compare 'freedom;onionrouting1;uniform:1,5'
//	anonopt -n 40 -c 4 -max 12 -epochs 'msgs=1000;msgs=1000,comp=4;msgs=1000,comp=4'
//
// -compare takes pathsel registry specs and evaluates each against the
// optimum through the scenario layer's exact backend.
//
// -epochs takes the timeline syntax of anonsim (semicolon-separated epochs
// of msgs/rounds/join/leave/comp/recover fields) and switches to the
// epoch-aware solver: it re-optimizes the distribution for every epoch's
// (N, C) — warm-started through the delta engine cache — solves the joint
// single-distribution problem for the whole timeline, and compares both
// against the static epoch-0 optimum under the traffic-weighted blended
// anonymity degree.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"anonmix/internal/cliutil"
	"anonmix/internal/dist"
	"anonmix/internal/entropy"
	"anonmix/internal/optimize"
	"anonmix/internal/pathsel"
	"anonmix/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if !cliutil.Silent(err) {
			// %v prints the full wrapped sentinel chain.
			fmt.Fprintln(os.Stderr, "anonopt:", err)
		}
		// Exit 2 for configuration/usage errors, 1 for runtime failures
		// (see internal/cliutil). Optimizer problem errors are
		// configuration errors too: the solvers only see what the flags
		// built.
		os.Exit(exitCode(err))
	}
}

// exitCode extends the shared contract with the optimizer's sentinels:
// an invalid or infeasible problem is a usage error — it was assembled
// verbatim from the command line.
func exitCode(err error) int {
	if errors.Is(err, optimize.ErrBadProblem) || errors.Is(err, optimize.ErrInfeasible) {
		return 2
	}
	return cliutil.Code(err)
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("anonopt", flag.ContinueOnError)
	var (
		n       = fs.Int("n", 100, "number of nodes")
		c       = fs.Int("c", 1, "number of compromised nodes")
		mean    = fs.Float64("mean", -1, "target expected path length (<0: unconstrained)")
		hi      = fs.Int("max", -1, "maximum path length (default N-1)")
		compare = fs.String("compare", "", "semicolon-separated strategy specs to rank against the optimum, e.g. 'freedom;uniform:1,5'")
		epochs  = fs.String("epochs", "", "timeline of population epochs (anonsim syntax, e.g. 'msgs=1000;msgs=1000,comp=2'); switches to the epoch-aware solver")
	)
	if err := fs.Parse(args); err != nil {
		return cliutil.Usage(err)
	}
	// The scenario layer hands out the process-shared memoizing engine, so
	// the optimizer, the baselines, and the -compare rows reuse one cache.
	engine, err := scenario.Engine(*n, *c)
	if err != nil {
		return err
	}
	target := optimize.UnconstrainedMean()
	if *mean >= 0 {
		target = *mean
	}
	if *epochs != "" {
		// The support default is resolved inside runTimeline: a shrinking
		// timeline caps it at min_e N_e - 1, not N - 1.
		return runTimeline(w, *n, *c, *hi, target, *epochs)
	}
	if *hi < 0 {
		*hi = *n - 1
	}
	res, err := optimize.Maximize(optimize.Problem{
		Engine: engine, Lo: 0, Hi: *hi, Mean: target,
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "System: N=%d, C=%d (receiver compromised), max anonymity log2(N) = %.4f bits\n",
		*n, *c, engine.MaxAnonymity())
	if *mean >= 0 {
		fmt.Fprintf(w, "Constraint: E[path length] = %g\n", *mean)
	} else {
		fmt.Fprintf(w, "Constraint: none (globally optimal strategy)\n")
	}
	fmt.Fprintf(w, "\nOptimal distribution (atoms with mass > 1e-6):\n")
	lo, hiS := res.Dist.Support()
	for l := lo; l <= hiS; l++ {
		if p := res.Dist.PMF(l); p > 1e-6 {
			fmt.Fprintf(w, "  P(l = %3d) = %.6f\n", l, p)
		}
	}
	fmt.Fprintf(w, "\nAchieved H*(S)      = %.6f bits (%.2f%% of maximum)\n",
		res.H, 100*entropy.Normalized(res.H, *n))
	fmt.Fprintf(w, "Mean path length    = %.4f\n", res.Dist.Mean())
	fmt.Fprintf(w, "Solver iterations   = %d (converged: %v, certified gap %.1e bits)\n",
		res.Iterations, res.Converged, res.Gap)

	// Baselines at the same mean, when constrained.
	if *mean >= 0 && *mean == float64(int(*mean)) {
		m := int(*mean)
		if f, err := dist.NewFixed(m); err == nil {
			if hf, err := engine.AnonymityDegree(f); err == nil {
				fmt.Fprintf(w, "\nBaselines at the same mean:\n")
				fmt.Fprintf(w, "  F(%d)        H* = %.6f  (Δ = %+.6f)\n", m, hf, res.H-hf)
			}
		}
		if _, hu, err := optimize.BestUniform(engine, m, 0, *hi); err == nil {
			fmt.Fprintf(w, "  best U(a,b)  H* = %.6f  (Δ = %+.6f)\n", hu, res.H-hu)
		}
		if tp, htp, err := optimize.BestTwoPoint(engine, *mean, 0, *hi); err == nil {
			fmt.Fprintf(w, "  best %s H* = %.6f  (Δ = %+.6f)\n", tp, htp, res.H-htp)
		}
	}

	// Named strategies from the registry, evaluated through the scenario
	// layer on the same exact backend.
	if *compare != "" {
		fmt.Fprintf(w, "\nNamed strategies (exact backend):\n")
		for _, spec := range pathsel.SplitSpecs(*compare) {
			sres, err := scenario.Run(scenario.Config{
				N:            *n,
				Backend:      scenario.BackendExact,
				StrategySpec: spec,
				Adversary:    scenario.Adversary{Count: *c},
			})
			if err != nil {
				return fmt.Errorf("-compare %s: %w", spec, err)
			}
			fmt.Fprintf(w, "  %-24s H* = %.6f  (Δ = %+.6f, mean %.2f)\n",
				sres.Strategy.Name, sres.H, res.H-sres.H, sres.Strategy.Length.Mean())
		}
	}
	return nil
}

// runTimeline is the -epochs path: the §5.4 design problem lifted to a
// dynamic population. The epoch engines come from the scenario cache, so
// consecutive epochs are delta-derived members of one engine family.
func runTimeline(w io.Writer, n, c, hi int, mean float64, epochs string) error {
	timeline, err := scenario.ParseTimeline(epochs)
	if err != nil {
		return err
	}
	states, err := scenario.TimelineStates(n, c, timeline)
	if err != nil {
		return err
	}
	minN := states[0].N
	for _, st := range states {
		if st.N < minN {
			minN = st.N
		}
	}
	if hi < 0 {
		hi = minN - 1
	}
	tp := optimize.TimelineProblem{Lo: 0, Hi: hi, Mean: mean}
	for _, st := range states {
		e, err := scenario.Engine(st.N, st.C)
		if err != nil {
			return err
		}
		tp.Epochs = append(tp.Epochs, optimize.EpochProblem{Engine: e, Weight: st.Weight})
	}
	res, err := optimize.MaximizeTimeline(tp)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "Timeline: %d epochs over base N=%d, C=%d (receiver compromised), support [0,%d]\n",
		len(states), n, c, hi)
	if !math.IsNaN(mean) {
		fmt.Fprintf(w, "Constraint: E[path length] = %g (every epoch)\n", mean)
	} else {
		fmt.Fprintf(w, "Constraint: none (globally optimal per epoch)\n")
	}
	fmt.Fprintf(w, "\nPer-epoch re-optimization:\n")
	fmt.Fprintf(w, "  %-5s %5s %5s %8s %12s %6s %9s %10s\n", "epoch", "N", "C", "weight", "H* (bits)", "iters", "gap", "mean len")
	for i, st := range states {
		r := res.PerEpoch[i]
		fmt.Fprintf(w, "  %-5d %5d %5d %8.4f %12.6f %6d %9.1e %10.4f\n",
			st.Index, st.N, st.C, st.Weight, r.H, r.Iterations, r.Gap, r.Dist.Mean())
	}

	fmt.Fprintf(w, "\nJoint distribution (one strategy for the whole timeline; atoms with mass > 1e-6):\n")
	lo, hiS := res.Joint.Dist.Support()
	for l := lo; l <= hiS; l++ {
		if p := res.Joint.Dist.PMF(l); p > 1e-6 {
			fmt.Fprintf(w, "  P(l = %3d) = %.6f\n", l, p)
		}
	}

	// The static policy: the epoch-0 optimum deployed unchanged, scored by
	// the same traffic-weighted blend as the other two.
	staticH, err := optimize.EvaluateTimeline(tp, res.PerEpoch[0].Dist)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nBlended H (traffic-weighted across epochs):\n")
	fmt.Fprintf(w, "  static (epoch-0 optimum)  = %.6f bits\n", staticH)
	fmt.Fprintf(w, "  joint optimum             = %.6f bits  (Δ vs static = %+.6f; %d iterations, gap %.1e)\n",
		res.Joint.H, res.Joint.H-staticH, res.Joint.Iterations, res.Joint.Gap)
	fmt.Fprintf(w, "  per-epoch re-optimization = %.6f bits  (Δ vs static = %+.6f)\n",
		res.PerEpochH, res.PerEpochH-staticH)

	st := scenario.CacheStats()
	fmt.Fprintf(w, "\nEngine cache: %d hits, %d misses (%d delta-derived), %d/%d resident\n",
		st.Hits, st.Misses, st.DeltaDerived, st.Size, st.Capacity)
	return nil
}
