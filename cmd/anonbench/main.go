// Command anonbench regenerates the figures of Guan et al. (ICDCS 2002)
// §6 as TSV tables on stdout or into a directory.
//
// Usage:
//
//	anonbench -figure 3a            # one figure to stdout
//	anonbench -all -out results/    # every figure into results/<name>.tsv
//	anonbench -list                 # available figure names
//	anonbench -figure ablation-largec -largec-n 100,1000 -largec-frac 0.5
//	anonbench -figure churn-sweep -churn-n 30 -churn-c 3    # dynamic populations
//	anonbench -figure epoch-optimizer -epochopt-n 40        # epoch-aware optimization
//
// The paper figures use its configuration (N = 100 nodes, C = 1
// compromised node, receiver compromised). The large-C ablation drives
// the counted-bucket engine across compromised fractions; its system
// sizes, maximum fraction, and point count are set by the -largec-*
// flags.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"anonmix/internal/cliutil"
	"anonmix/internal/figures"
	"anonmix/internal/pathsel"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if !cliutil.Silent(err) {
			// %v prints the full wrapped sentinel chain.
			fmt.Fprintln(os.Stderr, "anonbench:", err)
		}
		// Exit 2 for configuration/usage errors (unknown figures are
		// usage: the figure name came off the command line), 1 for
		// runtime failures.
		os.Exit(exitCode(err))
	}
}

// exitCode extends the shared contract with the figure registry's
// sentinel: asking for a figure that does not exist is a usage error.
func exitCode(err error) int {
	if errors.Is(err, figures.ErrUnknownFigure) {
		return 2
	}
	return cliutil.Code(err)
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("anonbench", flag.ContinueOnError)
	var (
		figure       = fs.String("figure", "", "figure to regenerate (see -list)")
		all          = fs.Bool("all", false, "regenerate every figure")
		out          = fs.String("out", "", "directory for TSV files (stdout if empty)")
		list         = fs.Bool("list", false, "list available figures")
		largeCNs     = fs.String("largec-n", "100,1000", "comma-separated system sizes for ablation-largec")
		largeCFrac   = fs.Float64("largec-frac", 0.5, "maximum compromised fraction c/N for ablation-largec")
		largeCPoints = fs.Int("largec-points", 10, "points per curve for ablation-largec")
		backendsN    = fs.Int("backends-n", figures.PaperN, "system size for ablation-backends")
		backendsC    = fs.Int("backends-c", figures.PaperC, "compromised count for ablation-backends")
		backendsMsgs = fs.Int("backends-messages", 4000, "messages/trials per sampled point for ablation-backends")
		backendsStr  = fs.String("backends-strategies", "", "semicolon-separated pathsel specs for ablation-backends, e.g. 'freedom;uniform:1,5' (default set if empty)")
		backendsSeed = fs.Int64("backends-seed", 1, "seed for ablation-backends sampling")
		degradeN     = fs.Int("degrade-n", figures.PaperN, "system size for degradation-rounds")
		degradeC     = fs.Int("degrade-c", 3, "compromised count for degradation-rounds")
		degradeSess  = fs.Int("degrade-sessions", 2000, "sampled sessions per curve for degradation-rounds")
		degradeK     = fs.Int("degrade-rounds", 16, "rounds per session for degradation-rounds")
		degradeStr   = fs.String("degrade-strategies", "", "semicolon-separated pathsel specs for degradation-rounds (default set if empty)")
		degradeSeed  = fs.Int64("degrade-seed", 1, "seed for degradation-rounds sampling")
		churnN       = fs.Int("churn-n", 30, "base system size for churn-sweep")
		churnC       = fs.Int("churn-c", 3, "base compromised count for churn-sweep")
		churnSess    = fs.Int("churn-sessions", 2000, "sampled sessions per curve for churn-sweep")
		churnStr     = fs.String("churn-strategies", "", "semicolon-separated pathsel specs for churn-sweep (default set if empty)")
		churnSeed    = fs.Int64("churn-seed", 1, "seed for churn-sweep sampling")
		epochOptN    = fs.Int("epochopt-n", 40, "base system size for epoch-optimizer")
		epochOptC    = fs.Int("epochopt-c", 4, "base compromised count for epoch-optimizer")
		epochOptMax  = fs.Int("epochopt-max", 12, "path-length support maximum for epoch-optimizer")
		relN         = fs.Int("rel-n", 30, "system size for reliability-sweep")
		relC         = fs.Int("rel-c", 3, "compromised count for reliability-sweep")
		relMsgs      = fs.Int("rel-messages", 4000, "messages per point for reliability-sweep")
		relLosses    = fs.String("rel-losses", "", "comma-separated link-loss rates for reliability-sweep (default 0,0.01,0.05,0.20)")
		relStr       = fs.String("rel-strategies", "", "semicolon-separated pathsel specs for reliability-sweep (default set if empty)")
		relSeed      = fs.Int64("rel-seed", 1, "seed for reliability-sweep")
	)
	if err := fs.Parse(args); err != nil {
		return cliutil.Usage(err)
	}

	if *list {
		for _, name := range figures.Names() {
			fmt.Fprintln(stdout, name)
		}
		return nil
	}

	var figs []figures.Figure
	switch {
	case *all:
		fmt.Fprintln(os.Stderr, "anonbench: regenerating all figures (N=100, C=1)...")
		fs, err := figures.All()
		if err != nil {
			return err
		}
		figs = fs
	case *figure == "ablation-backends":
		// Always the parameterized sweep: the -backends-* flag defaults
		// match the named figure, so explicit and default values behave
		// identically (no stale-literal guard to drift).
		f, err := figures.AblationBackendsSweep(*backendsN, *backendsC, *backendsMsgs, *backendsSeed,
			pathsel.SplitSpecs(*backendsStr))
		if err != nil {
			return err
		}
		figs = []figures.Figure{f}
	case *figure == "degradation-rounds":
		// Like ablation-backends, always the parameterized sweep: the
		// -degrade-* defaults match the named figure.
		f, err := figures.DegradationRoundsSweep(*degradeN, *degradeC, *degradeSess, *degradeK,
			*degradeSeed, pathsel.SplitSpecs(*degradeStr))
		if err != nil {
			return err
		}
		figs = []figures.Figure{f}
	case *figure == "churn-sweep":
		// Like the other parameterized sweeps: the -churn-* defaults match
		// the named figure.
		f, err := figures.ChurnSweep(*churnN, *churnC, *churnSess, *churnSeed, pathsel.SplitSpecs(*churnStr))
		if err != nil {
			return err
		}
		figs = []figures.Figure{f}
	case *figure == "epoch-optimizer":
		// Like the other parameterized sweeps: the -epochopt-* defaults
		// match the named figure. Fully closed-form (exact engines plus a
		// deterministic solver), so the output is bit-reproducible.
		f, err := figures.EpochOptimizerSweep(*epochOptN, *epochOptC, *epochOptMax)
		if err != nil {
			return err
		}
		figs = []figures.Figure{f}
	case *figure == "reliability-sweep":
		// Like the other parameterized sweeps: the -rel-* defaults match
		// the named figure. Runs the testbed kernel, so every point is a
		// fault-injected execution, not a closed form.
		losses, err := parseFloats(*relLosses)
		if err != nil {
			return fmt.Errorf("-rel-losses: %w", err)
		}
		f, err := figures.ReliabilitySweep(*relN, *relC, *relMsgs, *relSeed, losses,
			pathsel.SplitSpecs(*relStr))
		if err != nil {
			return err
		}
		figs = []figures.Figure{f}
	case *figure == "ablation-largec":
		ns, err := parseInts(*largeCNs)
		if err != nil {
			return fmt.Errorf("-largec-n: %w", err)
		}
		f, err := figures.AblationLargeCSweep(ns, *largeCFrac, *largeCPoints)
		if err != nil {
			return err
		}
		figs = []figures.Figure{f}
	case *figure != "":
		f, err := figures.ByName(*figure)
		if err != nil {
			return err
		}
		figs = []figures.Figure{f}
	default:
		return fmt.Errorf("pass -figure <name>, -all, or -list")
	}

	for _, f := range figs {
		if *out == "" {
			fmt.Fprintf(stdout, "# Figure %s — %s\n", f.Name, f.Title)
			if err := f.WriteTSV(stdout); err != nil {
				return err
			}
			fmt.Fprintln(stdout)
			continue
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
		path := filepath.Join(*out, "fig"+f.Name+".tsv")
		file, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := f.WriteTSV(file); err != nil {
			file.Close()
			return err
		}
		if err := file.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "anonbench: wrote %s\n", path)
	}
	return nil
}

// parseFloats parses a comma-separated list of floats in [0, 1]; an empty
// string means "use the figure's default sweep".
func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, err
		}
		if v < 0 || v > 1 {
			return nil, fmt.Errorf("loss rate %v outside [0, 1]", v)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseInts parses a comma-separated list of positive integers.
func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		if v <= 0 {
			return nil, fmt.Errorf("size %d must be positive", v)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty size list %q", s)
	}
	return out, nil
}
