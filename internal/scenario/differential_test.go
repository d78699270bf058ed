package scenario_test

// The differential-test harness: a seeded random walk over the full
// scenario space — population, adversary (size, receiver mode, ablations),
// five strategy families, protocol substrates, repeated-communication
// rounds, and dynamic-population timelines — executed on every backend.
// The invariant is the scenario layer's contract: every backend that can
// run a scenario agrees with the others within sampling error, and a
// scenario no backend should accept is rejected by all of them with the
// same configuration-error identity. Failures print a reproducing Config
// literal, so a counterexample becomes a regression test by copy-paste.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"anonmix/internal/faults"
	"anonmix/internal/pathsel"
	"anonmix/internal/scenario"
	"anonmix/internal/trace"
)

// genConfig draws one scenario from the full configuration space. Sizes
// are kept small so a hundred scenarios across three backends stay cheap;
// a slice of the draws is deliberately out of domain (oversized strategies
// for the shrunken population, exhausted honest members) to exercise the
// error-agreement half of the contract.
func genConfig(rng *rand.Rand, idx int) scenario.Config {
	n := 8 + rng.Intn(13) // 8..20
	cfg := scenario.Config{N: n}

	// Adversary: a fraction of the population, sometimes as an explicit
	// unsorted set, sometimes with the receiver honest, rarely with the
	// self-report ablation (exact-only: the sampled backends must refuse).
	c := rng.Intn(n/3 + 1)
	if rng.Intn(2) == 0 {
		cfg.Adversary.Count = c
	} else {
		perm := rng.Perm(n)
		ids := make([]trace.NodeID, c)
		for i := range ids {
			ids[i] = trace.NodeID(perm[i])
		}
		cfg.Adversary.Compromised = ids
	}
	cfg.Adversary.UncompromisedReceiver = rng.Intn(2) == 0
	cfg.Adversary.NoSenderSelfReport = rng.Intn(10) == 0

	// Strategy: the five families of the registry — fixed, uniform, the §2
	// presets, remailer chains, and the cyclic coin-flip family.
	switch rng.Intn(5) {
	case 0:
		cfg.StrategySpec = fmt.Sprintf("fixed:%d", 1+rng.Intn(5))
	case 1:
		a := rng.Intn(3)
		cfg.StrategySpec = fmt.Sprintf("uniform:%d,%d", a, a+1+rng.Intn(5))
	case 2:
		cfg.StrategySpec = []string{"pipenet", "freedom", "onionrouting1", "anonymizer"}[rng.Intn(4)]
	case 3:
		cfg.StrategySpec = fmt.Sprintf("remailer:%d", 1+rng.Intn(4))
	case 4:
		cfg.StrategySpec = fmt.Sprintf("crowds:0.%d,%d", 5+rng.Intn(4), 4+rng.Intn(6))
	}

	// Protocol substrate.
	switch rng.Intn(10) {
	case 0:
		cfg.Protocol = scenario.ProtocolCrowds
		cfg.CrowdsPf = 0.5 + 0.1*float64(rng.Intn(4))
	case 1, 2:
		cfg.Protocol = scenario.ProtocolOnion
	case 3:
		cfg.Protocol = scenario.ProtocolMix
		cfg.Workload.BatchThreshold = 2 + rng.Intn(6)
	default:
		cfg.Protocol = scenario.ProtocolPlain
	}

	// Workload: single-shot or repeated-communication, sometimes with
	// identification tracking or a pinned sender.
	cfg.Workload.Seed = int64(1000 + idx)
	cfg.Workload.Workers = 4
	cfg.Workload.Messages = 1500 + 500*rng.Intn(3)
	if rng.Intn(3) == 0 {
		cfg.Workload.Rounds = 2 + rng.Intn(4)
		cfg.Workload.Messages = 300 + 100*rng.Intn(3)
		if rng.Intn(2) == 0 {
			cfg.Workload.Confidence = 0.8
		}
	}
	if rng.Intn(6) == 0 {
		cfg.Workload.FixedSender = true
		cfg.Workload.Sender = trace.NodeID(rng.Intn(n))
	}

	// Timeline: about half the scenarios get a dynamic population.
	if rng.Intn(2) == 0 {
		epochs := 2 + rng.Intn(3)
		tl := make([]scenario.Epoch, epochs)
		roundsMode := rng.Intn(2) == 0
		for i := range tl {
			if roundsMode {
				tl[i].Rounds = 1 + rng.Intn(3)
			} else {
				tl[i].Messages = 800 + 200*rng.Intn(3)
			}
			if i > 0 {
				switch rng.Intn(5) {
				case 0:
					tl[i].Join = 1 + rng.Intn(n/2)
				case 1:
					tl[i].Leave = 1 + rng.Intn(n/4+1)
				case 2:
					tl[i].Compromise = 1 + rng.Intn(2)
				case 3:
					tl[i].Recover = 1
				}
			}
		}
		cfg.Timeline = tl
		if roundsMode {
			cfg.Workload.Rounds = 0
			cfg.Workload.Messages = 300 + 100*rng.Intn(3)
		} else {
			cfg.Workload.Rounds = 0
			cfg.Workload.Messages = 0
			cfg.Workload.Confidence = 0
		}
	}

	// Faults: about a quarter of the scenarios run under a fault plan —
	// link loss with one of the three reliability policies, occasionally a
	// crash schedule (testbed-only: the analytic backends must refuse).
	// Combinations the layer rejects (faults + Crowds, faults + rounds)
	// are left in deliberately: they exercise the config-error-agreement
	// half of the contract. The draws come from an
	// independent per-case stream so the fault layer composes onto the
	// exact configurations the harness pinned before it existed.
	frng := rand.New(rand.NewSource(int64(4000 + idx)))
	if frng.Intn(4) == 0 {
		cfg.Faults = &faults.Plan{LinkLoss: []float64{0.02, 0.05, 0.1, 0.2}[frng.Intn(4)]}
		switch frng.Intn(3) {
		case 1:
			cfg.Reliability = faults.Reliability{Policy: faults.PolicyRetransmit}
		case 2:
			cfg.Reliability = faults.Reliability{Policy: faults.PolicyReroute}
		}
		if frng.Intn(6) == 0 {
			cfg.Faults.Crashes = []faults.Crash{{Node: trace.NodeID(frng.Intn(n)), At: 5, Recover: 200}}
		}
	}
	return cfg
}

// errClass buckets an error for the agreement check.
type errClass int

const (
	errNone errClass = iota
	errConfig
	errCapability
	errOther
)

func classify(err error) errClass {
	switch {
	case err == nil:
		return errNone
	case errors.Is(err, scenario.ErrBadConfig) || errors.Is(err, pathsel.ErrBadStrategy):
		return errConfig
	default:
		var capErr *scenario.CapabilityError
		if errors.As(err, &capErr) {
			return errCapability
		}
		return errOther
	}
}

// configLiteral renders a Config as a compilable Go literal, so a harness
// failure is a copy-paste regression test.
func configLiteral(cfg scenario.Config) string {
	var b strings.Builder
	b.WriteString("scenario.Config{\n")
	fmt.Fprintf(&b, "\tN: %d,\n", cfg.N)
	if cfg.StrategySpec != "" {
		fmt.Fprintf(&b, "\tStrategySpec: %q,\n", cfg.StrategySpec)
	}
	if cfg.Protocol != scenario.ProtocolPlain {
		fmt.Fprintf(&b, "\tProtocol: scenario.Protocol(%d), // %s\n", uint8(cfg.Protocol), cfg.Protocol)
	}
	if cfg.CrowdsPf != 0 {
		fmt.Fprintf(&b, "\tCrowdsPf: %v,\n", cfg.CrowdsPf)
	}
	fmt.Fprintf(&b, "\tAdversary: scenario.Adversary{Count: %d, Compromised: %#v, UncompromisedReceiver: %v, NoSenderSelfReport: %v},\n",
		cfg.Adversary.Count, cfg.Adversary.Compromised, cfg.Adversary.UncompromisedReceiver, cfg.Adversary.NoSenderSelfReport)
	fmt.Fprintf(&b, "\tWorkload: scenario.Workload{Messages: %d, Rounds: %d, Confidence: %v, FixedSender: %v, Sender: %d, Seed: %d, Workers: %d, BatchThreshold: %d},\n",
		cfg.Workload.Messages, cfg.Workload.Rounds, cfg.Workload.Confidence,
		cfg.Workload.FixedSender, int(cfg.Workload.Sender), cfg.Workload.Seed,
		cfg.Workload.Workers, cfg.Workload.BatchThreshold)
	if cfg.Faults != nil {
		fmt.Fprintf(&b, "\tFaults: &faults.Plan{LinkLoss: %v, Jitter: %d, Crashes: %#v},\n",
			cfg.Faults.LinkLoss, cfg.Faults.Jitter, cfg.Faults.Crashes)
		fmt.Fprintf(&b, "\tReliability: faults.Reliability{Policy: faults.Policy(%d), MaxAttempts: %d, RetryBackoff: %d},\n",
			uint8(cfg.Reliability.Policy), cfg.Reliability.MaxAttempts, cfg.Reliability.RetryBackoff)
	}
	if len(cfg.Timeline) > 0 {
		b.WriteString("\tTimeline: []scenario.Epoch{\n")
		for _, e := range cfg.Timeline {
			fmt.Fprintf(&b, "\t\t{Messages: %d, Rounds: %d, Join: %d, Leave: %d, Compromise: %d, Recover: %d},\n",
				e.Messages, e.Rounds, e.Join, e.Leave, e.Compromise, e.Recover)
		}
		b.WriteString("\t},\n")
	}
	b.WriteString("}")
	return b.String()
}

// TestCrossBackendDifferential runs ~100 generated scenarios on every
// backend and asserts the scenario layer's contract case by case.
func TestCrossBackendDifferential(t *testing.T) {
	cases := 100
	if testing.Short() {
		cases = 25
	}
	rng := rand.New(rand.NewSource(20260730))
	backends := []scenario.BackendKind{
		scenario.BackendExact, scenario.BackendMonteCarlo, scenario.BackendTestbed,
	}
	for i := 0; i < cases; i++ {
		cfg := genConfig(rng, i)
		t.Run(fmt.Sprintf("case-%03d", i), func(t *testing.T) {
			fail := func(format string, args ...any) {
				t.Helper()
				t.Errorf(format+"\nreproduce with:\n%s", append(args, configLiteral(cfg))...)
			}
			results := map[scenario.BackendKind]scenario.Result{}
			classes := map[scenario.BackendKind]errClass{}
			errs := map[scenario.BackendKind]error{}
			for _, kind := range backends {
				run := cfg
				run.Backend = kind
				res, err := scenario.Run(run)
				results[kind], classes[kind], errs[kind] = res, classify(err), err
				if classes[kind] == errOther {
					fail("%s: unexpected error class: %v", kind, err)
					return
				}
			}

			// Config errors come from the shared normalization, so they are
			// backend-independent: one backend rejecting the configuration
			// means all of them must.
			anyConfig := false
			for _, kind := range backends {
				anyConfig = anyConfig || classes[kind] == errConfig
			}
			if anyConfig {
				for _, kind := range backends {
					if classes[kind] != errConfig {
						fail("config-error disagreement: %v", map[scenario.BackendKind]error(errs))
						return
					}
				}
				return
			}

			// Capability refusals are per-backend; the capable ones must
			// agree on everything observable.
			var capable []scenario.BackendKind
			for _, kind := range backends {
				if classes[kind] == errNone {
					capable = append(capable, kind)
				}
			}
			if len(capable) < 2 {
				return
			}
			ref := results[capable[0]]
			for _, kind := range capable[1:] {
				res := results[kind]
				tol := 4*(res.StdErr+ref.StdErr) + 0.02
				if d := math.Abs(res.H - ref.H); d > tol {
					fail("%s H = %v ± %v, %s H = %v ± %v (Δ=%v > tol %v)",
						kind, res.H, res.StdErr, capable[0], ref.H, ref.StdErr, d, tol)
				}
				if cfg.Faults != nil {
					if d := math.Abs(res.DeliveryRate - ref.DeliveryRate); d > 0.05 {
						fail("%s delivery = %v, %s delivery = %v (Δ=%v)",
							kind, res.DeliveryRate, capable[0], ref.DeliveryRate, d)
					}
					if d := math.Abs(res.HDegraded - ref.HDegraded); d > tol+0.05 {
						fail("%s HDegraded = %v, %s HDegraded = %v (Δ=%v)",
							kind, res.HDegraded, capable[0], ref.HDegraded, d)
					}
				}
				if res.Rounds != ref.Rounds || len(res.HRounds) != len(ref.HRounds) {
					fail("%s rounds shape (%d, %d) != %s (%d, %d)",
						kind, res.Rounds, len(res.HRounds), capable[0], ref.Rounds, len(ref.HRounds))
				}
				if len(res.Epochs) != len(ref.Epochs) {
					fail("%s epochs = %d, %s epochs = %d", kind, len(res.Epochs), capable[0], len(ref.Epochs))
					continue
				}
				for e := range res.Epochs {
					if res.Epochs[e].N != ref.Epochs[e].N || res.Epochs[e].C != ref.Epochs[e].C {
						fail("%s epoch %d population (%d,%d) != %s (%d,%d)",
							kind, e, res.Epochs[e].N, res.Epochs[e].C,
							capable[0], ref.Epochs[e].N, ref.Epochs[e].C)
					}
					// Per-epoch entropies agree too (zero-traffic phases are
					// zero everywhere); the per-phase sample is a 1/E share
					// of the run, so scale the overall error bars by √E.
					scale := math.Sqrt(float64(len(res.Epochs)))
					epochTol := 4*(res.StdErr+ref.StdErr)*scale + 0.05
					if d := math.Abs(res.Epochs[e].H - ref.Epochs[e].H); d > epochTol {
						fail("%s epoch %d H = %v, %s H = %v (Δ=%v > tol %v)",
							kind, e, res.Epochs[e].H, capable[0], ref.Epochs[e].H, d, epochTol)
					}
				}
			}
		})
	}
}
