// Package degrade quantifies the *degradation* of sender anonymity under
// repeated communication — the attack family of Wright, Adler, Levine and
// Shields (NDSS 2002), cited as [23] by Guan et al. and flagged in their
// threat-model discussion: when the same initiator talks to the same
// receiver over many rounds, each round's rerouting path leaks a little,
// and the adversary accumulates.
//
// Since the scenario layer gained Workload.Rounds, this package is a thin
// façade: Run maps a repeated-communication experiment onto the exact
// scenario backend (fixed sender, multi-round sessions, confidence
// tracking), and CrowdsDegradation maps the predecessor-counting attack
// onto the Crowds substrate of the discrete-event testbed. No analysis
// path here bypasses scenario.Run, so every experiment shares the
// process-wide engines, the backends' capability vocabulary, and the
// cross-backend agreement guarantees. The Bayesian accumulator itself
// lives in package adversary now (adversary.Accumulator); the aliases
// below keep the historical API working.
//
// CrowdsRoundsBound remains a closed form: a Chernoff-style prediction of
// how many observed rounds predecessor counting needs.
package degrade

import (
	"errors"
	"fmt"
	"math"

	"anonmix/internal/adversary"
	"anonmix/internal/crowds"
	"anonmix/internal/pathsel"
	"anonmix/internal/scenario"
	"anonmix/internal/trace"
)

// Errors returned by the degradation analyses.
var (
	// ErrBadConfig reports an invalid configuration.
	ErrBadConfig = errors.New("degrade: invalid configuration")
	// ErrNoObservations reports a query on an accumulator that has seen
	// nothing yet. It aliases adversary.ErrNoObservations.
	ErrNoObservations = adversary.ErrNoObservations
)

// Accumulator combines per-message sender posteriors across rounds. It is
// an alias of adversary.Accumulator, its home since the scenario layer
// learned to run multi-round workloads on every backend.
type Accumulator = adversary.Accumulator

// NewAccumulator returns an accumulator over the analyst's system.
func NewAccumulator(a *adversary.Analyst) (*Accumulator, error) {
	acc, err := adversary.NewAccumulator(a)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	return acc, nil
}

// Config parameterizes a repeated-communication experiment: one fixed
// sender sends Rounds messages under the strategy; the adversary
// accumulates; the experiment repeats Trials times with fresh paths.
type Config struct {
	// N is the system size.
	N int
	// Compromised lists the adversary's nodes.
	Compromised []trace.NodeID
	// Strategy draws each round's path (simple paths).
	Strategy pathsel.Strategy
	// Sender is the fixed initiator (must not be compromised).
	Sender trace.NodeID
	// Confidence is the posterior mass on the true sender at which the
	// adversary declares identification (e.g. 0.95).
	Confidence float64
	// MaxRounds caps each trial.
	MaxRounds int
	// Trials is the number of independent repetitions.
	Trials int
	// Seed makes runs reproducible.
	Seed int64
}

func (c Config) validate() error {
	if c.N < 2 {
		return fmt.Errorf("%w: n = %d", ErrBadConfig, c.N)
	}
	if int(c.Sender) < 0 || int(c.Sender) >= c.N {
		return fmt.Errorf("%w: sender %v", ErrBadConfig, c.Sender)
	}
	for _, id := range c.Compromised {
		if id == c.Sender {
			return fmt.Errorf("%w: sender %v is compromised (identified at round 0)", ErrBadConfig, id)
		}
	}
	if c.Confidence <= 0 || c.Confidence >= 1 {
		return fmt.Errorf("%w: confidence %v", ErrBadConfig, c.Confidence)
	}
	if c.MaxRounds < 1 || c.Trials < 1 {
		return fmt.Errorf("%w: maxRounds %d, trials %d", ErrBadConfig, c.MaxRounds, c.Trials)
	}
	if c.Strategy.Kind != pathsel.Simple {
		return fmt.Errorf("%w: Bayesian accumulation needs simple paths (use CrowdsDegradation for cyclic routes)", ErrBadConfig)
	}
	return nil
}

// Result summarizes a repeated-communication experiment.
type Result struct {
	// IdentifiedShare is the fraction of trials in which the adversary
	// reached the confidence threshold within MaxRounds.
	IdentifiedShare float64
	// MeanRounds is the average identification round among identified
	// trials.
	MeanRounds float64
	// MeanEntropyAfter holds the average remaining anonymity (bits) after
	// each round, indexed round−1, averaged over all trials.
	MeanEntropyAfter []float64
	// Trials echoes the number of repetitions.
	Trials int
}

// Run executes the repeated-communication experiment through the scenario
// layer: the exact backend runs Trials fixed-sender sessions of MaxRounds
// messages each, accumulating exact per-round posteriors until the
// confidence threshold is reached.
func Run(cfg Config) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	res, err := scenario.Run(scenario.Config{
		N:         cfg.N,
		Backend:   scenario.BackendExact,
		Strategy:  cfg.Strategy,
		Adversary: scenario.Adversary{Compromised: cfg.Compromised},
		Workload: scenario.Workload{
			Messages:    cfg.Trials,
			Rounds:      cfg.MaxRounds,
			Confidence:  cfg.Confidence,
			FixedSender: true,
			Sender:      cfg.Sender,
			Seed:        cfg.Seed,
		},
	})
	if err != nil {
		return Result{}, err
	}
	return Result{
		IdentifiedShare:  res.IdentifiedShare,
		MeanRounds:       res.MeanRoundsToIdentify,
		MeanEntropyAfter: res.HRounds,
		Trials:           res.Trials,
	}, nil
}

// CrowdsResult summarizes the predecessor-counting attack on Crowds.
type CrowdsResult struct {
	// IdentifiedShare is the fraction of trials where the initiator ends
	// with the strictly highest predecessor count.
	IdentifiedShare float64
	// MeanObservedRounds is the average number of rounds in which a
	// collaborator was on the path at all.
	MeanObservedRounds float64
}

// CrowdsDegradation simulates the predecessor-counting attack across path
// reformations on the discrete-event testbed's Crowds substrate: each
// round a fresh Crowds path forms; if a collaborator is on it, the first
// collaborator's predecessor gets one count; after rounds reformations the
// adversary accuses the highest count.
func CrowdsDegradation(n, c int, pf float64, rounds, trials int, seed int64) (CrowdsResult, error) {
	if _, err := crowds.PredecessorProb(n, c, pf); err != nil {
		return CrowdsResult{}, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if rounds < 1 || trials < 1 {
		return CrowdsResult{}, fmt.Errorf("%w: rounds %d, trials %d", ErrBadConfig, rounds, trials)
	}
	res, err := scenario.Run(scenario.Config{
		N:         n,
		Backend:   scenario.BackendTestbed,
		Protocol:  scenario.ProtocolCrowds,
		CrowdsPf:  pf,
		Adversary: scenario.Adversary{Count: c},
		Workload: scenario.Workload{
			Messages: trials,
			Rounds:   rounds,
			Seed:     seed,
		},
	})
	if err != nil {
		return CrowdsResult{}, err
	}
	return CrowdsResult{
		IdentifiedShare:    res.Crowds.TopCountIdentifiedShare,
		MeanObservedRounds: res.Crowds.MeanObservedRounds,
	}, nil
}

// CrowdsRoundsBound returns a Chernoff-style upper bound on the number of
// *observed* rounds after which predecessor counting separates the
// initiator from every other honest jondo with failure probability at most
// delta. With per-observation initiator rate p1 = P(H1|H1+) and
// per-other-jondo rate q = (1−p1)/(n−c−1), the counts separate once
//
//	R ≥ 2·ln((n−c−1)/delta) / (p1 − q)²
//
// by Hoeffding's inequality applied to the count difference of each
// competing jondo, union-bounded over the n−c−1 competitors.
func CrowdsRoundsBound(n, c int, pf, delta float64) (int, error) {
	p1, err := crowds.PredecessorProb(n, c, pf)
	if err != nil {
		return 0, err
	}
	if delta <= 0 || delta >= 1 {
		return 0, fmt.Errorf("%w: delta %v", ErrBadConfig, delta)
	}
	others := float64(n - c - 1)
	if others < 1 {
		return 1, nil
	}
	q := (1 - p1) / others
	gap := p1 - q
	if gap <= 0 {
		return 0, fmt.Errorf("%w: no identification gap (p1 = %v, q = %v)", ErrBadConfig, p1, q)
	}
	r := 2 * math.Log(others/delta) / (gap * gap)
	return int(math.Ceil(r)), nil
}
