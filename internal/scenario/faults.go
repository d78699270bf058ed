package scenario

// The reliability dimension: fault injection and delivery policies as a
// first-class scenario axis. This file owns what the backends share — the
// uniform ErrBadConfig validation of Config.Faults/Config.Reliability and
// the virtual-time span arithmetic that sizes phase windows and bounds
// crash schedules — so that "the same faulted scenario on every backend"
// keeps meaning the same loss process and the same outage windows
// everywhere. Execution differs by backend: the exact engine folds
// PolicyNone loss into the effective-delivery length distribution, the
// Monte-Carlo estimator samples the loss process per trial, and the
// testbed injects the faults into the discrete-event kernel.

import (
	"fmt"

	"anonmix/internal/faults"
)

// normalizeFaults validates the fault plan against the normalized
// scenario and fills the reliability defaults. Called after
// normalizeTimeline (it needs the materialized traffic budgets and the
// union identity space). Every rejection is ErrBadConfig, uniform across
// backends — a faulted config either runs everywhere the capabilities
// allow or fails identically everywhere.
func normalizeFaults(cfg *Config) error {
	if cfg.Faults == nil {
		if cfg.Reliability != (faults.Reliability{}) {
			return fmt.Errorf("%w: reliability policy set without a fault plan (set Config.Faults)", ErrBadConfig)
		}
		return nil
	}
	// Node identities must exist somewhere in the run: the union space for
	// timelines, the static population otherwise.
	if err := cfg.Faults.Validate(unionSize(cfg.N, cfg.Timeline)); err != nil {
		return fmt.Errorf("%w: %w", ErrBadConfig, err)
	}
	r := &cfg.Reliability
	if r.Policy > faults.PolicyReroute {
		return fmt.Errorf("%w: reliability policy %v", ErrBadConfig, r.Policy)
	}
	if r.MaxAttempts < 0 {
		return fmt.Errorf("%w: MaxAttempts %d", ErrBadConfig, r.MaxAttempts)
	}
	if r.MaxAttempts == 0 {
		r.MaxAttempts = faults.DefaultMaxAttempts
	}
	if r.RetryBackoff < 0 {
		return fmt.Errorf("%w: RetryBackoff %v", ErrBadConfig, r.RetryBackoff)
	}
	if r.RetryBackoff == 0 {
		r.RetryBackoff = faults.DefaultRetryBackoff
	}
	if cfg.Protocol == ProtocolCrowds {
		return fmt.Errorf("%w: fault injection is not defined for the crowds substrate (its predecessor statistics assume lossless forwarding)", ErrBadConfig)
	}
	if cfg.Workload.degradation() {
		return fmt.Errorf("%w: fault injection is single-shot (Rounds > 1 and Confidence tracking do not compose with delivery analysis)", ErrBadConfig)
	}
	if len(cfg.phases) > 0 {
		if timelineRounds(cfg.phases) {
			return fmt.Errorf("%w: fault injection needs a single-shot (Messages) timeline", ErrBadConfig)
		}
	}
	// Crash windows must fall inside the run's virtual-time span — a crash
	// scheduled after the last packet retires is a configuration error, not
	// a silent no-op. The span is the same phase-window arithmetic the
	// testbed uses to place its churn boundaries.
	total := virtualSpan(cfg)
	for _, c := range cfg.Faults.Crashes {
		if c.At >= total {
			return fmt.Errorf("%w: crash of node %d at t=%d outside the run's virtual span [0,%d)",
				ErrBadConfig, c.Node, c.At, total)
		}
		if c.Recover > total {
			return fmt.Errorf("%w: recovery of node %d at t=%d outside the run's virtual span [0,%d]",
				ErrBadConfig, c.Node, c.Recover, total)
		}
	}
	return nil
}

// phaseSpan is the virtual-time window wide enough for m messages of this
// scenario: the injection clock advance plus the worst-case per-hop
// latency (the hop tick, the jitter, and — under PolicyRetransmit — the
// full retransmission backoff budget) over the deepest path. Every event
// of a phase's traffic then has a logical time below the next phase's
// boundary: injections advance the clock by one each, every hop (mix
// release included) adds at most 1+jitter+budget ticks over the phase's
// running maximum, and a path has at most hi+2 such steps.
func phaseSpan(cfg *Config, m int) uint64 {
	jitter := uint64(cfg.Workload.MaxHopDelay)
	var budget uint64
	if cfg.Faults != nil {
		jitter += uint64(cfg.Faults.Jitter)
		if cfg.Reliability.Policy == faults.PolicyRetransmit {
			budget = faults.BackoffBudget(uint64(cfg.Reliability.RetryBackoff), cfg.Reliability.MaxAttempts)
		}
	}
	_, hi := cfg.Strategy.Length.Support()
	return uint64(m) + uint64(hi+3)*(1+jitter+budget) + 4
}

// phaseWindows returns the logical-time boundaries of the run's phases:
// phase e owns [T[e], T[e+1]), and the last boundary is the run's virtual
// span. A phase's window is phaseSpan over its first attempts — a static
// run is one window of Messages × Rounds — and MaxAttempts such windows
// under PolicyReroute, whose waves each re-inject at most the phase's
// messages before the phase ends.
func phaseWindows(cfg *Config) []uint64 {
	phases := cfg.phases
	if len(phases) == 0 {
		phases = []phase{cfg.staticPhase()}
	}
	waves := uint64(1)
	if cfg.Faults != nil && cfg.Reliability.Policy == faults.PolicyReroute {
		waves = uint64(cfg.Reliability.MaxAttempts)
	}
	T := make([]uint64, len(phases)+1)
	for e := range phases {
		m := phases[e].epoch.Messages + cfg.Workload.Messages*phases[e].epoch.Rounds
		T[e+1] = T[e] + waves*phaseSpan(cfg, m)
	}
	return T
}

// virtualSpan is the total virtual-time span of the run, the end of its
// last phase window.
func virtualSpan(cfg *Config) uint64 {
	T := phaseWindows(cfg)
	return T[len(T)-1]
}

// lossy reports whether the run's fault plan can lose or retry a
// transmission, the runs whose attempts leak partial evidence into
// HDegraded.
func (c *Config) lossy() bool {
	return c.Faults != nil && (c.Faults.LinkLoss > 0 || c.Reliability.Policy != faults.PolicyNone)
}
