package scenario

// Error classification. Every consumer that must react to a scenario
// failure — the CLIs picking an exit code, the anond daemon picking an
// HTTP status — routes through Classify, so "what kind of failure is
// this" is decided exactly once. The classes follow the layer's error
// contract: configuration errors wrap a *: invalid-configuration
// sentinel, backend refusals are *CapabilityError values, cancellation
// wraps the context error, and everything else is a runtime failure.
//
// What each backend can run is decided once too: Run consults the
// refusal table below before it dispatches, so no backend refuses on its
// own and every refusal names the backend the config asked for.

import (
	"context"
	"errors"
	"fmt"

	"anonmix/internal/adversary"
	"anonmix/internal/dist"
	"anonmix/internal/faults"
	"anonmix/internal/pathsel"
	"anonmix/internal/simnet"
)

// Sentinel reasons a backend refuses a scenario. Match with errors.Is.
var (
	// ErrComplicatedPaths reports a strategy with cyclic (complicated)
	// routes, which the simple-path posterior model does not cover; run it
	// on the testbed's crowds substrate.
	ErrComplicatedPaths = errors.New("complicated (cyclic) routes exceed the simple-path analysis")
	// ErrProtocol reports a protocol substrate the backend cannot execute
	// (analytic backends evaluate strategies, not wire protocols).
	ErrProtocol = errors.New("protocol substrate not executable on this backend")
	// ErrInference reports an inference model (the no-sender-self-report
	// ablation) the backend cannot honor.
	ErrInference = errors.New("inference model not supported by this backend")
	// ErrFaults reports a fault-plan element (retry policy, crash
	// schedule) the backend cannot execute.
	ErrFaults = errors.New("fault plan not executable on this backend")
)

// CapabilityError is a backend refusing a scenario it cannot express:
// Backend names the refusing backend, Reason is one of the sentinels
// above, and Detail narrows it to the offending scenario element.
type CapabilityError struct {
	// Backend names the backend that refused ("exact", "mc", "testbed").
	Backend string
	// Reason is the sentinel cause; errors.Is(err, Reason) holds.
	Reason error
	// Detail names the offending scenario element (strategy, protocol).
	Detail string
}

// Error renders backend, reason, and detail.
func (e *CapabilityError) Error() string {
	if e.Detail == "" {
		return fmt.Sprintf("scenario: %s backend: %v", e.Backend, e.Reason)
	}
	return fmt.Sprintf("scenario: %s backend: %v: %s", e.Backend, e.Reason, e.Detail)
}

// Unwrap exposes the sentinel reason to errors.Is.
func (e *CapabilityError) Unwrap() error { return e.Reason }

// refusal is the capability table of the three backends, one row per
// case, first match wins: it returns the refusal of a normalized config
// its backend cannot run, or nil. The analytic backends (exact, mc)
// compute on the simple-path model, so they refuse wire protocols with
// their own routing; the testbed runs every protocol, cyclic routes on
// its crowds substrate only, and that substrate assumes a fixed crowd.
// The sampled analyses identify a compromised sender outright, so only
// the exact closed forms honor the no-self-report ablation, and the exact
// backend's sessions run the sampled driver. Crash schedules are timing
// phenomena of the event kernel, and the closed form covers PolicyNone
// loss only.
func refusal(c *Config) error {
	exact, testbed := c.Backend == BackendExact, c.Backend == BackendTestbed
	var reason error
	var detail string
	switch {
	case !testbed && c.Protocol != ProtocolPlain && c.Protocol != ProtocolOnion:
		reason, detail = ErrProtocol, c.Protocol.String()
	case testbed && c.Protocol == ProtocolCrowds && len(c.phases) > 0:
		reason, detail = ErrProtocol, "crowds substrate does not support dynamic populations yet"
	case c.Protocol != ProtocolCrowds && c.Strategy.Kind != pathsel.Simple:
		reason, detail = ErrComplicatedPaths, c.Strategy.Name+" (run it on the testbed's crowds substrate)"
	case c.Protocol != ProtocolCrowds && c.Adversary.NoSenderSelfReport && (!exact || c.sessions()):
		reason, detail = ErrInference, "no-sender-self-report ablation is exact single-shot only"
	case exact && c.Faults != nil && c.Reliability.Policy != faults.PolicyNone:
		reason, detail = ErrFaults, "retry policies ("+c.Reliability.Policy.String()+") are sampled-backend-only; the closed form covers PolicyNone loss"
	case !testbed && c.Faults != nil && len(c.Faults.Crashes) > 0:
		reason, detail = ErrFaults, "crash schedules are testbed-only"
	default:
		return nil
	}
	return &CapabilityError{Backend: string(c.Backend), Reason: reason, Detail: detail}
}

// ErrorClass partitions scenario-layer failures for exit codes and HTTP
// statuses.
type ErrorClass int

// The failure classes, from least to most specific match order.
const (
	// ClassRuntime is every failure not claimed below: kernel faults,
	// internal accounting errors, I/O. CLIs exit 1, anond answers 500.
	ClassRuntime ErrorClass = iota
	// ClassBadConfig is an invalid configuration or usage error: the
	// request can never succeed as written. CLIs exit 2, anond answers
	// 400.
	ClassBadConfig
	// ClassCapability is a backend refusing a scenario it cannot express
	// (a *CapabilityError): the configuration is well-formed but this
	// backend cannot execute it — switch backends and retry. CLIs exit 1,
	// anond answers 422.
	ClassCapability
	// ClassCanceled is a run aborted by context cancellation or deadline
	// (RunContext): not a property of the configuration at all. CLIs
	// exit 1, anond logs the disconnect without answering.
	ClassCanceled
)

// String names the class.
func (c ErrorClass) String() string {
	switch c {
	case ClassBadConfig:
		return "bad_config"
	case ClassCapability:
		return "capability"
	case ClassCanceled:
		return "canceled"
	default:
		return "runtime"
	}
}

// badConfigSentinels are the invalid-configuration sentinels of the
// scenario layer and every package a normalized config can surface
// errors from. The errcontract analyzer pins that each package's
// Validate/Parse helpers %w-wrap its sentinel, which is what makes this
// list — rather than string matching — sufficient.
var badConfigSentinels = []error{
	ErrBadConfig,
	ErrUnknownBackend,
	adversary.ErrBadConfig,
	simnet.ErrBadConfig,
	dist.ErrInvalid,
	pathsel.ErrBadStrategy,
	faults.ErrBadPlan,
}

// Classify maps an error from Run/RunContext (or the layers it fronts)
// to its failure class. Order matters: cancellation first (a canceled
// run may surface any half-finished error underneath), then capability
// refusals, then the bad-config sentinels, with runtime as the default.
// A nil error is ClassRuntime; callers decide on err != nil first.
func Classify(err error) ErrorClass {
	if err == nil {
		return ClassRuntime
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return ClassCanceled
	}
	var capErr *CapabilityError
	if errors.As(err, &capErr) {
		return ClassCapability
	}
	for _, s := range badConfigSentinels {
		if errors.Is(err, s) {
			return ClassBadConfig
		}
	}
	return ClassRuntime
}

// ExitCode is the CLI exit-code contract shared by anonsim, anonopt, and
// anonbench: 0 for nil, 2 for configuration/usage errors (the invocation
// can never succeed as written), 1 for everything else — capability
// refusals, cancellations, and runtime failures.
func ExitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case Classify(err) == ClassBadConfig:
		return 2
	default:
		return 1
	}
}
