package scenario

// Error classification. Every consumer that must react to a scenario
// failure — the CLIs picking an exit code, the anond daemon picking an
// HTTP status — routes through Classify, so "what kind of failure is
// this" is decided exactly once. The classes follow the layer's error
// contract: configuration errors wrap a *: invalid-configuration
// sentinel, backend refusals are *capability.Error values, cancellation
// wraps the context error, and everything else is a runtime failure.

import (
	"context"
	"errors"

	"anonmix/internal/adversary"
	"anonmix/internal/dist"
	"anonmix/internal/faults"
	"anonmix/internal/pathsel"
	"anonmix/internal/scenario/capability"
	"anonmix/internal/simnet"
)

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
	// (a *capability.Error): the configuration is well-formed but this
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
	var capErr *capability.Error
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
