// Package capability defines the backend-capability error vocabulary of
// the scenario layer: when a backend cannot evaluate a scenario (the exact
// engine refuses cyclic routes, the testbed refuses a protocol it has no
// substrate for), it reports a *capability.Error wrapping one of the
// sentinel reasons here, instead of a per-package ad-hoc error.
//
// The package is deliberately dependency-free, so a caller can match a
// refusal with errors.Is without importing the backend that made it.
package capability

import (
	"errors"
	"fmt"
)

// Sentinel reasons a backend refuses a scenario. Match with errors.Is.
var (
	// ErrComplicatedPaths reports a strategy with cyclic (complicated)
	// routes, which the exact simple-path posterior model does not cover;
	// use the testbed backend or package crowds' predecessor analysis.
	ErrComplicatedPaths = errors.New("complicated (cyclic) routes exceed the simple-path analysis")
	// ErrProtocol reports a protocol substrate the backend cannot execute
	// (analytic backends evaluate strategies, not wire protocols).
	ErrProtocol = errors.New("protocol substrate not executable on this backend")
	// ErrInference reports an engine option (inference mode, receiver
	// assumption) the backend cannot honor.
	ErrInference = errors.New("inference model not supported by this backend")
	// ErrScale reports a configuration whose size the backend cannot
	// handle (e.g. exhaustive enumeration far beyond its class-space cap).
	ErrScale = errors.New("configuration too large for this backend")
	// ErrFaults reports a fault-plan element (retry policy, crash
	// schedule) the backend cannot execute.
	ErrFaults = errors.New("fault plan not executable on this backend")
)

// Error is a backend-capability failure: Backend names the refusing
// backend, Reason is one of the sentinels above (or another error), and
// Detail narrows it to the offending scenario element.
type Error struct {
	// Backend names the backend that refused ("exact", "montecarlo",
	// "testbed").
	Backend string
	// Reason is the sentinel cause; errors.Is(err, Reason) holds.
	Reason error
	// Detail names the offending scenario element (strategy, protocol).
	Detail string
}

// Error renders backend, reason, and detail.
func (e *Error) Error() string {
	if e.Detail == "" {
		return fmt.Sprintf("scenario: %s backend: %v", e.Backend, e.Reason)
	}
	return fmt.Sprintf("scenario: %s backend: %v: %s", e.Backend, e.Reason, e.Detail)
}

// Unwrap exposes the sentinel reason to errors.Is.
func (e *Error) Unwrap() error { return e.Reason }

// Unsupported builds a capability error.
func Unsupported(backend string, reason error, detail string) *Error {
	return &Error{Backend: backend, Reason: reason, Detail: detail}
}
