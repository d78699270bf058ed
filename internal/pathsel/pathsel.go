// Package pathsel implements the rerouting path selection algorithm of
// Guan et al. (ICDCS 2002) Figure 2: (1) draw a path length from the
// strategy's distribution, (2) choose the sequence of intermediate nodes.
// A Strategy pairs a length distribution with a route shape, NewSelector
// validates it against a system size, and each worker draws paths through
// its own Sampler built from that Selector. A Sampler takes its draws from
// a counter-based stats.Stream, so a path is a function of the stream's
// (seed, index) identity alone.
//
// The package ships presets for every system surveyed in §2 of the paper —
// Anonymizer, LPWA, Anonymous Remailer, Onion Routing I/II, Crowds,
// Hordes, Freedom, and PipeNet — expressed through their path-length
// strategies.
package pathsel

import (
	"errors"
	"fmt"

	"anonmix/internal/dist"
)

// Errors returned by the selector and its samplers.
var (
	// ErrBadStrategy reports an inconsistent strategy definition.
	ErrBadStrategy = errors.New("pathsel: invalid strategy")
	// ErrBadSender reports a sender outside the node range.
	ErrBadSender = errors.New("pathsel: sender outside system")
)

// PathKind distinguishes the two route shapes of §3.2.
type PathKind uint8

// Path kinds.
const (
	// Simple paths never revisit a node (and never include the sender as
	// an intermediate). This is the shape the exact engine analyzes.
	Simple PathKind = iota + 1
	// Complicated paths are chosen hop by hop uniformly at random and may
	// contain cycles, as in Crowds and Onion Routing II.
	Complicated
)

// String names the kind.
func (k PathKind) String() string {
	switch k {
	case Simple:
		return "simple"
	case Complicated:
		return "complicated"
	default:
		return fmt.Sprintf("PathKind(%d)", uint8(k))
	}
}

// Strategy is a named path-selection policy: a path-length distribution
// plus the route shape.
type Strategy struct {
	// Name identifies the strategy in reports (e.g. "Onion Routing I").
	Name string
	// Length is the path-length distribution.
	Length dist.Length
	// Kind selects simple or complicated routes.
	Kind PathKind
}

// Validate checks the strategy against a system of n nodes.
func (s Strategy) Validate(n int) error {
	if s.Length == nil {
		return fmt.Errorf("%w: nil length distribution", ErrBadStrategy)
	}
	if err := dist.Validate(s.Length); err != nil {
		return fmt.Errorf("%w: %v", ErrBadStrategy, err)
	}
	if s.Kind != Simple && s.Kind != Complicated {
		return fmt.Errorf("%w: kind %v", ErrBadStrategy, s.Kind)
	}
	_, hi := s.Length.Support()
	if s.Kind == Simple && hi > n-1 {
		return fmt.Errorf("%w: simple paths of length %d impossible with %d nodes",
			ErrBadStrategy, hi, n)
	}
	return nil
}

// String renders the name, distribution, and kind.
func (s Strategy) String() string {
	return fmt.Sprintf("%s{%s,%s}", s.Name, s.Length, s.Kind)
}

// Selector is a validated (system size, strategy) pair. It draws nothing
// itself: each worker builds a Sampler from it with NewSampler.
type Selector struct {
	n        int
	strategy Strategy
}

// NewSelector validates the strategy against an n-node system.
func NewSelector(n int, s Strategy) (*Selector, error) {
	if n < 2 {
		return nil, fmt.Errorf("%w: n = %d", ErrBadStrategy, n)
	}
	if err := s.Validate(n); err != nil {
		return nil, err
	}
	return &Selector{n: n, strategy: s}, nil
}

// The presets below encode the path-selection behavior of the systems
// surveyed in §2 of the paper. Construction errors are impossible for the
// fixed parameters and are converted to panics in the unexported helper —
// the exported constructors that take user parameters return errors.

func mustFixed(name string, l int) Strategy {
	f, err := dist.NewFixed(l)
	if err != nil {
		panic(fmt.Sprintf("pathsel: preset %s: %v", name, err))
	}
	return Strategy{Name: name, Length: f, Kind: Simple}
}

// Anonymizer is the single-proxy strategy: every path has exactly one
// intermediate node (the Anonymizer server).
func Anonymizer() Strategy { return mustFixed("Anonymizer", 1) }

// LPWA is the Lucent Personalized Web Assistant strategy, also one proxy.
func LPWA() Strategy { return mustFixed("LPWA", 1) }

// Freedom is the Freedom network strategy: fixed three-node routes, no
// cycles.
func Freedom() Strategy { return mustFixed("Freedom", 3) }

// OnionRoutingI is the first Onion Routing deployment: all routes have
// exactly five hops.
func OnionRoutingI() Strategy { return mustFixed("Onion Routing I", 5) }

// PipeNet is the PipeNet 1.1 strategy: three or four intermediate nodes,
// equiprobably.
func PipeNet() Strategy {
	u, err := dist.NewUniform(3, 4)
	if err != nil {
		panic(fmt.Sprintf("pathsel: preset PipeNet: %v", err))
	}
	return Strategy{Name: "PipeNet", Length: u, Kind: Simple}
}

// Crowds returns the Crowds strategy with forwarding probability pf: after
// the first jondo, each jondo forwards to another jondo with probability pf
// (geometric lengths, cycles allowed). maxLen truncates the geometric tail;
// use n−1 to match the exact engine's simple-path analysis support.
func Crowds(pf float64, maxLen int) (Strategy, error) {
	g, err := dist.NewGeometric(pf, 1, maxLen)
	if err != nil {
		return Strategy{}, err
	}
	return Strategy{Name: "Crowds", Length: g, Kind: Complicated}, nil
}

// OnionRoutingII returns the Onion Routing II strategy, which borrows the
// Crowds coin-flip route selection (geometric lengths, cycles allowed).
func OnionRoutingII(pf float64, maxLen int) (Strategy, error) {
	g, err := dist.NewGeometric(pf, 1, maxLen)
	if err != nil {
		return Strategy{}, err
	}
	return Strategy{Name: "Onion Routing II", Length: g, Kind: Complicated}, nil
}

// Hordes returns the Hordes forward-path strategy: like Crowds it routes
// requests through coin-flip jondo chains with cycles allowed (replies go
// back over multicast, which does not affect the sender-anonymity forward
// path the paper analyzes).
func Hordes(pf float64, maxLen int) (Strategy, error) {
	g, err := dist.NewGeometric(pf, 1, maxLen)
	if err != nil {
		return Strategy{}, err
	}
	return Strategy{Name: "Hordes", Length: g, Kind: Complicated}, nil
}

// Remailer returns an Anonymous-Remailer-style strategy with a fixed chain
// of the given length.
func Remailer(chain int) (Strategy, error) {
	f, err := dist.NewFixed(chain)
	if err != nil {
		return Strategy{}, err
	}
	return Strategy{Name: "Anonymous Remailer", Length: f, Kind: Simple}, nil
}

// FixedLength returns the paper's F(l) strategy on simple paths.
func FixedLength(l int) (Strategy, error) {
	f, err := dist.NewFixed(l)
	if err != nil {
		return Strategy{}, err
	}
	return Strategy{Name: fmt.Sprintf("F(%d)", l), Length: f, Kind: Simple}, nil
}

// UniformLength returns the paper's U(a,b) strategy on simple paths.
func UniformLength(a, b int) (Strategy, error) {
	u, err := dist.NewUniform(a, b)
	if err != nil {
		return Strategy{}, err
	}
	return Strategy{Name: fmt.Sprintf("U(%d,%d)", a, b), Length: u, Kind: Simple}, nil
}

// WithLength returns a simple-path strategy for an arbitrary distribution,
// e.g. an optimizer output.
func WithLength(name string, d dist.Length) (Strategy, error) {
	if d == nil {
		return Strategy{}, fmt.Errorf("%w: nil distribution", ErrBadStrategy)
	}
	return Strategy{Name: name, Length: d, Kind: Simple}, nil
}
