package pathsel

// The strategy registry makes every strategy name-addressable, so CLIs,
// scenario configs, and experiment files can all say "crowds:0.75,20" or
// "uniform:0,10" instead of hand-wiring per-flag constructors. Specs have
// the shape
//
//	name[:arg1,arg2,...]
//
// with the arguments parsed by the named entry. The entries cover every
// preset of §2 of the paper plus the parametric families.

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// ErrUnknownStrategy reports a spec whose name no registry entry claims.
var ErrUnknownStrategy = fmt.Errorf("%w: unknown strategy name", ErrBadStrategy)

// DefaultGeometricMax is the truncation bound used by geometric-length
// specs (crowds, onionrouting2, hordes) when the spec omits the explicit
// maximum length. Callers that know N should pass min(wanted, N−1)
// explicitly; the default keeps short specs like "crowds:0.75" usable.
const DefaultGeometricMax = 20

// Entry describes one registered strategy family.
type Entry struct {
	// Name is the spec prefix, lower-case ("crowds", "uniform").
	Name string
	// Usage documents the argument list ("crowds:pf[,maxLen]").
	Usage string
	// Parse builds the strategy from the comma-separated argument list of
	// a spec (already split from the name; empty when the spec had no
	// colon).
	Parse func(args []string) (Strategy, error)
}

// Bounds of the parsed-spec memo. Specs can come from clients (anond
// passes request strings to Lookup), so the memo holds at most
// maxMemoSpecs entries, reset wholesale when full, and never keeps a
// spec longer than maxMemoSpecLen bytes: a stream of distinct or padded
// specs costs parses, not memory.
const (
	maxMemoSpecs   = 1024
	maxMemoSpecLen = 256
)

var (
	// registry maps an entry's name to the entry. init fills it, and it is
	// read-only after, so readers take no lock.
	registry = map[string]Entry{}
	// memo maps a spec string to its successful parse, under memoMu.
	memoMu sync.RWMutex
	memo   = map[string]Strategy{}
)

// Specs lists the registered entries sorted by name, for -help output.
func Specs() []Entry {
	out := make([]Entry, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Lookup resolves a strategy spec such as "freedom", "fixed:5",
// "uniform:0,10", or "crowds:0.75,20". Names are case-insensitive;
// surrounding whitespace is ignored. Successful parses are memoized by
// the spec string, so a repeated spec costs one map lookup and returns
// the strategy its first parse built; failed specs are parsed again on
// every call.
func Lookup(spec string) (Strategy, error) {
	memoMu.RLock()
	s, ok := memo[spec]
	memoMu.RUnlock()
	if ok {
		return s, nil
	}
	s, err := parse(spec)
	if err != nil || len(spec) > maxMemoSpecLen {
		return s, err
	}
	memoMu.Lock()
	if len(memo) >= maxMemoSpecs {
		clear(memo)
	}
	memo[strings.Clone(spec)] = s
	memoMu.Unlock()
	return s, nil
}

// parse resolves a spec through its registry entry.
func parse(spec string) (Strategy, error) {
	name := strings.TrimSpace(spec)
	var args []string
	if i := strings.IndexByte(name, ':'); i >= 0 {
		for _, a := range strings.Split(name[i+1:], ",") {
			args = append(args, strings.TrimSpace(a))
		}
		name = name[:i]
	}
	e, ok := registry[strings.ToLower(strings.TrimSpace(name))]
	if !ok {
		return Strategy{}, fmt.Errorf("%w: %q (known: %s)", ErrUnknownStrategy, spec, knownNames())
	}
	s, err := e.Parse(args)
	if err != nil {
		if errors.Is(err, ErrBadStrategy) {
			return Strategy{}, fmt.Errorf("pathsel: spec %q (usage %s): %w", spec, e.Usage, err)
		}
		// Constructor errors (e.g. dist validation) gain the strategy
		// sentinel so callers can match the whole family with errors.Is.
		return Strategy{}, fmt.Errorf("%w: spec %q (usage %s): %w", ErrBadStrategy, spec, e.Usage, err)
	}
	return s, nil
}

// SplitSpecs splits a semicolon-separated spec list ("freedom;uniform:1,5")
// into individual specs, trimming whitespace and dropping empties. The
// separator is a semicolon because commas appear inside specs. Every CLI
// spec-list flag goes through this helper so their syntax cannot drift.
func SplitSpecs(list string) []string {
	var out []string
	for _, s := range strings.Split(list, ";") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}

// knownNames renders the sorted registry names for error messages.
func knownNames() string {
	specs := Specs()
	names := make([]string, len(specs))
	for i, e := range specs {
		names[i] = e.Name
	}
	return strings.Join(names, ", ")
}

// argInts parses exactly want integer arguments.
func argInts(args []string, want int) ([]int, error) {
	if len(args) != want {
		return nil, fmt.Errorf("%w: need %d argument(s), have %d", ErrBadStrategy, want, len(args))
	}
	out := make([]int, len(args))
	for i, a := range args {
		v, err := strconv.Atoi(a)
		if err != nil {
			return nil, fmt.Errorf("%w: argument %q: %v", ErrBadStrategy, a, err)
		}
		out[i] = v
	}
	return out, nil
}

// argGeometric parses "pf[,maxLen]" for the coin-flip families.
func argGeometric(args []string) (pf float64, maxLen int, err error) {
	if len(args) < 1 || len(args) > 2 {
		return 0, 0, fmt.Errorf("%w: need pf[,maxLen]", ErrBadStrategy)
	}
	pf, err = strconv.ParseFloat(args[0], 64)
	if err != nil {
		return 0, 0, fmt.Errorf("%w: pf %q: %v", ErrBadStrategy, args[0], err)
	}
	maxLen = DefaultGeometricMax
	if len(args) == 2 {
		maxLen, err = strconv.Atoi(args[1])
		if err != nil {
			return 0, 0, fmt.Errorf("%w: maxLen %q: %v", ErrBadStrategy, args[1], err)
		}
	}
	return pf, maxLen, nil
}

// noArgs wraps a preset constructor as a parser rejecting arguments.
func noArgs(name string, f func() Strategy) func([]string) (Strategy, error) {
	return func(args []string) (Strategy, error) {
		if len(args) != 0 {
			return Strategy{}, fmt.Errorf("%w: %s takes no arguments", ErrBadStrategy, name)
		}
		return f(), nil
	}
}

func init() {
	for _, e := range []Entry{
		{Name: "anonymizer", Usage: "anonymizer", Parse: noArgs("anonymizer", Anonymizer)},
		{Name: "lpwa", Usage: "lpwa", Parse: noArgs("lpwa", LPWA)},
		{Name: "freedom", Usage: "freedom", Parse: noArgs("freedom", Freedom)},
		{Name: "pipenet", Usage: "pipenet", Parse: noArgs("pipenet", PipeNet)},
		{Name: "onionrouting1", Usage: "onionrouting1", Parse: noArgs("onionrouting1", OnionRoutingI)},
		{Name: "fixed", Usage: "fixed:l", Parse: func(args []string) (Strategy, error) {
			v, err := argInts(args, 1)
			if err != nil {
				return Strategy{}, err
			}
			return FixedLength(v[0])
		}},
		{Name: "uniform", Usage: "uniform:a,b", Parse: func(args []string) (Strategy, error) {
			v, err := argInts(args, 2)
			if err != nil {
				return Strategy{}, err
			}
			return UniformLength(v[0], v[1])
		}},
		{Name: "remailer", Usage: "remailer:chain", Parse: func(args []string) (Strategy, error) {
			v, err := argInts(args, 1)
			if err != nil {
				return Strategy{}, err
			}
			return Remailer(v[0])
		}},
		{Name: "crowds", Usage: "crowds:pf[,maxLen]", Parse: func(args []string) (Strategy, error) {
			pf, maxLen, err := argGeometric(args)
			if err != nil {
				return Strategy{}, err
			}
			return Crowds(pf, maxLen)
		}},
		{Name: "onionrouting2", Usage: "onionrouting2:pf[,maxLen]", Parse: func(args []string) (Strategy, error) {
			pf, maxLen, err := argGeometric(args)
			if err != nil {
				return Strategy{}, err
			}
			return OnionRoutingII(pf, maxLen)
		}},
		{Name: "hordes", Usage: "hordes:pf[,maxLen]", Parse: func(args []string) (Strategy, error) {
			pf, maxLen, err := argGeometric(args)
			if err != nil {
				return Strategy{}, err
			}
			return Hordes(pf, maxLen)
		}},
	} {
		registry[e.Name] = e
	}
}
