package scenario_test

// Fuzz targets for the scenario layer's input surface, mirroring
// onion.FuzzBuildPeel: arbitrary configurations and CLI epoch specs must
// never panic, and the only errors that escape Run are the uniform
// configuration error (ErrBadConfig / pathsel.ErrBadStrategy) and backend
// capability refusals.

import (
	"errors"
	"strings"
	"testing"
	"unicode"

	"anonmix/internal/pathsel"
	"anonmix/internal/scenario"
	"anonmix/internal/trace"
)

// boundedSpec rejects specs whose numeric arguments are large enough to
// make strategy construction itself expensive (the truncated-geometric
// constructor is linear in maxLen); the fuzzer should explore the parse
// and validation space, not benchmark it.
func boundedSpec(spec string) bool {
	digits := 0
	for _, r := range spec {
		if unicode.IsDigit(r) {
			digits++
			if digits > 6 {
				return false
			}
		} else {
			digits = 0
		}
	}
	return true
}

// allowedRunError reports whether an error is part of Run's contract.
func allowedRunError(err error) bool {
	if errors.Is(err, scenario.ErrBadConfig) || errors.Is(err, pathsel.ErrBadStrategy) ||
		errors.Is(err, scenario.ErrUnknownBackend) {
		return true
	}
	var capErr *scenario.CapabilityError
	return errors.As(err, &capErr)
}

// FuzzNormalize drives scenario.Run (exact backend, tiny budgets) with
// arbitrary field values, seeded from the validation-table cases. Where
// the count c fits the system, the config's explicit-prefix twin must
// give the same dump, or an error of the same class.
func FuzzNormalize(f *testing.F) {
	// Seeds mirror the validation tables of scenario_test and
	// timeline_test: the known-tricky corners of the space.
	f.Add(12, 2, "fixed:3", "plain", 0.0, 10, 1, 0.0, false, 0, "", false, false)
	f.Add(12, 2, "crowds:0.7", "onion", 0.0, 100, 1, 0.0, false, 0, "", false, false)
	f.Add(12, 2, "fixed:3", "plain", 1.5, 10, 1, 0.0, false, 0, "", false, false)
	f.Add(12, 2, "fixed:3", "plain", 0.0, 0, 4, 0.0, false, 0, "", false, false)
	f.Add(12, 2, "fixed:3", "plain", 0.0, 10, -1, 0.0, false, 0, "", false, false)
	f.Add(12, 2, "fixed:3", "plain", 0.0, 10, 1, 1.0, false, 0, "", false, false)
	f.Add(12, 2, "fixed:3", "plain", 0.0, 10, 1, 0.0, true, 12, "", false, false)
	f.Add(12, 2, "fixed:3", "plain", 0.0, 10, 1, 0.0, true, 1, "", false, false)
	f.Add(12, 2, "fixed:3", "mix", 0.0, 10, 1, 0.0, false, 0, "", true, true)
	f.Add(12, 2, "fixed:3", "plain", 0.0, 100, 1, 0.0, false, 0, "msgs=10;msgs=10,join=2", false, false)
	f.Add(12, 2, "fixed:3", "plain", 0.0, 50, 0, 0.9, false, 0, "rounds=2;rounds=2,comp=3", false, false)
	f.Add(12, 2, "fixed:9", "plain", 0.0, 0, 1, 0.0, false, 0, "msgs=10;msgs=10,leave=4", false, false)
	f.Add(12, 2, "uniform:0,6", "plain", 0.0, 10, 1, 0.0, false, 0, "msgs=1,rounds=1", false, false)
	f.Add(12, 2, "remailer:2", "plain", 0.0, 10, 1, 0.0, false, 0, "join=2;leave=2", false, false)

	f.Fuzz(func(t *testing.T, n, c int, spec, proto string, pf float64,
		messages, rounds int, conf float64, fixedSender bool, sender int,
		epochs string, uncompReceiver, noSelfReport bool) {
		if !boundedSpec(spec) {
			return
		}
		// Bound the run cost, not the validation space: sizes stay
		// arbitrary in sign and shape, only magnitudes are clamped.
		if n > 48 {
			n %= 48
		}
		if c > 48 {
			c %= 48
		}
		if messages > 256 {
			messages %= 256
		}
		if rounds > 8 {
			rounds %= 8
		}
		timeline, err := scenario.ParseTimeline(epochs)
		if err != nil {
			if !errors.Is(err, scenario.ErrBadConfig) {
				t.Fatalf("ParseTimeline(%q) escaped with %v", epochs, err)
			}
			timeline = nil
		}
		if len(timeline) > 6 {
			timeline = timeline[:6]
		}
		for i := range timeline {
			if timeline[i].Messages > 128 {
				timeline[i].Messages %= 128
			}
			if timeline[i].Rounds > 4 {
				timeline[i].Rounds %= 4
			}
			for _, field := range []*int{&timeline[i].Join, &timeline[i].Leave, &timeline[i].Compromise, &timeline[i].Recover} {
				if *field > 64 {
					*field %= 64
				}
			}
		}
		protocol, err := scenario.ParseProtocol(proto)
		if err != nil {
			if !errors.Is(err, scenario.ErrBadConfig) {
				t.Fatalf("ParseProtocol(%q) escaped with %v", proto, err)
			}
			return
		}
		cfg := scenario.Config{
			N:            n,
			Backend:      scenario.BackendExact,
			StrategySpec: spec,
			Protocol:     protocol,
			CrowdsPf:     pf,
			Adversary: scenario.Adversary{
				Count:                 c,
				UncompromisedReceiver: uncompReceiver,
				NoSenderSelfReport:    noSelfReport,
			},
			Timeline: timeline,
			Workload: scenario.Workload{
				Messages:    messages,
				Rounds:      rounds,
				Confidence:  conf,
				FixedSender: fixedSender,
				Sender:      trace.NodeID(sender),
				Seed:        1,
			},
		}
		res, err := scenario.Run(cfg)
		if err != nil && !allowedRunError(err) {
			t.Fatalf("Run escaped with %v (%T)\nconfig: %+v", err, err, cfg)
		}
		if c < 0 || c > n {
			return
		}
		// A count and the explicit list of its first c nodes are one
		// adversary. The twin runs on the engines the first run cached.
		twin := cfg
		twin.Adversary.Compromised, twin.Adversary.Count = prefix(c), 0
		twinRes, twinErr := scenario.Run(twin)
		switch {
		case (err == nil) != (twinErr == nil), err != nil && scenario.Classify(err) != scenario.Classify(twinErr):
			t.Fatalf("count %d gave %v, its explicit prefix %v\nconfig: %+v", c, err, twinErr, cfg)
		case err == nil && dumpResult(res) != dumpResult(twinRes):
			t.Fatalf("count %d and its explicit prefix differ: %s\nconfig: %+v",
				c, fieldDiff(dumpResult(twinRes), dumpResult(res)), cfg)
		}
	})
}

// FuzzParseTimeline exercises the CLI epoch syntax directly: no panics,
// and every rejection is ErrBadConfig.
func FuzzParseTimeline(f *testing.F) {
	f.Add("msgs=2000;msgs=2000,join=10,comp=2")
	f.Add("rounds=4;rounds=4,leave=3,recover=1")
	f.Add(";;,")
	f.Add("msgs")
	f.Add("warp=3")
	f.Add("m=1,r=2,j=3,leave=4,comp=5,recover=6")
	f.Fuzz(func(t *testing.T, s string) {
		tl, err := scenario.ParseTimeline(s)
		if err != nil {
			if !errors.Is(err, scenario.ErrBadConfig) {
				t.Fatalf("ParseTimeline(%q) escaped with %v", s, err)
			}
			return
		}
		if strings.TrimSpace(s) != "" && len(tl) == 0 {
			t.Fatalf("ParseTimeline(%q) returned no epochs and no error", s)
		}
	})
}
