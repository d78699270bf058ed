package scenario_test

// The whole-Result golden: a fixed matrix of configurations on every
// backend, each printed field by field (floats as their IEEE-754 bits)
// into testdata/results.golden. A change that moves any bit of any
// included field fails here; `go test -run TestResultGolden -update`
// regenerates the file, and a commit that does so must say why.
//
// Excluded, each for a reason:
//
//   - Result.Elapsed, Kernel.Goroutines and Kernel.EventsPerSec read the
//     wall clock or the process's goroutine count.
//   - Kernel.Shards follows GOMAXPROCS.

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"anonmix/internal/faults"
	"anonmix/internal/pathsel"
	"anonmix/internal/scenario"
	"anonmix/internal/trace"
)

var update = flag.Bool("update", false, "regenerate testdata/results.golden")

// goldenExcluded names the fields the dump leaves out (see the file
// comment for the reasons).
var goldenExcluded = map[string]bool{
	"Elapsed":             true,
	"Kernel.Shards":       true,
	"Kernel.Goroutines":   true,
	"Kernel.EventsPerSec": true,
}

type goldenCase struct {
	name string
	cfg  scenario.Config
}

// goldenMatrix is the configuration matrix of the golden file.
func goldenMatrix() []goldenCase {
	var out []goldenCase
	add := func(name string, cfg scenario.Config) { out = append(out, goldenCase{name, cfg}) }
	base := func(backend scenario.BackendKind) scenario.Config {
		return scenario.Config{
			N:            18,
			Backend:      backend,
			StrategySpec: "uniform:1,5",
			Adversary:    scenario.Adversary{Count: 3},
			Workload:     scenario.Workload{Messages: 500, Seed: 11, Workers: 3},
		}
	}
	nonPrefix := []trace.NodeID{13, 2, 8}
	messagesTimeline := []scenario.Epoch{
		{Messages: 300},
		{Join: 4},
		{Messages: 250, Join: 2, Compromise: 2},
		{Messages: 200, Leave: 3, Recover: 1},
	}
	roundsTimeline := []scenario.Epoch{
		{Rounds: 3},
		{Rounds: 2, Join: 4, Compromise: 2},
		{Join: 1},
		{Rounds: 3, Leave: 3, Recover: 1},
	}

	// Single-shot Monte-Carlo and exact runs: static and Messages timelines.
	for _, b := range []scenario.BackendKind{scenario.BackendMonteCarlo, scenario.BackendExact} {
		p := string(b) + "/"
		add(p+"static", base(b))
		cfg := base(b)
		cfg.Workload.FixedSender, cfg.Workload.Sender = true, 7
		add(p+"static-fixed-sender", cfg)
		cfg = base(b)
		cfg.Adversary.UncompromisedReceiver = true
		add(p+"static-honest-receiver", cfg)
		cfg = base(b)
		cfg.Adversary = scenario.Adversary{Compromised: nonPrefix}
		add(p+"static-nonprefix", cfg)
		cfg = base(b)
		cfg.StrategySpec = "fixed:3"
		cfg.Adversary.Count = 0
		add(p+"static-no-adversary", cfg)

		tl := func() scenario.Config {
			cfg := base(b)
			cfg.Workload.Messages = 0
			cfg.Timeline = messagesTimeline
			return cfg
		}
		add(p+"timeline", tl())
		cfg = tl()
		cfg.Workload.FixedSender, cfg.Workload.Sender = true, 9
		add(p+"timeline-fixed-sender", cfg)
		cfg = tl()
		cfg.Adversary.UncompromisedReceiver = true
		add(p+"timeline-honest-receiver", cfg)
		cfg = tl()
		cfg.Adversary = scenario.Adversary{Compromised: nonPrefix}
		add(p+"timeline-nonprefix", cfg)
	}

	// Lossy single-shot runs.
	lossy := func(b scenario.BackendKind, q float64, pol faults.Policy) scenario.Config {
		cfg := base(b)
		cfg.Faults = &faults.Plan{LinkLoss: q}
		cfg.Reliability = faults.Reliability{Policy: pol}
		return cfg
	}
	for _, pol := range []faults.Policy{faults.PolicyNone, faults.PolicyRetransmit, faults.PolicyReroute} {
		add("mc/lossy-"+pol.String(), lossy(scenario.BackendMonteCarlo, 0.15, pol))
	}
	cfg := lossy(scenario.BackendMonteCarlo, 0.2, faults.PolicyRetransmit)
	cfg.Adversary = scenario.Adversary{Compromised: nonPrefix, UncompromisedReceiver: true}
	cfg.Workload.FixedSender, cfg.Workload.Sender = true, 5
	add("mc/lossy-retransmit-nonprefix-fixed", cfg)
	add("exact/lossy-none", lossy(scenario.BackendExact, 0.15, faults.PolicyNone))
	for _, pol := range []faults.Policy{faults.PolicyNone, faults.PolicyRetransmit, faults.PolicyReroute} {
		cfg := lossy(scenario.BackendMonteCarlo, 0.15, pol)
		cfg.Workload.Messages = 0
		cfg.Timeline = messagesTimeline
		add("mc/lossy-timeline-"+pol.String(), cfg)
	}
	cfg = lossy(scenario.BackendExact, 0.15, faults.PolicyNone)
	cfg.Workload.Messages = 0
	cfg.Timeline = messagesTimeline
	add("exact/lossy-timeline-none", cfg)

	// Sessions, static and across a Rounds timeline, with identification
	// tracking.
	for _, b := range []scenario.BackendKind{scenario.BackendMonteCarlo, scenario.BackendExact} {
		p := string(b) + "/"
		cfg := base(b)
		cfg.Workload.Messages, cfg.Workload.Rounds, cfg.Workload.Confidence = 200, 6, 0.9
		add(p+"sessions", cfg)
		cfg.Adversary = scenario.Adversary{Compromised: nonPrefix, UncompromisedReceiver: true}
		cfg.Workload.FixedSender, cfg.Workload.Sender = true, 4
		add(p+"sessions-nonprefix-fixed", cfg)
		cfg = base(b)
		cfg.Workload.Messages, cfg.Workload.Confidence = 200, 0.8
		cfg.Timeline = roundsTimeline
		add(p+"sessions-timeline", cfg)
		cfg.Workload.FixedSender, cfg.Workload.Sender = true, 5
		add(p+"sessions-timeline-fixed", cfg)
	}

	// The testbed's routed substrates.
	for _, proto := range []scenario.Protocol{scenario.ProtocolPlain, scenario.ProtocolOnion, scenario.ProtocolMix} {
		p := "testbed-" + proto.String() + "/"
		tb := func() scenario.Config {
			cfg := base(scenario.BackendTestbed)
			cfg.Protocol = proto
			cfg.Workload.Messages = 300
			return cfg
		}
		add(p+"static", tb())
		cfg := tb()
		cfg.Workload.Messages, cfg.Workload.Rounds, cfg.Workload.Confidence = 80, 4, 0.9
		add(p+"rounds", cfg)
		cfg = tb()
		cfg.Workload.Messages = 0
		cfg.Timeline = messagesTimeline
		add(p+"timeline", cfg)
		cfg = tb()
		cfg.Workload.Messages, cfg.Workload.Confidence = 60, 0.8
		cfg.Timeline = roundsTimeline
		add(p+"timeline-rounds", cfg)
		for _, pol := range []faults.Policy{faults.PolicyNone, faults.PolicyRetransmit, faults.PolicyReroute} {
			cfg := tb()
			cfg.Faults = &faults.Plan{LinkLoss: 0.15}
			cfg.Reliability = faults.Reliability{Policy: pol}
			add(p+"faults-"+pol.String(), cfg)
		}
		cfg = tb()
		cfg.Workload.Messages = 0
		cfg.Timeline = messagesTimeline
		cfg.Faults = &faults.Plan{LinkLoss: 0.15}
		cfg.Reliability = faults.Reliability{Policy: faults.PolicyRetransmit}
		add(p+"timeline-faults-retransmit", cfg)

		// Hop delay, fixed senders, a non-prefix adversary and a
		// drop-on-loss timeline on every substrate.
		cfg = tb()
		cfg.Workload.Messages, cfg.Workload.Rounds, cfg.Workload.Confidence = 80, 4, 0.9
		cfg.Workload.MaxHopDelay = 3
		add(p+"rounds-hopdelay", cfg)
		cfg = tb()
		cfg.Workload.MaxHopDelay = 3
		add(p+"static-hopdelay", cfg)
		cfg = tb()
		cfg.Workload.FixedSender, cfg.Workload.Sender = true, 7
		add(p+"static-fixed-sender", cfg)
		cfg = tb()
		cfg.Adversary = scenario.Adversary{Compromised: nonPrefix, UncompromisedReceiver: true}
		add(p+"static-nonprefix-honest-receiver", cfg)
		cfg = tb()
		cfg.Workload.Messages = 0
		cfg.Timeline = messagesTimeline
		cfg.Faults = &faults.Plan{LinkLoss: 0.15}
		cfg.Reliability = faults.Reliability{Policy: faults.PolicyNone}
		add(p+"timeline-faults-none", cfg)
		cfg = tb()
		cfg.Workload.Messages = 0
		cfg.Timeline = messagesTimeline
		cfg.Workload.FixedSender, cfg.Workload.Sender = true, 9
		cfg.Workload.MaxHopDelay = 3
		add(p+"timeline-fixed-hopdelay", cfg)
		cfg = tb()
		cfg.Workload.Messages = 0
		cfg.Timeline = messagesTimeline
		cfg.Faults = &faults.Plan{LinkLoss: 0.15}
		cfg.Reliability = faults.Reliability{Policy: faults.PolicyReroute}
		add(p+"timeline-faults-reroute", cfg)
	}
	// The jondo substrate, single-shot and in sessions.
	cfg = base(scenario.BackendTestbed)
	cfg.StrategySpec = "crowds:0.7"
	cfg.Workload.Messages = 300
	add("testbed-crowds/static", cfg)
	cfg.Workload.Messages, cfg.Workload.Rounds, cfg.Workload.Confidence = 80, 4, 0.9
	add("testbed-crowds/rounds", cfg)

	cfg = base(scenario.BackendTestbed)
	cfg.Workload.Messages = 300
	cfg.Faults = &faults.Plan{LinkLoss: 0.05, Crashes: []faults.Crash{{Node: 9, At: 40, Recover: 200}}}
	cfg.Reliability = faults.Reliability{Policy: faults.PolicyRetransmit}
	add("testbed-plain/faults-crash-retransmit", cfg)
	return out
}

// TestResultGolden runs the matrix twice in one process on one engine
// cache, forward and then in reverse order, and compares both dumps with
// the golden file byte for byte: a row's bits must not depend on which
// rows built or cached engines before it.
func TestResultGolden(t *testing.T) {
	cases := goldenMatrix()
	rows := make([]string, len(cases))
	run := func(i int) {
		res, err := scenario.Run(cases[i].cfg)
		if err != nil {
			t.Fatalf("%s: %v", cases[i].name, err)
		}
		rows[i] = fmt.Sprintf("%s\t%s\n", cases[i].name, dumpResult(res))
	}
	for i := range cases {
		run(i)
	}
	forward := strings.Join(rows, "")
	for i := len(cases) - 1; i >= 0; i-- {
		run(i)
	}
	reversed := strings.Join(rows, "")
	path := filepath.Join("testdata", "results.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(forward), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	for _, pass := range []struct{ name, got string }{{"forward", forward}, {"reversed", reversed}} {
		if pass.got == string(want) {
			continue
		}
		gotLines, wantLines := strings.Split(pass.got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
			var g, w string
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if g != w {
				t.Errorf("%s pass, line %d differs:\n got: %s\nwant: %s", pass.name, i+1, g, w)
			}
		}
	}
}

// dumpResult prints every included field of r.
func dumpResult(r scenario.Result) string {
	var b strings.Builder
	dumpValue(&b, "", reflect.ValueOf(r))
	return strings.TrimSpace(b.String())
}

// dumpValue prints v under the dotted field path; floats print as their
// bits, so the dump distinguishes values one ulp apart.
func dumpValue(b *strings.Builder, path string, v reflect.Value) {
	if goldenExcluded[path] {
		return
	}
	if s, ok := v.Interface().(pathsel.Strategy); ok {
		fmt.Fprintf(b, " %s=%q/%d", path, s.Name, s.Kind)
		if s.Length != nil {
			lo, hi := s.Length.Support()
			fmt.Fprintf(b, "/[%d,%d]", lo, hi)
			for l := lo; l <= hi; l++ {
				fmt.Fprintf(b, ",%016x", math.Float64bits(s.Length.PMF(l)))
			}
		}
		return
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			name := v.Type().Field(i).Name
			if path != "" {
				name = path + "." + name
			}
			dumpValue(b, name, v.Field(i))
		}
	case reflect.Pointer:
		if v.IsNil() {
			fmt.Fprintf(b, " %s=nil", path)
			return
		}
		dumpValue(b, path, v.Elem())
	case reflect.Slice:
		fmt.Fprintf(b, " %s.len=%d", path, v.Len())
		for i := 0; i < v.Len(); i++ {
			dumpValue(b, fmt.Sprintf("%s[%d]", path, i), v.Index(i))
		}
	case reflect.Float64:
		fmt.Fprintf(b, " %s=%016x", path, math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int64, reflect.Int32, reflect.Uint64, reflect.Bool, reflect.String:
		if v.Type() == reflect.TypeOf(time.Duration(0)) {
			panic("golden: unexcluded duration field " + path)
		}
		fmt.Fprintf(b, " %s=%v", path, v.Interface())
	default:
		panic(fmt.Sprintf("golden: field %s has unhandled kind %v", path, v.Kind()))
	}
}
