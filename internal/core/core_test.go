// Package core_test checks the paper's three workflow steps: H*(S) of a
// strategy, the §5.4 optimum at a latency budget, and the §2 survey
// ranking. The core package that once wrapped them is gone, so these tests
// call the layer underneath directly: scenario.Engine and its
// AnonymityDegree, optimize.Maximize, and scenario.Run for the Monte-Carlo
// rows of cyclic systems.
package core_test

import (
	"errors"
	"math"
	"sort"
	"testing"

	"anonmix/internal/dist"
	"anonmix/internal/entropy"
	"anonmix/internal/events"
	"anonmix/internal/optimize"
	"anonmix/internal/pathsel"
	"anonmix/internal/scenario"
	"anonmix/internal/theory"
	"anonmix/internal/trace"
)

func engine(t *testing.T, n, c int) *events.Engine {
	t.Helper()
	e, err := scenario.Engine(n, c)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func degree(t *testing.T, e *events.Engine, strat pathsel.Strategy) float64 {
	t.Helper()
	h, err := e.AnonymityDegree(strat.Length)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := scenario.Engine(1, 0); !errors.Is(err, events.ErrInvalidSystem) {
		t.Errorf("n=1 err = %v", err)
	}
	e := engine(t, 100, 1)
	if e.N() != 100 || e.C() != 1 {
		t.Errorf("accessors: %d %d", e.N(), e.C())
	}
	if math.Abs(e.MaxAnonymity()-math.Log2(100)) > 1e-12 {
		t.Errorf("MaxAnonymity = %v", e.MaxAnonymity())
	}
}

func TestAnonymityDegreeMatchesTheory(t *testing.T) {
	h := degree(t, engine(t, 100, 1), pathsel.OnionRoutingI())
	want, err := theory.FixedSimpleC1(100, 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h-want) > 1e-12 {
		t.Errorf("OR-I H* = %v, want %v", h, want)
	}
	if norm := entropy.Normalized(h, 100); math.Abs(norm-h/math.Log2(100)) > 1e-12 {
		t.Errorf("normalized = %v", norm)
	}
}

// TestAnonymityDegreeRejectsComplicated: the exact backend refuses a
// cyclic strategy with the capability vocabulary's sentinel, and an empty
// strategy is invalid before any engine sees it.
func TestAnonymityDegreeRejectsComplicated(t *testing.T) {
	cr, err := pathsel.Crowds(0.7, 99)
	if err != nil {
		t.Fatal(err)
	}
	_, err = scenario.Run(scenario.Config{
		N:         100,
		Backend:   scenario.BackendExact,
		Protocol:  scenario.ProtocolOnion,
		Strategy:  cr,
		Adversary: scenario.Adversary{Count: 1},
	})
	if !errors.Is(err, scenario.ErrComplicatedPaths) {
		t.Errorf("err = %v, want ErrComplicatedPaths", err)
	}
	if err := (pathsel.Strategy{}).Validate(100); !errors.Is(err, pathsel.ErrBadStrategy) {
		t.Errorf("err = %v, want ErrBadStrategy", err)
	}
}

func TestAnonymityDegreeOf(t *testing.T) {
	u, err := dist.NewUniform(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	h, err := engine(t, 100, 1).AnonymityDegree(u)
	if err != nil {
		t.Fatal(err)
	}
	want, err := theory.C1(100, u)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h-want) > 1e-10 {
		t.Errorf("H* = %v, want %v", h, want)
	}
}

func TestOptimalStrategy(t *testing.T) {
	e := engine(t, 60, 1)
	res, err := optimize.Maximize(optimize.Problem{Engine: e, Lo: 0, Hi: 59, Mean: 8})
	if err != nil {
		t.Fatal(err)
	}
	strat, err := pathsel.WithLength("Optimal(mean=8)", res.Dist)
	if err != nil {
		t.Fatal(err)
	}
	if strat.Kind != pathsel.Simple {
		t.Errorf("kind = %v", strat.Kind)
	}
	if m := strat.Length.Mean(); math.Abs(m-8) > 1e-6 {
		t.Errorf("optimal mean = %v", m)
	}
	// Optimal must beat the fixed strategy at the same mean.
	f, err := pathsel.FixedLength(8)
	if err != nil {
		t.Fatal(err)
	}
	if hf := degree(t, e, f); !(res.H > hf) {
		t.Errorf("optimal %v not above fixed %v", res.H, hf)
	}
	// And the strategy itself must evaluate to the reported H.
	if again := degree(t, e, strat); math.Abs(again-res.H) > 1e-9 {
		t.Errorf("re-evaluated %v, reported %v", again, res.H)
	}
}

func TestGloballyOptimalStrategy(t *testing.T) {
	e := engine(t, 50, 1)
	res, err := optimize.Maximize(optimize.Problem{
		Engine: e, Lo: 0, Hi: 49, Mean: optimize.UnconstrainedMean(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Must beat the best fixed length.
	best := math.Inf(-1)
	for l := 0; l <= 49; l++ {
		f, err := pathsel.FixedLength(l)
		if err != nil {
			t.Fatal(err)
		}
		best = math.Max(best, degree(t, e, f))
	}
	if res.H < best-1e-9 {
		t.Errorf("global optimum %v below best fixed %v", res.H, best)
	}
	if res.H > e.MaxAnonymity() {
		t.Errorf("H %v above log2 N", res.H)
	}
}

// row is one line of a survey ranking.
type row struct {
	strat     pathsel.Strategy
	h         float64
	estimated bool
	ci95      float64
}

// rank evaluates strategies the way Example_systemsSurvey does: simple
// paths exactly on the engine, cyclic ones by a Monte-Carlo run on the
// simple-path strategy with the same length distribution. Rows come back
// sorted stably by descending H.
func rank(t *testing.T, e *events.Engine, strats []pathsel.Strategy, compromised []trace.NodeID, trials int) []row {
	t.Helper()
	rows := make([]row, 0, len(strats))
	for _, st := range strats {
		r := row{strat: st}
		if st.Kind == pathsel.Simple {
			r.h = degree(t, e, st)
		} else {
			res, err := scenario.Run(scenario.Config{
				N:         e.N(),
				Backend:   scenario.BackendMonteCarlo,
				Strategy:  pathsel.Strategy{Name: st.Name, Length: st.Length, Kind: pathsel.Simple},
				Adversary: scenario.Adversary{Compromised: compromised},
				Workload:  scenario.Workload{Messages: trials, Seed: 7},
			})
			if err != nil {
				t.Fatal(err)
			}
			r.h, r.estimated, r.ci95 = res.H, true, res.CI95
		}
		rows = append(rows, r)
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].h > rows[j].h })
	return rows
}

// TestCompareStrategiesSurvey reproduces the qualitative §2 comparison:
// with one compromised node among 100, the single-proxy systems
// (Anonymizer/LPWA) and the short fixed routes are ranked by the engine.
func TestCompareStrategiesSurvey(t *testing.T) {
	strats := []pathsel.Strategy{
		pathsel.Anonymizer(),
		pathsel.Freedom(),
		pathsel.OnionRoutingI(),
		pathsel.PipeNet(),
	}
	rows := rank(t, engine(t, 100, 1), strats, nil, 0)
	if len(rows) != len(strats) {
		t.Fatalf("%d rows", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1].h < rows[i].h {
			t.Errorf("rows not sorted: %v before %v", rows[i-1].h, rows[i].h)
		}
	}
	// With N=100, C=1, Onion Routing I (5 hops) beats Freedom (3 hops),
	// which beats the single-proxy Anonymizer — matching Figure 3's rise
	// over short lengths... except F(1)=F(2) > F(3) (short-path effect),
	// so Anonymizer actually beats Freedom. Verify the exact order.
	byName := map[string]float64{}
	for _, r := range rows {
		byName[r.strat.Name] = r.h
	}
	if !(byName["Onion Routing I"] > byName["Anonymizer"]) {
		t.Errorf("OR-I (%v) should beat Anonymizer (%v)", byName["Onion Routing I"], byName["Anonymizer"])
	}
	if !(byName["Anonymizer"] > byName["Freedom"]) {
		t.Errorf("short-path effect: Anonymizer (%v) should beat Freedom (%v)",
			byName["Anonymizer"], byName["Freedom"])
	}
	if !(byName["PipeNet"] > byName["Freedom"]) {
		t.Errorf("PipeNet (%v) should beat Freedom (%v)", byName["PipeNet"], byName["Freedom"])
	}
}

// TestCompareStrategiesEstimatesComplicated: a cyclic system has no exact
// row, so the survey estimates it on simple paths with the same length
// distribution, at the survey's own C. The estimate must agree with the
// engine's exact value for that stand-in.
func TestCompareStrategiesEstimatesComplicated(t *testing.T) {
	e := engine(t, 30, 2)
	cr, err := pathsel.Crowds(0.6, 20)
	if err != nil {
		t.Fatal(err)
	}
	// Without the stand-in: the exact backend refuses the cyclic routes.
	_, err = scenario.Run(scenario.Config{
		N:         30,
		Backend:   scenario.BackendExact,
		Protocol:  scenario.ProtocolOnion,
		Strategy:  cr,
		Adversary: scenario.Adversary{Count: 2},
	})
	if !errors.Is(err, scenario.ErrComplicatedPaths) {
		t.Errorf("err = %v", err)
	}
	rows := rank(t, e, []pathsel.Strategy{cr, pathsel.Freedom()}, []trace.NodeID{3, 9}, 4000)
	var found bool
	for _, r := range rows {
		if r.strat.Name == "Crowds" {
			found = true
			if !r.estimated || r.ci95 <= 0 {
				t.Errorf("Crowds row not estimated: %+v", r)
			}
			// A sampled system of another size or C would miss this.
			exact := degree(t, e, cr)
			if d := math.Abs(r.h - exact); d > 2*r.ci95 {
				t.Errorf("Crowds estimate %v ±%v, exact stand-in %v (Δ=%v)", r.h, r.ci95, exact, d)
			}
		}
		if r.strat.Name == "Freedom" && r.estimated {
			t.Error("Freedom row should be exact")
		}
	}
	if !found {
		t.Error("Crowds row missing")
	}
}
