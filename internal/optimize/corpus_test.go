package optimize

import (
	"math"
	"testing"

	"anonmix/internal/events"
)

// corpusProblem is a static design problem shaped like the design loop's
// solves: support [1, hi], N log-spread over [20, 2·10⁵], C/N over
// [0.001, 0.5], the mean free (NaN) or pinned, and the receiver
// compromised or honest. h is the optimum's H*, recorded with %.17g.
type corpusProblem struct {
	n, c, hi int
	mean     float64
	honest   bool
	h        float64
}

var free = UnconstrainedMean()

var corpus = []corpusProblem{
	{20, 1, 6, 1.583, false, 3.8268777767234021},
	{30, 1, 9, free, false, 4.6098833313282004},
	{45, 1, 12, 7.542, true, 5.3022989038632238},
	{66, 4, 8, free, true, 5.4562167372916921},
	{99, 22, 11, 3.188, false, 4.1501198673393533},
	{148, 1, 7, free, false, 7.1180158605136956},
	{221, 1, 10, 7.667, true, 7.7299482913402331},
	{330, 6, 6, free, true, 8.1031192466781814},
	{492, 37, 9, 3.979, false, 7.7513317940634563},
	{735, 214, 12, free, false, 5.0689393248251076},
	{1097, 2, 8, 7.125, true, 10.067466272102747},
	{1637, 11, 11, free, true, 10.555324668698063},
	{2443, 63, 7, 4.104, false, 10.724551242075313},
	{3647, 360, 10, free, false, 9.8123607119772469},
	{5443, 2077, 6, 1.917, true, 4.7858158065496275},
	{8123, 18, 9, free, true, 12.936831510795038},
	{12124, 105, 12, 8.375, false, 13.356420044595231},
	{18095, 607, 8, free, false, 13.288276862769084},
	{27006, 3497, 11, 3.938, true, 11.311403950290908},
	{40307, 20154, 7, free, true, 3.9844543546139839},
	{60158, 177, 10, 8.333, false, 15.791773845308438},
	{89785, 1022, 6, free, false, 16.104353931733904},
	{134004, 5888, 9, 4.563, true, 15.64555228916525},
	{200000, 33932, 12, free, true, 12.424821222671243},
}

// receiver returns the engine options of a compromised or honest receiver.
func receiver(honest bool) []events.Option {
	if honest {
		return []events.Option{events.WithUncompromisedReceiver()}
	}
	return nil
}

func (c corpusProblem) problem(tb testing.TB) Problem {
	tb.Helper()
	return Problem{Engine: engine(tb, c.n, c.c, receiver(c.honest)...), Lo: 1, Hi: c.hi, Mean: c.mean}
}

// corpusTimeline is a drifting population shaped like the design loop's
// timeline solves: epoch e > 0 is epoch e−1's system moved by steps[e−1]
// in (N, C), and epoch e carries weights[e] of the traffic. perEpochH and
// jointH are the optimum's blends, recorded with %.17g.
type corpusTimeline struct {
	n, c, hi          int
	mean              float64
	honest            bool
	steps             [][2]int
	weights           []float64
	perEpochH, jointH float64
}

var timelineCorpus = []corpusTimeline{
	{148, 3, 6, free, false, [][2]int{{2, 0}, {0, 1}, {-1, 0}}, []float64{300, 700, 150, 900},
		6.9200982898898005, 6.9200982590577969},
	{2443, 63, 8, 3.25, false, [][2]int{{0, 3}, {2, 0}, {0, -1}, {-3, 0}}, []float64{120, 450, 980, 300, 610},
		10.695060436942834, 10.695060432687008},
	{40307, 1022, 5, 2.6, true, [][2]int{{3, 0}, {0, 2}}, []float64{500, 200, 800},
		14.556934713146319, 14.556934713126696},
}

func (c corpusTimeline) problem(tb testing.TB) TimelineProblem {
	tb.Helper()
	p := TimelineProblem{Lo: 1, Hi: c.hi, Mean: c.mean}
	for i, e := range timelineEngines(tb, c.n, c.c, c.steps, receiver(c.honest)...) {
		p.Epochs = append(p.Epochs, EpochProblem{Engine: e, Weight: c.weights[i]})
	}
	return p
}

// corpusProblems builds the corpus's static and timeline problems.
func corpusProblems(tb testing.TB) ([]Problem, []TimelineProblem) {
	tb.Helper()
	static := make([]Problem, len(corpus))
	for i, c := range corpus {
		static[i] = c.problem(tb)
	}
	timelines := make([]TimelineProblem, len(timelineCorpus))
	for i, c := range timelineCorpus {
		timelines[i] = c.problem(tb)
	}
	return static, timelines
}

// solveCorpus solves every problem once and returns the line searches'
// evaluations of φ' and the solver iterations, summed over every solve.
func solveCorpus(tb testing.TB, static []Problem, timelines []TimelineProblem) (evals, iters int) {
	tb.Helper()
	for _, p := range static {
		res, err := Maximize(p)
		if err != nil {
			tb.Fatal(err)
		}
		evals += res.evals
		iters += res.Iterations
	}
	for _, p := range timelines {
		res, err := MaximizeTimeline(p)
		if err != nil {
			tb.Fatal(err)
		}
		for _, r := range append(res.PerEpoch, res.Joint) {
			evals += r.evals
			iters += r.Iterations
		}
	}
	return evals, iters
}

// TestLineSearchEvaluations bounds the line search's cost over the corpus.
// Its guarded Newton on φ' took 3,091 evaluations of φ' in 216 solver
// iterations: a guard that compared each Newton step with the last one
// bisected after a short first step, and a stop below φ'’s rounding floor
// bisected converged brackets. The corpus must now take at most 80% of
// those evaluations, and within 5% of those iterations, the same on every
// run.
func TestLineSearchEvaluations(t *testing.T) {
	const beforeEvals, beforeIters = 3091, 216
	static, timelines := corpusProblems(t)
	evals, iters := solveCorpus(t, static, timelines)
	if again, againIters := solveCorpus(t, static, timelines); again != evals || againIters != iters {
		t.Errorf("counts do not repeat: %d evaluations in %d iterations, then %d in %d", evals, iters, again, againIters)
	}
	if 5*evals > 4*beforeEvals {
		t.Errorf("%d evaluations of φ', over 80%% of %d", evals, beforeEvals)
	}
	if d := iters - beforeIters; 20*max(d, -d) > beforeIters {
		t.Errorf("%d iterations, over 5%% from %d", iters, beforeIters)
	}
}

// BenchmarkMaximizeCorpus solves the corpus, engines built beforehand, and
// reports its evaluations of φ' and solver iterations per pass.
func BenchmarkMaximizeCorpus(b *testing.B) {
	static, timelines := corpusProblems(b)
	var evals, iters int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, it := solveCorpus(b, static, timelines)
		evals += e
		iters += it
	}
	b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
	b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
}

// TestMaximizeRecordedOptima pins the corpus's optima: every solve
// converges, and its H stays within 1e-9 bits, the certified gap, of the
// value recorded before the line search changed. A solver change may move
// the returned Dist along a flat face of optima, never H.
func TestMaximizeRecordedOptima(t *testing.T) {
	for _, c := range corpus {
		res, err := Maximize(c.problem(t))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged || math.Abs(res.H-c.h) > 1e-9 {
			t.Errorf("N=%d C=%d Hi=%d mean %v honest %v: H %.17g (converged %v), recorded %.17g",
				c.n, c.c, c.hi, c.mean, c.honest, res.H, res.Converged, c.h)
		}
	}
	for _, c := range timelineCorpus {
		res, err := MaximizeTimeline(c.problem(t))
		if err != nil {
			t.Fatal(err)
		}
		converged := res.Joint.Converged
		for _, r := range res.PerEpoch {
			converged = converged && r.Converged
		}
		if !converged || math.Abs(res.PerEpochH-c.perEpochH) > 1e-9 || math.Abs(res.Joint.H-c.jointH) > 1e-9 {
			t.Errorf("timeline N=%d C=%d: per-epoch %.17g, joint %.17g (converged %v), recorded %.17g, %.17g",
				c.n, c.c, res.PerEpochH, res.Joint.H, converged, c.perEpochH, c.jointH)
		}
	}
}
