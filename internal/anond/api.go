// Package anond implements the anonymity-as-a-service daemon: an HTTP
// JSON API fronting the scenario layer's three backends and the §5.4
// optimizer. One process serves concurrent clients off the process-wide
// engine cache; identical in-flight requests are coalesced into one
// computation; long Monte-Carlo runs can stream per-phase partial results
// as NDJSON; a token bucket bounds each client's request rate; and a
// disconnected client cancels its computation through the context plumbed
// into the backend loops.
//
// Endpoints (all JSON):
//
//	POST /v1/scenario     run one scenario (any backend); ?stream=1 for NDJSON progress
//	POST /v1/degradation  repeated-communication run (rounds > 1 or confidence tracking)
//	POST /v1/optimize     path-length-distribution design (static or epoch-aware)
//	GET  /v1/metrics      daemon counters + engine-cache statistics
//	GET  /v1/health       liveness; 503 once draining
//
// Every answer but a stream is one line of compact JSON, sent with its
// Content-Length; pipe it to jq to read it. A stream is NDJSON, one
// compact object per line.
//
// Failures map through scenario.Classify exactly as the CLIs' exit codes
// do: bad configurations answer 400, capability refusals 422, rate
// limiting 429, everything else 500. A canceled run (client gone) is
// logged, not answered.
package anond

import (
	"fmt"
	"math"

	"anonmix/internal/entropy"
	"anonmix/internal/faults"
	"anonmix/internal/optimize"
	"anonmix/internal/scenario"
	"anonmix/internal/trace"
)

// ScenarioRequest is the wire form of a scenario.Config. Zero-valued
// fields take the same defaults as the scenario layer (exact backend,
// plain protocol); the strategy spec, timeline, and fault plan reuse the
// CLIs' compact string syntaxes so a curl invocation stays one line.
type ScenarioRequest struct {
	N           int     `json:"n"`
	Backend     string  `json:"backend,omitempty"`
	Strategy    string  `json:"strategy,omitempty"`
	Protocol    string  `json:"protocol,omitempty"`
	CrowdsPf    float64 `json:"crowds_pf,omitempty"`
	Compromised int     `json:"compromised"`
	// UncompromisedReceiver and NoSenderSelfReport are the paper's two
	// adversary ablations.
	UncompromisedReceiver bool `json:"uncompromised_receiver,omitempty"`
	NoSenderSelfReport    bool `json:"no_sender_self_report,omitempty"`
	// Messages is trials (Monte-Carlo), messages (testbed), or sessions
	// (degradation runs).
	Messages    int     `json:"messages,omitempty"`
	Rounds      int     `json:"rounds,omitempty"`
	Confidence  float64 `json:"confidence,omitempty"`
	FixedSender bool    `json:"fixed_sender,omitempty"`
	Sender      int     `json:"sender,omitempty"`
	Seed        int64   `json:"seed,omitempty"`
	Workers     int     `json:"workers,omitempty"`
	// Timeline is the CLIs' epoch syntax, e.g.
	// "msgs=1000;msgs=1000,comp=2" (see scenario.ParseTimeline).
	Timeline string `json:"timeline,omitempty"`
	// Faults is a fault-plan spec, e.g. "loss=0.05" (see
	// faults.ParseFaults); Policy and MaxAttempts select the reaction.
	Faults      string `json:"faults,omitempty"`
	Policy      string `json:"policy,omitempty"`
	MaxAttempts int    `json:"max_attempts,omitempty"`
}

// config materializes the request as a scenario.Config. Every failure
// wraps a bad-config sentinel from the layer that rejected the field, so
// statusFor answers 400 without string matching.
func (req *ScenarioRequest) config() (scenario.Config, error) {
	cfg := scenario.Config{
		N:            req.N,
		StrategySpec: req.Strategy,
		CrowdsPf:     req.CrowdsPf,
		Adversary: scenario.Adversary{
			Count:                 req.Compromised,
			UncompromisedReceiver: req.UncompromisedReceiver,
			NoSenderSelfReport:    req.NoSenderSelfReport,
		},
		Workload: scenario.Workload{
			Messages:    req.Messages,
			Rounds:      req.Rounds,
			Confidence:  req.Confidence,
			FixedSender: req.FixedSender,
			Sender:      trace.NodeID(req.Sender),
			Seed:        req.Seed,
			Workers:     req.Workers,
		},
	}
	if req.Backend != "" {
		kind, err := scenario.ParseBackend(req.Backend)
		if err != nil {
			return scenario.Config{}, err
		}
		cfg.Backend = kind
	}
	if req.Protocol != "" {
		proto, err := scenario.ParseProtocol(req.Protocol)
		if err != nil {
			return scenario.Config{}, err
		}
		cfg.Protocol = proto
	}
	if req.Timeline != "" {
		timeline, err := scenario.ParseTimeline(req.Timeline)
		if err != nil {
			return scenario.Config{}, err
		}
		cfg.Timeline = timeline
	}
	if req.Faults != "" {
		plan, err := faults.ParseFaults(req.Faults)
		if err != nil {
			return scenario.Config{}, err
		}
		cfg.Faults = plan
	}
	if req.Policy != "" {
		pol, err := faults.ParsePolicy(req.Policy)
		if err != nil {
			return scenario.Config{}, err
		}
		cfg.Reliability = faults.Reliability{Policy: pol, MaxAttempts: req.MaxAttempts}
	}
	return cfg, nil
}

// EpochResponse is the wire form of one scenario.EpochResult.
type EpochResponse struct {
	Index    int     `json:"index"`
	N        int     `json:"n"`
	C        int     `json:"c"`
	Messages int     `json:"messages,omitempty"`
	Rounds   int     `json:"rounds,omitempty"`
	H        float64 `json:"h"`
}

// ScenarioResponse is the wire form of a scenario.Result.
type ScenarioResponse struct {
	Backend                string          `json:"backend"`
	H                      float64         `json:"h"`
	StdErr                 float64         `json:"std_err,omitempty"`
	CI95                   float64         `json:"ci95,omitempty"`
	Estimated              bool            `json:"estimated,omitempty"`
	Trials                 int             `json:"trials,omitempty"`
	MaxH                   float64         `json:"max_h"`
	Normalized             float64         `json:"normalized"`
	CompromisedSenderShare float64         `json:"compromised_sender_share,omitempty"`
	Deanonymized           int             `json:"deanonymized,omitempty"`
	Rounds                 int             `json:"rounds,omitempty"`
	HRounds                []float64       `json:"h_rounds,omitempty"`
	IdentifiedShare        float64         `json:"identified_share,omitempty"`
	MeanRoundsToIdentify   float64         `json:"mean_rounds_to_identify,omitempty"`
	Epochs                 []EpochResponse `json:"epochs,omitempty"`
	DeliveryRate           float64         `json:"delivery_rate,omitempty"`
	MeanAttempts           float64         `json:"mean_attempts,omitempty"`
	HDegraded              float64         `json:"h_degraded,omitempty"`
	ElapsedMS              float64         `json:"elapsed_ms"`
	// Coalesced marks a response served by joining another client's
	// identical in-flight computation.
	Coalesced bool `json:"coalesced,omitempty"`
}

// scenarioResponse converts a backend result to its wire form.
func scenarioResponse(res scenario.Result) *ScenarioResponse {
	out := &ScenarioResponse{
		Backend:                string(res.Backend),
		H:                      res.H,
		StdErr:                 res.StdErr,
		CI95:                   res.CI95,
		Estimated:              res.Estimated,
		Trials:                 res.Trials,
		MaxH:                   res.MaxH,
		Normalized:             res.Normalized,
		CompromisedSenderShare: res.CompromisedSenderShare,
		Deanonymized:           res.Deanonymized,
		Rounds:                 res.Rounds,
		HRounds:                res.HRounds,
		IdentifiedShare:        res.IdentifiedShare,
		MeanRoundsToIdentify:   res.MeanRoundsToIdentify,
		DeliveryRate:           res.DeliveryRate,
		MeanAttempts:           res.MeanAttempts,
		HDegraded:              res.HDegraded,
		ElapsedMS:              float64(res.Elapsed.Microseconds()) / 1e3,
	}
	for _, ep := range res.Epochs {
		out.Epochs = append(out.Epochs, EpochResponse{
			Index: ep.Index, N: ep.N, C: ep.C,
			Messages: ep.Messages, Rounds: ep.Rounds, H: ep.H,
		})
	}
	return out
}

// OptimizeRequest is the wire form of an optimize.Problem (static) or
// optimize.TimelineProblem (when Epochs is set).
type OptimizeRequest struct {
	N int `json:"n"`
	C int `json:"c"`
	// Mean constrains the expected path length; omit for unconstrained.
	Mean *float64 `json:"mean,omitempty"`
	Lo   int      `json:"lo,omitempty"`
	// Hi bounds the support; 0 defaults to N-1 (static) or min_e N_e-1
	// (timeline).
	Hi int `json:"hi,omitempty"`
	// Epochs is the CLIs' timeline syntax; setting it switches to the
	// epoch-aware solver.
	Epochs string `json:"epochs,omitempty"`
	// MaxIterations caps the solver's steps (its default when 0).
	MaxIterations int `json:"max_iterations,omitempty"`
}

// Atom is one support point of an optimized distribution.
type Atom struct {
	L int     `json:"l"`
	P float64 `json:"p"`
}

// EpochOptimum is one epoch's re-optimized solution in a timeline run.
type EpochOptimum struct {
	Index      int     `json:"index"`
	N          int     `json:"n"`
	C          int     `json:"c"`
	Weight     float64 `json:"weight"`
	H          float64 `json:"h"`
	GapBits    float64 `json:"gap_bits"`
	Iterations int     `json:"iterations"`
	MeanLength float64 `json:"mean_length"`
}

// OptimizeResponse is the solver outcome. Static problems fill the
// top-level fields only; timeline problems additionally carry the
// per-epoch curve and the blended scores (the top-level distribution is
// then the joint single-distribution optimum).
type OptimizeResponse struct {
	H          float64 `json:"h"`
	Normalized float64 `json:"normalized"`
	MeanLength float64 `json:"mean_length"`
	// GapBits is the solver's certified bound on the optimum minus H.
	GapBits    float64 `json:"gap_bits"`
	Iterations int     `json:"iterations"`
	Converged  bool    `json:"converged"`
	Dist       []Atom  `json:"dist"`
	// Timeline mode: blended traffic-weighted anonymity of the three
	// deployment policies (static epoch-0 optimum, joint, per-epoch).
	PerEpoch  []EpochOptimum `json:"per_epoch,omitempty"`
	PerEpochH float64        `json:"per_epoch_h,omitempty"`
	StaticH   float64        `json:"static_h,omitempty"`
	Coalesced bool           `json:"coalesced,omitempty"`
}

// atoms extracts the support points carrying mass above the CLI's
// printing threshold.
func atoms(r optimize.Result) []Atom {
	lo, hi := r.Dist.Support()
	var out []Atom
	for l := lo; l <= hi; l++ {
		if p := r.Dist.PMF(l); p > 1e-6 {
			out = append(out, Atom{L: l, P: p})
		}
	}
	return out
}

// solve runs the solver the request describes. It mirrors anonopt: the
// same defaults, the same engine cache, the same epoch-aware path.
func (req *OptimizeRequest) solve() (*OptimizeResponse, error) {
	mean := optimize.UnconstrainedMean()
	if req.Mean != nil {
		mean = *req.Mean
	}
	var opts []optimize.Option
	if req.MaxIterations > 0 {
		opts = append(opts, optimize.WithMaxIterations(req.MaxIterations))
	}
	if req.Epochs != "" {
		return req.solveTimeline(mean, opts)
	}
	engine, err := scenario.Engine(req.N, req.C)
	if err != nil {
		return nil, err
	}
	hi := req.Hi
	if hi <= 0 {
		hi = req.N - 1
	}
	res, err := optimize.Maximize(optimize.Problem{
		Engine: engine, Lo: req.Lo, Hi: hi, Mean: mean,
	}, opts...)
	if err != nil {
		return nil, err
	}
	return &OptimizeResponse{
		H:          res.H,
		Normalized: entropy.Normalized(res.H, req.N),
		MeanLength: res.Dist.Mean(),
		GapBits:    res.Gap,
		Iterations: res.Iterations,
		Converged:  res.Converged,
		Dist:       atoms(res),
	}, nil
}

// solveTimeline is the epoch-aware path: per-epoch re-optimization with
// delta-derived engines, the joint single-distribution solve, and the
// static epoch-0 baseline under the traffic-weighted blend.
func (req *OptimizeRequest) solveTimeline(mean float64, opts []optimize.Option) (*OptimizeResponse, error) {
	timeline, err := scenario.ParseTimeline(req.Epochs)
	if err != nil {
		return nil, err
	}
	states, err := scenario.TimelineStates(req.N, req.C, timeline)
	if err != nil {
		return nil, err
	}
	minN := states[0].N
	for _, st := range states {
		minN = min(minN, st.N)
	}
	hi := req.Hi
	if hi <= 0 {
		hi = minN - 1
	}
	tp := optimize.TimelineProblem{Lo: req.Lo, Hi: hi, Mean: mean}
	for _, st := range states {
		e, err := scenario.Engine(st.N, st.C)
		if err != nil {
			return nil, err
		}
		tp.Epochs = append(tp.Epochs, optimize.EpochProblem{Engine: e, Weight: st.Weight})
	}
	res, err := optimize.MaximizeTimeline(tp, opts...)
	if err != nil {
		return nil, err
	}
	staticH, err := optimize.EvaluateTimeline(tp, res.PerEpoch[0].Dist)
	if err != nil {
		return nil, err
	}
	out := &OptimizeResponse{
		H:          res.Joint.H,
		Normalized: res.Joint.H / math.Log2(float64(req.N)),
		MeanLength: res.Joint.Dist.Mean(),
		GapBits:    res.Joint.Gap,
		Iterations: res.Joint.Iterations,
		Converged:  res.Joint.Converged,
		Dist:       atoms(res.Joint),
		PerEpochH:  res.PerEpochH,
		StaticH:    staticH,
	}
	for i, st := range states {
		r := res.PerEpoch[i]
		out.PerEpoch = append(out.PerEpoch, EpochOptimum{
			Index: st.Index, N: st.N, C: st.C, Weight: st.Weight,
			H: r.H, GapBits: r.Gap, Iterations: r.Iterations, MeanLength: r.Dist.Mean(),
		})
	}
	return out, nil
}

// ErrorBody is the JSON error envelope of every non-2xx answer.
type ErrorBody struct {
	// Error is the full wrapped sentinel chain, the same text the CLIs
	// print to stderr.
	Error string `json:"error"`
	// Class is the scenario.ErrorClass name ("bad_config", "capability",
	// "runtime", ...) plus the daemon's own "rate_limited" and
	// "draining".
	Class string `json:"class"`
}

// errorBody renders an error through the shared classifier.
func errorBody(err error) ErrorBody {
	return ErrorBody{Error: fmt.Sprintf("%v", err), Class: scenario.Classify(err).String()}
}
