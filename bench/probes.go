package main

// Per-layer probes. The harness cannot see inside a scenario.Run call, so
// a traced run splits the work by replaying it through each layer's public
// functions: batched loops that add one layer at a time (the difference
// between consecutive loops is that layer's cost), a direct replay of the
// simnet kernel, and single calls into the engine, the cache, and the
// optimizer. Probes run on the workload's own configurations.

import (
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"anonmix/internal/adversary"
	"anonmix/internal/anond"
	"anonmix/internal/combin"
	"anonmix/internal/dist"
	"anonmix/internal/events"
	"anonmix/internal/faults"
	"anonmix/internal/montecarlo"
	"anonmix/internal/optimize"
	"anonmix/internal/pathsel"
	"anonmix/internal/scenario"
	"anonmix/internal/simnet"
	"anonmix/internal/stats"
	"anonmix/internal/trace"
)

// replayTrials is the number of Monte-Carlo trials a probe replays.
const replayTrials = 10_000

// trialCosts splits the single-shot trial loop into its layers, in
// nanoseconds per trial.
type trialCosts struct {
	stream, alias, sel, synth, entropy, fold float64
	// perTrial is the whole loop (stream, select, synthesize, entropy).
	perTrial float64
}

// sampling is the machinery one configuration's trial loop needs.
type sampling struct {
	n       int
	analyst *adversary.Analyst
	sampler *pathsel.Sampler
	alias   *dist.Alias
	// sink keeps the probe loops' results observable to the compiler. It
	// lives here, not in a package variable, so concurrent probes (the
	// smoke test's parallel runs) share nothing.
	sink int
}

func newSampling(req *anond.ScenarioRequest) (*sampling, error) {
	cfg, err := config(req)
	if err != nil {
		return nil, err
	}
	analyst, err := scenario.NewAnalyst(cfg)
	if err != nil {
		return nil, err
	}
	strategy, err := pathsel.Lookup(req.Strategy)
	if err != nil {
		return nil, err
	}
	sel, err := pathsel.NewSelector(req.N, strategy)
	if err != nil {
		return nil, err
	}
	sp, err := sel.NewSampler()
	if err != nil {
		return nil, err
	}
	alias, err := dist.NewAlias(strategy.Length)
	if err != nil {
		return nil, err
	}
	return &sampling{n: req.N, analyst: analyst, sampler: sp, alias: alias}, nil
}

// trials replays n trials of the single-shot loop the Monte-Carlo backend
// runs, once per added layer, on the streams of the given seed.
func (s *sampling) trials(seed int64, n int) (trialCosts, error) {
	var mt trace.MessageTrace
	var sc adversary.Scratch
	loop := func(depth int) (time.Duration, error) {
		start := time.Now()
		for t := range n {
			rng := stats.NewStream(seed, int64(t))
			sender := trace.NodeID(rng.Intn(s.n))
			if depth == 1 {
				s.sink += s.alias.Draw(rng.Intn(s.alias.K()), rng.Float64())
				continue
			}
			if depth == 0 || s.analyst.Compromised(sender) {
				s.sink += int(sender)
				continue
			}
			path, err := s.sampler.SelectPath(&rng, sender)
			if err != nil {
				return 0, err
			}
			if depth == 2 {
				s.sink += len(path)
				continue
			}
			montecarlo.SynthesizeInto(&mt, 1, sender, path, s.analyst.Compromised)
			if depth == 3 {
				continue
			}
			if _, err := s.analyst.EntropyScratch(&mt, &sc); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}
	var d [5]time.Duration
	for depth := range d {
		var err error
		if d[depth], err = loop(depth); err != nil {
			return trialCosts{}, err
		}
	}
	per := func(x time.Duration) float64 { return float64(x) / float64(n) }
	return trialCosts{
		stream:   per(d[0]),
		alias:    per(d[1] - d[0]),
		sel:      per(d[2] - d[0]),
		synth:    per(d[3] - d[2]),
		entropy:  per(d[4] - d[3]),
		perTrial: per(d[4]),
	}, nil
}

// fold replays n rounds of accumulating observations for a fixed sender
// (the multi-round loop) and returns the cost of FoldObservation plus
// SnapshotFast per round, net of drawing and synthesizing the path.
func (s *sampling) fold(seed int64, n int) (float64, error) {
	acc, err := adversary.NewAccumulator(s.analyst)
	if err != nil {
		return 0, err
	}
	sender := trace.NodeID(s.n - 1)
	var mt trace.MessageTrace
	var sc adversary.Scratch
	loop := func(fold bool) (time.Duration, error) {
		acc.Reset()
		start := time.Now()
		for t := range n {
			rng := stats.NewStream(seed, int64(t))
			path, err := s.sampler.SelectPath(&rng, sender)
			if err != nil {
				return 0, err
			}
			montecarlo.SynthesizeInto(&mt, trace.MessageID(t+1), sender, path, s.analyst.Compromised)
			if !fold {
				continue
			}
			if err := acc.FoldObservation(s.analyst, &mt, &sc); err != nil {
				return 0, err
			}
			if _, _, _, err := acc.SnapshotFast(); err != nil {
				return 0, err
			}
			if t%32 == 31 {
				acc.Reset()
			}
		}
		return time.Since(start), nil
	}
	base, err := loop(false)
	if err != nil {
		return 0, err
	}
	full, err := loop(true)
	return float64(full-base) / float64(n), err
}

// kernelReplay is a direct replay of a testbed run's network half.
type kernelReplay struct {
	kernel   time.Duration // simnet.New through Settle and Tuples
	events   uint64
	analysis time.Duration // collation plus one EntropyScratch per message
	tuples   []trace.Tuple
	analyst  *adversary.Analyst
}

// replayKernel injects msgs plain source-routed messages into a fresh
// kernel with the scenario's population, adversary, loss and policy, and
// then analyzes them the way the testbed does.
func replayKernel(req *anond.ScenarioRequest, msgs int, seed int64) (kernelReplay, error) {
	s, err := newSampling(req)
	if err != nil {
		return kernelReplay{}, err
	}
	comp := make([]trace.NodeID, req.Compromised)
	for i := range comp {
		comp[i] = trace.NodeID(i)
	}
	cfg := simnet.Config{N: req.N, Compromised: comp, Seed: seed}
	if req.Faults != "" {
		plan, err := faults.ParseFaults(req.Faults)
		if err != nil {
			return kernelReplay{}, err
		}
		pol, err := faults.ParsePolicy(req.Policy)
		if err != nil {
			return kernelReplay{}, err
		}
		if pol != faults.PolicyReroute {
			cfg.LinkLoss, cfg.Policy = plan.LinkLoss, pol
		}
	}
	start := time.Now()
	nw, err := simnet.New(cfg)
	if err != nil {
		return kernelReplay{}, err
	}
	nw.Start()
	defer nw.Close()
	for m := range msgs {
		rng := stats.NewStream(seed, int64(m))
		sender := trace.NodeID(rng.Intn(req.N))
		path, err := s.sampler.SelectPath(&rng, sender)
		if err != nil {
			return kernelReplay{}, err
		}
		if _, err := nw.SendRoute(sender, path, nil); err != nil {
			return kernelReplay{}, err
		}
	}
	if err := nw.WaitSettled(time.Minute); err != nil {
		return kernelReplay{}, err
	}
	out := kernelReplay{tuples: nw.Tuples(), events: nw.Metrics().Events, analyst: s.analyst}
	out.kernel = time.Since(start)

	start = time.Now()
	var sc adversary.Scratch
	for _, mt := range trace.Collate(out.tuples) {
		if mt.ReceiverSeen {
			// Lost messages leave partial traces; their errors are expected.
			h, _ := s.analyst.EntropyScratch(mt, &sc)
			s.sink += int(h)
		}
	}
	out.analysis = time.Since(start)
	return out, nil
}

// layerProbe accumulates per-configuration probe measurements; each
// metric reports the median over configurations.
type layerProbe map[string][]float64

func (p layerProbe) add(name string, v float64) { p[name] = append(p[name], v) }

// medians reduces the probe to one value per metric.
func (p layerProbe) medians() map[string]float64 {
	out := make(map[string]float64, len(p))
	for name, vs := range p {
		out[name] = median(vs)
	}
	return out
}

// timeIt returns the mean duration of f over reps calls.
func timeIt(reps int, f func() error) (time.Duration, error) {
	start := time.Now()
	for range reps {
		if err := f(); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(reps), nil
}

// probeLayers runs every layer probe on each configuration.
func probeLayers(configs []anond.ScenarioRequest, seed int64) (map[string]float64, error) {
	p := layerProbe{}
	for k := range configs {
		if err := probeConfig(p, &configs[k], seed, k < 2); err != nil {
			return nil, fmt.Errorf("probe %+v: %w", configs[k], err)
		}
	}
	return p.medians(), nil
}

// probeConfig probes one configuration; solves adds an optimizer solve.
func probeConfig(p layerProbe, req *anond.ScenarioRequest, seed int64, solves bool) error {
	strategy, err := pathsel.Lookup(req.Strategy)
	if err != nil {
		return err
	}
	_, hi := strategy.Length.Support()
	var opts []events.Option
	if req.UncompromisedReceiver {
		opts = append(opts, events.WithUncompromisedReceiver())
	}

	// combin: the log-binomials every engine table is built from.
	ks := min(req.Compromised, 64) + 1
	var logs float64
	d, _ := timeIt(200, func() error {
		for k := range ks {
			logs += combin.LogChoose(req.N, k)
		}
		return nil
	})
	runtime.KeepAlive(logs)
	p.add("combin.logchoose_ns", float64(d)/float64(ks))

	// events: a fresh engine's first degree (table build included), a
	// second distribution on the built engine, and the optimizer's weights.
	other, err := dist.NewUniform(1, max(hi, 2))
	if err != nil {
		return err
	}
	start := time.Now()
	e, err := events.New(req.N, req.Compromised, opts...)
	if err != nil {
		return err
	}
	if _, err := e.AnonymityDegree(strategy.Length); err != nil {
		return err
	}
	p.add("events.fresh_build_ms_p50", ms(time.Since(start)))
	start = time.Now()
	if _, err := e.AnonymityDegree(other); err != nil {
		return err
	}
	p.add("events.degree_cold_us_p50", us(time.Since(start)))
	start = time.Now()
	if _, err := e.Weights(1, min(8, req.N-1)); err != nil {
		return err
	}
	p.add("events.weights_ms_p50", ms(time.Since(start)))

	// scenario: a resident engine's lookup, a delta derivation from it,
	// and a whole exact Run on a memo-hot configuration.
	exact := exactReference(req)
	cfg, err := config(&exact)
	if err != nil {
		return err
	}
	if _, err := scenario.Run(cfg); err != nil {
		return err
	}
	d, err = timeIt(100, func() error { _, err := scenario.Engine(req.N, req.Compromised, opts...); return err })
	if err != nil {
		return err
	}
	p.add("scenario.engine_lookup_us_p50", us(d))
	resident, err := scenario.Engine(req.N, req.Compromised, opts...)
	if err != nil {
		return err
	}
	d, err = timeIt(20, func() error {
		derived, err := resident.Neighbor(1, 0)
		if err != nil {
			return err
		}
		_, err = derived.AnonymityDegree(strategy.Length)
		return err
	})
	if err != nil {
		return err
	}
	p.add("scenario.delta_derive_us_p50", us(d))
	d, err = timeIt(100, func() error { _, err := scenario.Run(cfg); return err })
	if err != nil {
		return err
	}
	p.add("scenario.dispatch_us_p50", us(d))

	if solves {
		start = time.Now()
		res, err := optimize.Maximize(optimize.Problem{Engine: resident, Lo: 1, Hi: min(8, req.N-1),
			Mean: optimize.UnconstrainedMean()})
		if err != nil {
			return err
		}
		p.add("optimize.solve_ms_p50", ms(time.Since(start)))
		p.add("optimize.ms_per_iteration", ms(time.Since(start))/float64(max(res.Iterations, 1)))
	}

	// Sampling layers: sparse selection at the configuration's population
	// (raised to 16 hops per node if needed), dense at hi+2 nodes.
	sparse := exact
	sparse.N = max(req.N, 16*hi+16)
	s, err := newSampling(&sparse)
	if err != nil {
		return err
	}
	tc, err := s.trials(seed, replayTrials)
	if err != nil {
		return err
	}
	p.add("stats.stream_draw_ns", tc.stream)
	p.add("dist.alias_draw_ns", tc.alias)
	p.add("pathsel.select_ns_sparse", tc.sel)
	p.add("montecarlo.synthesize_ns", tc.synth)
	p.add("adversary.entropy_ns", tc.entropy)
	p.add("montecarlo.trials_per_s", 1e9/tc.perTrial)
	// Folding costs O(N) per round; cap the rounds at about 2e7 node visits.
	fold, err := s.fold(seed, min(replayTrials, max(100, 20_000_000/sparse.N)))
	if err != nil {
		return err
	}
	p.add("adversary.fold_ns_per_round", fold)
	dense := anond.ScenarioRequest{N: hi + 2, Strategy: req.Strategy, Compromised: 1}
	if s, err = newSampling(&dense); err != nil {
		return err
	}
	if tc, err = s.trials(seed, replayTrials); err != nil {
		return err
	}
	p.add("pathsel.select_ns_dense", tc.sel)

	// simnet and the adversary's batch analysis: a kernel replay, and
	// AnalyzeAll over at most 2e7 node visits of posteriors.
	kr, err := replayKernel(&exact, 2000, seed)
	if err != nil {
		return err
	}
	p.add("simnet.events_per_s", float64(kr.events)/kr.kernel.Seconds())
	limit := trace.MessageID(max(20, 20_000_000/req.N))
	tuples := slices.DeleteFunc(slices.Clone(kr.tuples), func(t trace.Tuple) bool { return t.Msg > limit })
	start = time.Now()
	post, _, err := kr.analyst.AnalyzeAll(tuples)
	if err != nil {
		return err
	}
	p.add("adversary.analyze_us_per_msg", us(time.Since(start))/float64(max(len(post), 1)))

	// anond wire types, round-tripped in-process the way the daemon
	// decodes requests and encodes answers.
	res, err := scenario.Run(cfg)
	if err != nil {
		return err
	}
	resp := anond.ScenarioResponse{Backend: string(res.Backend), H: res.H, MaxH: res.MaxH,
		Normalized: res.Normalized, DeliveryRate: res.DeliveryRate, MeanAttempts: res.MeanAttempts,
		HDegraded: res.HDegraded, ElapsedMS: ms(res.Elapsed)}
	var reqBuf, respBuf []byte
	d, err = timeIt(200, func() error {
		var err error
		if reqBuf, err = json.Marshal(req); err != nil {
			return err
		}
		var b strings.Builder
		enc := json.NewEncoder(&b)
		enc.SetIndent("", "  ")
		err = enc.Encode(resp)
		respBuf = []byte(b.String())
		return err
	})
	if err != nil {
		return err
	}
	p.add("anond.json_encode_us", us(d))
	d, err = timeIt(200, func() error {
		var in anond.ScenarioRequest
		dec := json.NewDecoder(strings.NewReader(string(reqBuf)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&in); err != nil {
			return err
		}
		var out anond.ScenarioResponse
		return json.Unmarshal(respBuf, &out)
	})
	if err != nil {
		return err
	}
	p.add("anond.json_decode_us", us(d))
	return nil
}
