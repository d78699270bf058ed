package scenario

// The testbed backend: executes scenarios on the sharded discrete-event
// network kernel (package simnet) with the protocol substrate the config
// names — plain source routes, onion layers, Crowds coin-flips, or
// threshold-mix batching — and measures the anonymity degree empirically
// by running the adversary's inference over each message's record of
// reports, which the kernel keeps by message ID (simnet.Network.Trace).
//
// It has two drivers. runRouted serves the source-routed substrates
// (plain, onion, mix) for every shape of run: static or across a
// timeline, single-shot or in persistent sessions, lossless or faulted. A
// static config is its one identity phase. Single-shot traffic is
// analysed per phase in the phase's dense space; sessions (Workload.Rounds
// > 1, or a Rounds timeline) keep their sender while the path re-forms
// every round, and the adversary multiplies the per-round posteriors
// across phases — the generalized intersection attack, in which witnessed
// identities are zeroed and candidate sets shrink round over round.
// runCrowds serves the jondo substrate, whose routing is the protocol's
// own: it draws only honest initiators and counts Reiter–Rubin
// predecessors.

import (
	cryptorand "crypto/rand"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"time"

	"anonmix/internal/adversary"
	"anonmix/internal/crowds"
	"anonmix/internal/entropy"
	"anonmix/internal/faults"
	"anonmix/internal/onion"
	"anonmix/internal/pathsel"
	"anonmix/internal/scenario/capability"
	"anonmix/internal/simnet"
	"anonmix/internal/stats"
	"anonmix/internal/trace"
)

// defaultMixBatch is the threshold-mix batch size when ProtocolMix is
// selected without an explicit Workload.BatchThreshold.
const defaultMixBatch = 8

// settleTimeout bounds how long a testbed run may take to drain.
const settleTimeout = 5 * time.Minute

// runTestbed runs a normalized config on the testbed backend.
func runTestbed(cfg Config) (Result, error) {
	if cfg.Protocol == ProtocolCrowds {
		if len(cfg.phases) > 0 {
			// The jondo substrate's predecessor statistics assume a fixed
			// crowd; dynamic membership needs the per-epoch closed forms
			// first (see ROADMAP).
			return Result{}, capability.Unsupported(string(BackendTestbed),
				capability.ErrProtocol, "crowds substrate does not support dynamic populations yet")
		}
		return runCrowds(cfg)
	}
	if cfg.Strategy.Kind != pathsel.Simple {
		return Result{}, capability.Unsupported(string(BackendTestbed),
			capability.ErrComplicatedPaths, cfg.Strategy.Name+" (run it on the crowds substrate)")
	}
	if err := sampledInference(cfg, string(BackendTestbed)); err != nil {
		return Result{}, err
	}
	return runRouted(cfg)
}

// routedPhase is one phase's share of a routed run. A phase that carries
// traffic has the analyst and path sampler of its dense space, and under a
// lossy fault plan the honest-receiver analyst its partial traces fold
// through; a phase without traffic only moves the population and keeps
// the zero value. Single-shot phases also record their messages in
// injection order: each one's union-identity sender and the ID of its
// last attempt, and under PolicyReroute each one's stream (its redraws
// continue it) and failed attempts.
type routedPhase struct {
	analyst, analystU *adversary.Analyst
	sampler           *pathsel.Sampler
	senders           []trace.NodeID
	ids               []trace.MessageID
	strs              []stats.Stream
	failed            [][]trace.MessageID
}

// runRouted executes the source-routed substrates (plain, onion, mix):
// paths come from the strategy's selector, the network carries them, and
// the adversary's empirical mean posterior entropy is the measured H*(S).
// It walks the identity view as runTrials does. A static config is its one
// identity phase seeded with Workload.Seed; timeline phase e draws under
// phaseSeed(Seed, e) inside its own logical-time window (phaseWindows),
// with the membership diffs as kernel churn events on the boundaries and
// path selection restricted to the live members. Each phase's traffic
// settles — flushing partial threshold-mix batches, the mix "firing on
// timeout" at the phase end — and its reroute waves run, before the
// injection clock moves to the next window, so every message's
// observations fall inside one phase and are analysed with that phase's
// adversary.
//
// Single-shot messages each draw from their own counter-based stream, the
// streams Monte-Carlo's trials consume, so backend agreement is draw for
// draw and not just statistical. Sessions draw one stream per session and
// inject in round-major waves; their rounds fold through the phased
// accumulator (analyzeRoutedTimeline).
func runRouted(cfg Config) (Result, error) {
	ms := cfg.members()
	rounds := cfg.sessions()
	reroute := cfg.Faults != nil && cfg.Reliability.Policy == faults.PolicyReroute
	T := phaseWindows(&cfg)
	rps := make([]routedPhase, len(ms))
	for e := range ms {
		p, rp := &ms[e], &rps[e]
		if p.epoch.Messages+p.epoch.Rounds == 0 {
			continue
		}
		analysts, sels, err := phasedMachinery(cfg, ms[e:e+1])
		if err != nil {
			return Result{}, err
		}
		rp.analyst = analysts[0]
		if rp.sampler, err = sels[0].NewSampler(); err != nil {
			return Result{}, err
		}
		if cfg.lossy() {
			if rp.analystU, err = honestReceiverAnalyst(&cfg, p.n, p.denseComp); err != nil {
				return Result{}, err
			}
		}
	}

	baseGoroutines := runtime.NumGoroutine()
	nw, send, err := startRouted(&cfg, routedNetConfig(&cfg, ms, T))
	if err != nil {
		return Result{}, err
	}
	defer nw.Close()

	start := time.Now() //anonlint:allow detrand(wall-clock metrics only, never flows into Result)
	var (
		route      []trace.NodeID // union-identity route, reused (see startRouted)
		first      int            // first attempts so far, for the cancellation checkpoints
		reroutes   int
		goroutines int
		// Sessions: one stream and sender per session; ids is session-major,
		// ids[s·k + r] being session s's round r.
		k        = cfg.Workload.Rounds
		strs     []stats.Stream
		senders  []trace.NodeID
		ids      []trace.MessageID
		originOf map[trace.MessageID]int // reroute: message → its index in the phase
	)
	// inject sends one message of phase e from a union-identity sender over
	// a path drawn from rng in the phase's dense space.
	inject := func(e int, rng *stats.Stream, sender trace.NodeID) (trace.MessageID, error) {
		p := &ms[e]
		d, _ := p.dense(sender)
		path, err := rps[e].sampler.SelectPath(rng, trace.NodeID(d))
		if err != nil {
			return 0, err
		}
		if p.live != nil {
			route = route[:0]
			for _, v := range path {
				route = append(route, p.live[v])
			}
			path = route
		}
		return send(sender, path)
	}
	// checkpoint polls cancellation before every batchSize-th first attempt;
	// a canceled run abandons the kernel mid-traffic and the deferred Close
	// tears it down.
	checkpoint := func() error {
		first++
		if (first-1)%batchSize == 0 {
			return cfg.checkCanceled()
		}
		return nil
	}
	if rounds {
		strs = make([]stats.Stream, cfg.Workload.Messages)
		senders = make([]trace.NodeID, len(strs))
		ids = make([]trace.MessageID, len(strs)*k)
		for s := range strs {
			strs[s] = stats.NewStream(cfg.Workload.Seed, int64(s))
			senders[s] = cfg.sessionSender(&strs[s])
		}
	}
	if reroute {
		originOf = make(map[trace.MessageID]int, cfg.Workload.Messages)
	}
	r := 0 // sessions: the global round of the next wave
	for e := range ms {
		p, rp := &ms[e], &rps[e]
		if rp.sampler == nil {
			continue
		}
		nw.AdvanceTime(T[e])
		if rounds {
			for j := 0; j < p.epoch.Rounds; j, r = j+1, r+1 {
				for s := range senders {
					if err := checkpoint(); err != nil {
						return Result{}, err
					}
					if ids[s*k+r], err = inject(e, &strs[s], senders[s]); err != nil {
						return Result{}, err
					}
				}
			}
		} else {
			seed := cfg.Workload.Seed
			if len(cfg.phases) > 0 {
				seed = phaseSeed(seed, e)
			}
			rp.senders = make([]trace.NodeID, p.epoch.Messages)
			rp.ids = make([]trace.MessageID, len(rp.senders))
			if reroute {
				rp.strs = make([]stats.Stream, len(rp.senders))
				rp.failed = make([][]trace.MessageID, len(rp.senders))
			}
			for i := range rp.senders {
				if err := checkpoint(); err != nil {
					return Result{}, err
				}
				rng := stats.NewStream(seed, int64(i))
				sender := cfg.Workload.Sender
				if !cfg.Workload.FixedSender {
					sender = p.global(rng.Intn(p.n))
				}
				id, err := inject(e, &rng, sender)
				if err != nil {
					return Result{}, err
				}
				rp.senders[i], rp.ids[i] = sender, id
				if reroute {
					rp.strs[i] = rng
					originOf[id] = i
				}
			}
		}
		goroutines = max(goroutines, runtime.NumGoroutine()-baseGoroutines)
		if err := nw.Settle(settleTimeout); err != nil {
			return Result{}, err
		}
		if reroute {
			n, err := rerouteWaves(&cfg, nw, rp, originOf, func(rng *stats.Stream, sender trace.NodeID) (trace.MessageID, error) {
				return inject(e, rng, sender)
			})
			if err != nil {
				return Result{}, err
			}
			reroutes += n
		}
	}
	elapsed := time.Since(start)
	// Loss and crash drops are the configured fault process (a lossless run
	// has none); any other cause is a defect.
	if err := checkUnexpectedDrops(nw); err != nil {
		return Result{}, err
	}

	var res Result
	if rounds {
		var traffic []members
		var analysts []*adversary.Analyst
		for e := range ms {
			if rps[e].analyst != nil {
				traffic = append(traffic, ms[e])
				analysts = append(analysts, rps[e].analyst)
			}
		}
		res, err = analyzeRoutedTimeline(cfg, traffic, analysts, nw, senders, ids)
	} else {
		res, err = analyzeSingleShot(&cfg, ms, rps, nw, reroutes)
	}
	if err != nil {
		return Result{}, err
	}
	res.Kernel = kernelStats(nw, goroutines, elapsed)
	return res, nil
}

// routedNetConfig is the kernel configuration of a routed run over the
// union identity space: the first phase's members start live with its
// compromised set, and the churn schedule is the phase-to-phase
// membership diff at the window boundaries T, ordered join → recover →
// compromise → leave per boundary so the kernel's per-node state machine
// sees only legal transitions. A static config is one phase, with no
// churn.
func routedNetConfig(cfg *Config, ms []members, T []uint64) simnet.Config {
	union := unionSize(cfg.N, cfg.Timeline)
	p0 := &ms[0]
	nwCfg := simnet.Config{N: union, Compromised: p0.comp}
	if p0.live != nil {
		nwCfg.Down = make([]trace.NodeID, 0, union-p0.n)
		for g, j := 0, 0; g < union; g++ {
			if j < p0.n && p0.live[j] == trace.NodeID(g) {
				j++
				continue
			}
			nwCfg.Down = append(nwCfg.Down, trace.NodeID(g))
		}
	}
	for e := 1; e < len(ms); e++ {
		prev, cur := &ms[e-1], &ms[e]
		at := T[e]
		for g := range missing(cur.live, prev.live) {
			nwCfg.Churn = append(nwCfg.Churn, simnet.ChurnEvent{Time: at, Kind: simnet.ChurnJoin, Node: g})
		}
		for g := range missing(prev.comp, cur.comp) {
			nwCfg.Churn = append(nwCfg.Churn, simnet.ChurnEvent{Time: at, Kind: simnet.ChurnRecover, Node: g})
		}
		for g := range missing(cur.comp, prev.comp) {
			nwCfg.Churn = append(nwCfg.Churn, simnet.ChurnEvent{Time: at, Kind: simnet.ChurnCompromise, Node: g})
		}
		for g := range missing(prev.live, cur.live) {
			nwCfg.Churn = append(nwCfg.Churn, simnet.ChurnEvent{Time: at, Kind: simnet.ChurnLeave, Node: g})
		}
	}
	return nwCfg
}

// startRouted builds and starts the kernel of a routed substrate (plain,
// onion or mix) over nwCfg's identities, under the scenario's seed, hop
// delay and fault plan: onion routing gets a key ring derived from the
// seed and its forwarder, and threshold mixes get their batch size and one
// shard. The returned inject sends one message from sender over an
// explicit route, onion-wrapped where the substrate needs it; the route's
// buffer may be reused once inject returns (SendRoute copies it and
// onion.Build consumes it).
func startRouted(cfg *Config, nwCfg simnet.Config) (*simnet.Network,
	func(sender trace.NodeID, path []trace.NodeID) (trace.MessageID, error), error) {
	nwCfg.Seed = cfg.Workload.Seed
	nwCfg.MaxHopDelay = cfg.Workload.MaxHopDelay
	faultNetConfig(&nwCfg, cfg)
	var ring *onion.KeyRing
	if cfg.Protocol == ProtocolOnion {
		var secret [8]byte
		binary.LittleEndian.PutUint64(secret[:], uint64(cfg.Workload.Seed)+0x517cc1b727220a95)
		var err error
		if ring, err = onion.NewKeyRing(secret[:], nwCfg.N); err != nil {
			return nil, nil, err
		}
		if nwCfg.Forwarder, err = onion.NewForwarder(ring); err != nil {
			return nil, nil, err
		}
	}
	if cfg.Protocol == ProtocolMix {
		nwCfg.BatchThreshold = cfg.Workload.BatchThreshold
		if nwCfg.BatchThreshold < 2 {
			nwCfg.BatchThreshold = defaultMixBatch
		}
		// Batch composition follows arrival order, which is scheduling-
		// dependent across shards; one shard keeps mix scenarios
		// bit-reproducible for a fixed seed (plain/onion runs stay
		// parallel — their analysis is order-independent).
		nwCfg.Shards = 1
	}
	nw, err := simnet.New(nwCfg)
	if err != nil {
		return nil, nil, err
	}
	nw.Start()
	return nw, func(sender trace.NodeID, path []trace.NodeID) (trace.MessageID, error) {
		if ring != nil && len(path) > 0 {
			blob, err := onion.Build(ring, path, nil, cryptorand.Reader)
			if err != nil {
				return 0, err
			}
			return nw.Inject(sender, path[0], simnet.Packet{Onion: blob})
		}
		return nw.SendRoute(sender, path, nil)
	}, nil
}

// analyzeSingleShot measures single-shot traffic phase by phase, each
// phase's messages in injection order — a fixed order, so the empirical
// estimate is bit-reproducible for a fixed seed — through the phase's
// analyst in its dense space, the O(reports) entropy fast path.
// The phases pool into one mean; a timeline also reports each phase's
// own. Under a fault plan H covers the delivered messages only, and
// HDegraded folds in the evidence each one's failed attempts and
// retransmissions leaked, through the phase's honest-receiver analyst
// (foldDegraded). reroutes counts the run's re-injections.
func analyzeSingleShot(cfg *Config, ms []members, rps []routedPhase, nw *simnet.Network, reroutes int) (Result, error) {
	var (
		sum, sumDeg  stats.Summary
		injected     int
		compSenders  int
		deanonymized int
		epochs       []EpochResult
		sc           adversary.Scratch
		partials     []*trace.MessageTrace
	)
	if len(cfg.phases) > 0 {
		epochs = make([]EpochResult, len(ms))
	}
	for e := range ms {
		p, rp := &ms[e], &rps[e]
		var pSum stats.Summary
		var acc *adversary.Accumulator
		if rp.analystU != nil {
			var err error
			if acc, err = adversary.NewAccumulator(rp.analyst); err != nil {
				return Result{}, err
			}
		}
		for i, sender := range rp.senders {
			injected++
			id := rp.ids[i]
			mt := nw.Trace(id)
			if cfg.Faults != nil && !mt.ReceiverSeen {
				continue // undelivered: no receiver-side event, excluded from H
			}
			if d, _ := p.dense(sender); rp.analyst.Compromised(trace.NodeID(d)) {
				// Local-eavesdropper branch: the adversary's agent at the
				// sender identifies it outright.
				sum.Add(0)
				pSum.Add(0)
				sumDeg.Add(0)
				compSenders++
				deanonymized++
				continue
			}
			dmt, err := p.denseTrace(mt)
			if err != nil {
				return Result{}, fmt.Errorf("scenario: message %d: %w", id, err)
			}
			h, err := rp.analyst.EntropyScratch(dmt, &sc)
			if err != nil {
				return Result{}, fmt.Errorf("scenario: message %d: %w", id, err)
			}
			if h < 1e-9 {
				deanonymized++
			}
			sum.Add(h)
			pSum.Add(h)
			// The degraded fold's evidence: every failed attempt (an empty
			// trace when it was lost before a compromised node processed
			// it), then the delivered trace's prefix up to each observer
			// that retransmitted it, in time order.
			partials = partials[:0]
			if rp.failed != nil {
				for _, fid := range rp.failed[i] {
					pmt, err := p.denseTrace(nw.Trace(fid))
					if err != nil {
						return Result{}, fmt.Errorf("scenario: message %d: %w", fid, err)
					}
					partials = append(partials, pmt)
				}
			}
			for _, rt := range nw.RetryTaps(id) {
				if do, ok := p.dense(rt.Observer); ok {
					partials = append(partials, truncateAtObserver(dmt, trace.NodeID(do)))
				}
			}
			if len(partials) == 0 {
				sumDeg.Add(h)
				continue
			}
			hd, err := foldDegraded(acc, rp.analystU, dmt, partials, &sc)
			if err != nil {
				return Result{}, fmt.Errorf("scenario: message %d degraded fold: %w", id, err)
			}
			sumDeg.Add(hd)
		}
		if epochs != nil {
			epochs[e] = EpochResult{Index: e, N: p.n, C: p.c, Messages: p.epoch.Messages}
			if pSum.N() > 0 {
				epochs[e].H = pSum.Mean()
			}
		}
	}
	res := Result{
		Estimated:    true,
		Trials:       sum.N(),
		MaxH:         entropy.Max(cfg.N),
		Deanonymized: deanonymized,
		Epochs:       epochs,
	}
	if len(cfg.phases) > 0 {
		res.MaxH = timelineMaxH(cfg.phases)
	}
	if sum.N() > 0 {
		res.H = sum.Mean()
		res.StdErr = sum.StdErr()
		res.CI95 = sum.CI95()
		res.CompromisedSenderShare = float64(compSenders) / float64(sum.N())
	}
	res.Normalized = res.H / res.MaxH
	if cfg.Faults != nil {
		res.DeliveryRate = float64(sum.N()) / float64(injected)
		res.MeanAttempts = attemptsPerMessage(cfg, nw.Metrics().Retries, injected+reroutes, injected)
		if sumDeg.N() > 0 {
			res.HDegraded = sumDeg.Mean()
		}
	}
	return res, nil
}

// analyzeRoutedTimeline folds the kernel's traces of persistent sessions
// through the accumulator, session by session in injection order — the
// empirical counterpart of runPhasedRounds. phases are the phases that
// carry rounds, with their analysts; a static config is one phase whose
// mapping is the identity. ids is session-major: ids[s·k + r] is session
// s's round r.
func analyzeRoutedTimeline(cfg Config, phases []members, analysts []*adversary.Analyst,
	nw *simnet.Network, senders []trace.NodeID, ids []trace.MessageID) (Result, error) {
	k := cfg.Workload.Rounds
	live := make([][]trace.NodeID, len(phases))
	for i := range phases {
		live[i] = phases[i].live
	}
	acc, err := adversary.NewTimelineAccumulator(unionSize(cfg.N, cfg.Timeline), analysts, live)
	if err != nil {
		return Result{}, err
	}
	var (
		sc        adversary.Scratch
		entropies = make([]float64, k)
		tally     sessionTally
		s         int
	)
	fold := func(pi, r int) error {
		id := ids[s*k+r]
		dmt, err := phases[pi].denseTrace(nw.Trace(id))
		if err == nil {
			err = acc.ObserveScratch(dmt, &sc)
		}
		if err != nil {
			return fmt.Errorf("scenario: message %d: %w", id, err)
		}
		return nil
	}
	for s = range senders {
		identifiedAt, err := phasedSession(phases, acc, entropies, senders[s], cfg.Workload.Confidence, fold)
		if err != nil {
			return Result{}, err
		}
		tally.add(entropies, identifiedAt, phases[0].compromised(senders[s]))
	}
	return tally.result(cfg), nil
}

// runCrowds executes the coin-flip jondo substrate: routing is the
// protocol's own (no strategy selector), honest jondos originate, and the
// result carries the Reiter–Rubin predecessor statistics next to the
// posterior entropy of the observed event. With Rounds > 1 each session is
// one initiator re-forming its path every round while the collaborators
// count predecessors — the classical degradation attack on Crowds.
func runCrowds(cfg Config) (Result, error) {
	n, comp := cfg.N, cfg.Adversary.nodes()
	c := len(comp)
	pf := cfg.CrowdsPf
	theo, err := crowds.PredecessorProb(n, c, pf)
	if err != nil {
		return Result{}, fmt.Errorf("%w: crowds substrate: %w", ErrBadConfig, err)
	}
	// The forwarder draws every hop from a stream keyed by the hop, so the
	// same seed replays the same routes under any shard scheduling.
	fwd, err := crowds.NewForwarder(n, pf, cfg.Workload.Seed)
	if err != nil {
		return Result{}, err
	}
	nwCfg := simnet.Config{
		N:           n,
		Compromised: comp,
		Seed:        cfg.Workload.Seed,
		MaxHopDelay: cfg.Workload.MaxHopDelay,
		Forwarder:   fwd,
	}
	baseGoroutines := runtime.NumGoroutine()
	nw, err := simnet.New(nwCfg)
	if err != nil {
		return Result{}, err
	}
	nw.Start()
	defer nw.Close()

	compromised := make(map[trace.NodeID]bool, c)
	for _, id := range comp {
		compromised[id] = true
	}
	sessions := cfg.Workload.Messages
	rounds := cfg.Workload.Rounds
	start := time.Now() //anonlint:allow detrand(wall-clock metrics only, never flows into Result)
	rng := stats.NewRand(cfg.Workload.Seed)
	senders := make([]trace.NodeID, sessions)
	ids := make([]trace.MessageID, sessions*rounds)
	for s := 0; s < sessions; s++ {
		if s%batchSize == 0 {
			if err := cfg.checkCanceled(); err != nil {
				return Result{}, err
			}
		}
		// Honest initiators only: the predecessor analysis conditions on
		// an uncompromised originator.
		sender := cfg.Workload.Sender
		if !cfg.Workload.FixedSender {
			sender = trace.NodeID(rng.Intn(n))
			for compromised[sender] {
				sender = trace.NodeID(rng.Intn(n))
			}
		}
		senders[s] = sender
		for r := 0; r < rounds; r++ {
			i := s*rounds + r
			var err error
			if ids[i], err = nw.Inject(sender, fwd.FirstHop(i), simnet.Packet{}); err != nil {
				return Result{}, err
			}
		}
	}
	goroutines := max(runtime.NumGoroutine()-baseGoroutines, 0)
	if err := nw.WaitSettled(settleTimeout); err != nil {
		return Result{}, err
	}
	elapsed := time.Since(start)

	// The predecessor-count likelihood ratio: per observed round the
	// initiator appears as the first collaborator's predecessor at rate
	// p1 = P(H1|H1+) while any other honest jondo appears at rate
	// q = (1−p1)/(n−c−1), so after counts m_v the posterior over honest
	// jondos is ∝ (p1/q)^{m_v}. Unobserved rounds are uninformative (the
	// observation event is initiator-independent).
	honest := n - c
	var logRatio float64 // ln(p1/q)
	if honest > 1 {
		logRatio = math.Log(theo * float64(honest-1) / (1 - theo))
	}
	conf := cfg.Workload.Confidence
	var (
		exposed, hits      int
		observedSum        int
		topCountIdentified int
		idCount, idRounds  int
		hSums              = make([]float64, rounds)
		deanonymized       int
		sum                stats.Summary
	)
	for s := 0; s < sessions; s++ {
		sender := senders[s]
		counts := make(map[trace.NodeID]int)
		// counted fixes the iteration order of the posterior sums (first
		// observation order), so results are bit-reproducible — ranging
		// over the counts map would reassociate the floating-point sums.
		var counted []trace.NodeID
		identifiedAt := 0
		// The posterior changes only on a round that adds an observation;
		// an unobserved round carries the previous round's values.
		h, top, mass := countPosterior(counts, counted, honest, logRatio)
		for r := 0; r < rounds; r++ {
			if mt := nw.Trace(ids[s*rounds+r]); len(mt.Reports) > 0 {
				pred := mt.Reports[0].Pred
				exposed++
				observedSum++
				if pred == sender {
					hits++
				}
				if counts[pred] == 0 {
					counted = append(counted, pred)
				}
				counts[pred]++
				h, top, mass = countPosterior(counts, counted, honest, logRatio)
			}
			hSums[r] += h
			if identifiedAt == 0 && conf > 0 && top == sender && mass >= conf {
				identifiedAt = r + 1
			}
		}
		sum.Add(h) // the final round's entropy
		if h < 1e-9 {
			deanonymized++
		}
		if identifiedAt > 0 {
			idCount++
			idRounds += identifiedAt
		}
		if topCountUnique(counts) == sender {
			topCountIdentified++
		}
	}
	for r := range hSums {
		hSums[r] /= float64(sessions)
	}
	okPI, err := crowds.ProbableInnocence(n, c, pf)
	if err != nil {
		return Result{}, err
	}
	hEvent, err := crowds.EventEntropy(n, c, pf)
	if err != nil {
		return Result{}, err
	}

	res := Result{
		Estimated:    true,
		Trials:       sessions,
		MaxH:         entropy.Max(n),
		Deanonymized: deanonymized,
		Kernel:       kernelStats(nw, goroutines, elapsed),
		Crowds: &CrowdsReport{
			Pf:                      pf,
			Observed:                exposed,
			Hits:                    hits,
			PredecessorProb:         theo,
			ProbableInnocence:       okPI,
			EventEntropy:            hEvent,
			TopCountIdentifiedShare: float64(topCountIdentified) / float64(sessions),
			MeanObservedRounds:      float64(observedSum) / float64(sessions),
		},
	}
	if cfg.Workload.degradation() {
		// Multi-round runs report the accumulated count-posterior entropy
		// (mean over sessions), like every other substrate.
		res.H = sum.Mean()
		res.StdErr = sum.StdErr()
		res.CI95 = sum.CI95()
		res.HRounds = hSums
		if conf > 0 {
			res.IdentifiedShare = float64(idCount) / float64(sessions)
			if idCount > 0 {
				res.MeanRoundsToIdentify = float64(idRounds) / float64(idCount)
			}
		}
	} else {
		// H carries the posterior entropy of the predecessor event — the
		// quantity the paper's §2 survey quotes for Crowds.
		res.H = hEvent
	}
	res.Normalized = entropy.Normalized(res.H, n)
	return res, nil
}

// countPosterior returns the entropy (bits), argmax node, and argmax mass
// of the predecessor-count posterior over the honest jondos: a jondo with
// count m carries weight exp(m·logRatio), uncounted jondos weight 1. The
// counted slice fixes the summation order. Cost is O(distinct counted
// nodes), independent of N.
func countPosterior(counts map[trace.NodeID]int, counted []trace.NodeID, honest int, logRatio float64) (float64, trace.NodeID, float64) {
	if honest <= 1 {
		// A single honest jondo is trivially identified.
		return 0, 0, 1
	}
	// W = Σ_v w_v with w_v = exp(m_v·logRatio); uncounted jondos have
	// w = 1. H = log2(W) − (Σ_v w_v·log2 w_v)/W, and uncounted jondos
	// contribute nothing to the weighted log sum.
	w := float64(honest - len(counts))
	var wLog float64
	top := trace.NodeID(-1)
	topW := 1.0 // any uncounted jondo, if every count is below weight 1
	for _, v := range counted {
		m := counts[v]
		wv := math.Exp(float64(m) * logRatio)
		w += wv
		wLog += wv * float64(m) * logRatio
		if wv > topW {
			topW, top = wv, v
		}
	}
	h := (math.Log(w) - wLog/w) / math.Ln2
	if h < 0 {
		h = 0 // guard against negative zero from rounding
	}
	return h, top, topW / w
}

// topCountUnique returns the node with the strictly highest predecessor
// count, or −1 when the maximum is tied or no observation was made.
func topCountUnique(counts map[trace.NodeID]int) trace.NodeID {
	best, bestCount, unique := trace.NodeID(-1), -1, false
	// A strict maximum is reached (and ties rejected) whatever the sweep
	// order: the result is a pure function of the multiset of counts.
	//anonlint:allow detrand(strict argmax with tie rejection is order-independent)
	for v, m := range counts {
		switch {
		case m > bestCount:
			best, bestCount, unique = v, m, true
		case m == bestCount:
			unique = false
		}
	}
	if !unique {
		return trace.NodeID(-1)
	}
	return best
}

// kernelStats snapshots the network's kernel counters into the Result
// form shared by every testbed substrate.
func kernelStats(nw *simnet.Network, goroutines int, elapsed time.Duration) *KernelStats {
	m := nw.Metrics()
	k := &KernelStats{
		Shards:       m.Shards,
		Events:       m.Events,
		BatchFlushes: m.BatchFlushes,
		Churn:        m.Churn,
		Goroutines:   goroutines,
	}
	if s := elapsed.Seconds(); s > 0 {
		k.EventsPerSec = float64(m.Events) / s
	}
	return k
}
