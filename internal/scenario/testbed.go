package scenario

// The testbed backend: executes scenarios on the sharded discrete-event
// network kernel (package simnet) with the protocol substrate the config
// names — plain source routes, onion layers, Crowds coin-flips, or
// threshold-mix batching — and measures the anonymity degree empirically
// by running the adversary's inference over the collected tuples.
//
// With Workload.Rounds > 1 every scenario becomes a set of persistent
// sender→receiver sessions: each session's initiator stays fixed while its
// path re-forms every round, and the adversary accumulates across the
// session's messages — Bayesian posterior multiplication (the
// generalized intersection attack: witnessed identities are zeroed, so
// candidate sets shrink round over round) on the routed substrates, whose
// static sessions fold as a one-phase timeline (analyzeRoutedTimeline),
// and Reiter–Rubin predecessor counting on Crowds.

import (
	cryptorand "crypto/rand"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"anonmix/internal/adversary"
	"anonmix/internal/crowds"
	"anonmix/internal/entropy"
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

type testbedBackend struct{}

func (testbedBackend) Kind() BackendKind { return BackendTestbed }

func (testbedBackend) Run(cfg Config) (Result, error) {
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
	if len(cfg.phases) > 0 {
		return runRoutedTimeline(cfg)
	}
	if cfg.Faults != nil {
		return runRoutedFaulty(cfg)
	}
	return runRouted(cfg)
}

// runRouted executes the source-routed substrates (plain, onion, mix):
// paths come from the strategy's selector, the network carries them, and
// the adversary's empirical mean posterior entropy is the measured H*(S).
// With Rounds > 1 each of the Workload.Messages sessions injects one
// message per round from its fixed sender.
func runRouted(cfg Config) (Result, error) {
	engine, err := Engine(cfg.N, len(cfg.Adversary.Compromised), engineOptions(cfg)...)
	if err != nil {
		return Result{}, err
	}
	// The config arrives normalized from Run, and the engine is already in
	// hand — build the analyst directly.
	analyst, err := adversary.NewAnalyst(engine, cfg.Strategy.Length, cfg.Adversary.Compromised)
	if err != nil {
		return Result{}, err
	}
	sel, err := pathsel.NewSelector(cfg.N, cfg.Strategy)
	if err != nil {
		return Result{}, err
	}

	baseGoroutines := runtime.NumGoroutine()
	nw, inject, err := startRouted(&cfg, simnet.Config{N: cfg.N, Compromised: cfg.Adversary.Compromised})
	if err != nil {
		return Result{}, err
	}
	defer nw.Close()

	sessions := cfg.Workload.Messages
	rounds := cfg.Workload.Rounds

	start := time.Now() //anonlint:allow detrand(wall-clock metrics only, never flows into Result)
	// Each session draws from its own counter-based stream — the same
	// streams the Monte-Carlo estimator consumes per trial, so backend
	// agreement is draw-for-draw, not just statistical. The sampler's path
	// buffer is reused across injections (see startRouted).
	sp, err := sel.NewSampler()
	if err != nil {
		return Result{}, err
	}
	senders := make([]trace.NodeID, sessions)
	ids := make([]trace.MessageID, sessions*rounds)
	for s := 0; s < sessions; s++ {
		// Cancellation checkpoints ride the batch runner's 64-item
		// granule; a canceled run abandons the kernel mid-traffic and the
		// deferred Close tears it down.
		if s%batchSize == 0 {
			if err := cfg.checkCanceled(); err != nil {
				return Result{}, err
			}
		}
		rng := stats.NewStream(cfg.Workload.Seed, int64(s))
		sender := cfg.Workload.Sender
		if !cfg.Workload.FixedSender {
			sender = trace.NodeID(rng.Intn(cfg.N))
		}
		senders[s] = sender
		for r := 0; r < rounds; r++ {
			path, err := sp.SelectPath(&rng, sender)
			if err != nil {
				return Result{}, err
			}
			if ids[s*rounds+r], err = inject(sender, path); err != nil {
				return Result{}, err
			}
		}
	}
	goroutines := max(runtime.NumGoroutine()-baseGoroutines, 0)
	if err := nw.WaitSettled(settleTimeout); err != nil {
		return Result{}, err
	}
	elapsed := time.Since(start)
	if drops := nw.Dropped(); len(drops) > 0 {
		return Result{}, fmt.Errorf("scenario: testbed dropped %d packets: %w", len(drops), drops[0])
	}

	traces := trace.Collate(nw.Tuples())
	var res Result
	if cfg.sessions() {
		res, err = analyzeRoutedTimeline(cfg, cfg.members(), []*adversary.Analyst{analyst}, traces, senders, ids)
	} else {
		res, err = analyzeRouted(analyst, traces, senders, ids)
	}
	if err != nil {
		return Result{}, err
	}
	res.MaxH = entropy.Max(cfg.N)
	res.Normalized = entropy.Normalized(res.H, cfg.N)
	res.Kernel = kernelStats(nw, goroutines, elapsed)
	return res, nil
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

// analyzeRouted measures single-shot traffic: it runs the adversary over
// the collected traces in injection order — a fixed order, so the
// empirical estimate is bit-reproducible for a fixed seed (ranging over
// the collated map would reassociate the floating-point mean run to run)
// — through the O(reports) entropy fast path.
func analyzeRouted(analyst *adversary.Analyst, traces map[trace.MessageID]*trace.MessageTrace,
	senders []trace.NodeID, ids []trace.MessageID) (Result, error) {
	var sum stats.Summary
	var compSenders, deanonymized int
	var sc adversary.Scratch
	for s, sender := range senders {
		if analyst.Compromised(sender) {
			// Local-eavesdropper branch: the adversary's agent at the
			// sender identifies it outright.
			sum.Add(0)
			compSenders++
			deanonymized++
			continue
		}
		mt := traces[ids[s]]
		if mt == nil {
			return Result{}, fmt.Errorf("scenario: message %d has no trace", ids[s])
		}
		h, err := analyst.EntropyScratch(mt, &sc)
		if err != nil {
			return Result{}, fmt.Errorf("scenario: message %d: %w", ids[s], err)
		}
		if h < 1e-9 {
			deanonymized++
		}
		sum.Add(h)
	}
	return Result{
		H:                      sum.Mean(),
		StdErr:                 sum.StdErr(),
		CI95:                   sum.CI95(),
		Estimated:              true,
		Trials:                 sum.N(),
		CompromisedSenderShare: float64(compSenders) / float64(sum.N()),
		Deanonymized:           deanonymized,
	}, nil
}

// runRoutedTimeline executes a dynamic-population scenario on the routed
// substrates. The membership schedule becomes kernel-level churn events at
// precomputed virtual timestamps: each phase gets a disjoint logical-time
// window wide enough for its traffic (injection count plus the worst-case
// path depth), the kernel's per-(node,time) state machine applies the
// joins/leaves/compromises on the boundaries, and path selection draws
// from the phase's live membership only. Between phases the network
// settles (flushing partial threshold-mix batches — the mix "fires on
// timeout" at the phase end) and the injection clock advances past the
// boundary, so every message's observations fall entirely inside one
// phase and are analyzed with that phase's adversary.
func runRoutedTimeline(cfg Config) (Result, error) {
	phases := cfg.members()
	analysts, sels, err := phasedMachinery(cfg, phases)
	if err != nil {
		return Result{}, err
	}
	totalIDs := unionSize(cfg.N, cfg.Timeline)
	rounds := timelineRounds(cfg.phases)
	sessions := cfg.Workload.Messages

	// Phase windows: wide enough that every event of phase e has a logical
	// time below T[e+1] (injections advance the clock by one each; every
	// hop, mix release included, adds at most 1+jitter ticks over the
	// phase's running maximum — fault-plan jitter and the retransmit
	// backoff budget included, see phaseSpan — and a path has at most hi+2
	// such steps).
	span := func(m int) uint64 { return phaseSpan(&cfg, m) }
	T := make([]uint64, len(phases)+1)
	for e := range phases {
		m := phases[e].epoch.Messages
		if rounds {
			m = sessions * phases[e].epoch.Rounds
		}
		T[e+1] = T[e] + span(m)
	}

	// The kernel's churn schedule is the phase-to-phase membership diff,
	// ordered join → recover → compromise → leave per boundary so the
	// kernel's per-node state machine sees only legal transitions.
	p0 := &phases[0]
	down := make([]trace.NodeID, 0, totalIDs-p0.n)
	for g, j := 0, 0; g < totalIDs; g++ {
		if j < p0.n && p0.live[j] == trace.NodeID(g) {
			j++
			continue
		}
		down = append(down, trace.NodeID(g))
	}
	var churn []simnet.ChurnEvent
	for e := 1; e < len(phases); e++ {
		prev, cur := &phases[e-1], &phases[e]
		at := T[e]
		for g := range missing(cur.live, prev.live) {
			churn = append(churn, simnet.ChurnEvent{Time: at, Kind: simnet.ChurnJoin, Node: g})
		}
		for g := range missing(prev.comp, cur.comp) {
			churn = append(churn, simnet.ChurnEvent{Time: at, Kind: simnet.ChurnRecover, Node: g})
		}
		for g := range missing(cur.comp, prev.comp) {
			churn = append(churn, simnet.ChurnEvent{Time: at, Kind: simnet.ChurnCompromise, Node: g})
		}
		for g := range missing(prev.live, cur.live) {
			churn = append(churn, simnet.ChurnEvent{Time: at, Kind: simnet.ChurnLeave, Node: g})
		}
	}

	baseGoroutines := runtime.NumGoroutine()
	nw, send, err := startRouted(&cfg, simnet.Config{N: totalIDs, Compromised: p0.comp, Down: down, Churn: churn})
	if err != nil {
		return Result{}, err
	}
	defer nw.Close()

	start := time.Now() //anonlint:allow detrand(wall-clock metrics only, never flows into Result)
	// Per-phase samplers over the dense spaces; drawPhasePath maps the
	// reusable dense buffer to a fresh union-identity route.
	samplers := make([]*pathsel.Sampler, len(sels))
	for i := range sels {
		if samplers[i], err = sels[i].NewSampler(); err != nil {
			return Result{}, err
		}
	}
	inject := func(e int, rng *stats.Stream, sender trace.NodeID) (trace.MessageID, error) {
		path, err := drawPhasePath(&phases[e], samplers[e], rng, sender)
		if err != nil {
			return 0, err
		}
		return send(sender, path)
	}

	var (
		k             = cfg.Workload.Rounds
		senders       []trace.NodeID    // rounds mode: one per session
		strs          []stats.Stream    // rounds mode: one per session
		ids           []trace.MessageID // rounds mode: session-major [s*k+r]
		phaseSenders  [][]trace.NodeID  // messages mode
		phaseIDs      [][]trace.MessageID
		maxGoroutines int
	)
	if rounds {
		// One counter-based stream per session — the same streams the
		// Monte-Carlo timeline consumes — so every session's sender and
		// path draws are independent of the phase-major injection order.
		senders = make([]trace.NodeID, sessions)
		strs = make([]stats.Stream, sessions)
		ids = make([]trace.MessageID, sessions*k)
		for s := range senders {
			strs[s] = stats.NewStream(cfg.Workload.Seed, int64(s))
			if cfg.Workload.FixedSender {
				senders[s] = cfg.Workload.Sender
			} else {
				senders[s] = cfg.pool[strs[s].Intn(len(cfg.pool))]
			}
		}
	} else {
		phaseSenders = make([][]trace.NodeID, len(phases))
		phaseIDs = make([][]trace.MessageID, len(phases))
	}
	r := 0
	for e := range phases {
		p := &phases[e]
		if e > 0 {
			nw.AdvanceTime(T[e])
		}
		if rounds {
			for j := 0; j < p.epoch.Rounds; j++ {
				// One checkpoint per round wave (sessions injections).
				if err := cfg.checkCanceled(); err != nil {
					return Result{}, err
				}
				for s := 0; s < sessions; s++ {
					id, err := inject(e, &strs[s], senders[s])
					if err != nil {
						return Result{}, err
					}
					ids[s*k+r] = id
				}
				r++
			}
		} else {
			for m := 0; m < p.epoch.Messages; m++ {
				if m%batchSize == 0 {
					if err := cfg.checkCanceled(); err != nil {
						return Result{}, err
					}
				}
				// Messages mode: each message draws from its own stream
				// under the phase's derived seed, matching the per-phase
				// trials of the Monte-Carlo timeline.
				rng := stats.NewStream(phaseSeed(cfg.Workload.Seed, e), int64(m))
				sender := cfg.Workload.Sender
				if !cfg.Workload.FixedSender {
					sender = p.live[rng.Intn(p.n)]
				}
				id, err := inject(e, &rng, sender)
				if err != nil {
					return Result{}, err
				}
				phaseSenders[e] = append(phaseSenders[e], sender)
				phaseIDs[e] = append(phaseIDs[e], id)
			}
		}
		maxGoroutines = max(maxGoroutines, runtime.NumGoroutine()-baseGoroutines)
		if err := nw.Settle(settleTimeout); err != nil {
			return Result{}, err
		}
	}
	elapsed := time.Since(start)
	var fa *faultAnalysis
	if cfg.Faults == nil {
		if drops := nw.Dropped(); len(drops) > 0 {
			return Result{}, fmt.Errorf("scenario: testbed dropped %d packets: %w", len(drops), drops[0])
		}
	} else {
		// Loss and crash drops are the configured fault process; anything
		// else is still a defect.
		if err := checkUnexpectedDrops(nw); err != nil {
			return Result{}, err
		}
		if fa, err = newTimelineFaultAnalysis(cfg, phases, nw); err != nil {
			return Result{}, err
		}
	}
	traces := trace.Collate(nw.Tuples())

	maxH := timelineMaxH(cfg.phases)
	var res Result
	if rounds {
		var traffic []members
		var trafficAnalysts []*adversary.Analyst
		for e := range phases {
			if phases[e].epoch.Rounds > 0 {
				traffic = append(traffic, phases[e])
				trafficAnalysts = append(trafficAnalysts, analysts[e])
			}
		}
		res, err = analyzeRoutedTimeline(cfg, traffic, trafficAnalysts, traces, senders, ids)
	} else {
		res, err = analyzeSingleShotTimeline(phases, analysts, traces, phaseSenders, phaseIDs, fa)
	}
	if err != nil {
		return Result{}, err
	}
	res.MaxH = maxH
	res.Normalized = res.H / maxH
	res.Kernel = kernelStats(nw, max(maxGoroutines, 0), elapsed)
	return res, nil
}

// analyzeSingleShotTimeline measures a Messages timeline: every phase's
// traffic is analyzed with that phase's adversary in its dense space, in
// injection order for bit-reproducibility, and the phases blend into the
// pooled empirical mean. A non-nil faultAnalysis restricts H to delivered
// messages and folds the retransmission evidence into HDegraded, exactly
// as the static faulted path does (see runRoutedFaulty).
func analyzeSingleShotTimeline(phases []members, analysts []*adversary.Analyst,
	traces map[trace.MessageID]*trace.MessageTrace,
	phaseSenders [][]trace.NodeID, phaseIDs [][]trace.MessageID,
	fa *faultAnalysis) (Result, error) {
	var (
		sum, sumDeg  stats.Summary
		injected     int
		compSenders  int
		deanonymized int
		epochs       []EpochResult
		sc           adversary.Scratch
		partials     []*trace.MessageTrace
	)
	for e := range phases {
		p := &phases[e]
		var pSum stats.Summary
		var acc *adversary.Accumulator
		if fa != nil {
			var err error
			if acc, err = adversary.NewAccumulator(analysts[e]); err != nil {
				return Result{}, err
			}
		}
		for m, sender := range phaseSenders[e] {
			injected++
			id := phaseIDs[e][m]
			if fa != nil && !fa.delivered[id] {
				continue // undelivered: excluded from H, counted in delivery stats
			}
			if p.compromised(sender) {
				sum.Add(0)
				pSum.Add(0)
				sumDeg.Add(0)
				compSenders++
				deanonymized++
				continue
			}
			mt := traces[id]
			if mt == nil {
				return Result{}, fmt.Errorf("scenario: message %d has no trace", id)
			}
			dmt, err := p.denseTrace(mt)
			if err != nil {
				return Result{}, fmt.Errorf("scenario: message %d: %w", id, err)
			}
			h, err := analysts[e].EntropyScratch(dmt, &sc)
			if err != nil {
				return Result{}, fmt.Errorf("scenario: message %d: %w", id, err)
			}
			if h < 1e-9 {
				deanonymized++
			}
			sum.Add(h)
			pSum.Add(h)
			if fa == nil {
				continue
			}
			// Degraded fold: each retransmission the kernel logged for this
			// message leaked the delivered trace's prefix up to the retrying
			// observer, analyzed in the phase's dense space.
			partials = partials[:0]
			for _, rt := range fa.retries[id] {
				do, ok := p.dense(rt.Observer)
				if !ok {
					continue
				}
				partials = append(partials, truncateAtObserver(dmt, trace.NodeID(do)))
			}
			if len(partials) == 0 {
				sumDeg.Add(h)
				continue
			}
			hd, err := foldDegraded(acc, fa.analystsU[e], dmt, partials, &sc)
			if err != nil {
				return Result{}, fmt.Errorf("scenario: message %d degraded fold: %w", id, err)
			}
			sumDeg.Add(hd)
		}
		er := EpochResult{Index: e, N: p.n, C: p.c, Messages: p.epoch.Messages}
		if pSum.N() > 0 {
			er.H = pSum.Mean()
		}
		epochs = append(epochs, er)
	}
	res := Result{
		Estimated:    true,
		Trials:       sum.N(),
		Deanonymized: deanonymized,
		Epochs:       epochs,
	}
	if sum.N() > 0 {
		res.H = sum.Mean()
		res.StdErr = sum.StdErr()
		res.CI95 = sum.CI95()
		res.CompromisedSenderShare = float64(compSenders) / float64(sum.N())
	}
	if fa != nil {
		res.DeliveryRate = float64(sum.N()) / float64(injected)
		res.MeanAttempts = fa.meanAttempts(injected)
		if sumDeg.N() > 0 {
			res.HDegraded = sumDeg.Mean()
		}
	}
	return res, nil
}

// analyzeRoutedTimeline folds the collected traces of persistent
// sessions through the accumulator, session by session in injection order
// — the empirical counterpart of runPhasedRounds. phases are the phases
// that carry rounds, with their analysts; a static config is one phase
// whose mapping is the identity. ids is session-major: ids[s·k + r] is
// session s's round r.
func analyzeRoutedTimeline(cfg Config, phases []members, analysts []*adversary.Analyst,
	traces map[trace.MessageID]*trace.MessageTrace,
	senders []trace.NodeID, ids []trace.MessageID) (Result, error) {
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
		mt := traces[id]
		if mt == nil {
			return fmt.Errorf("scenario: message %d has no trace", id)
		}
		dmt, err := phases[pi].denseTrace(mt)
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
	n, comp := cfg.N, cfg.Adversary.Compromised
	c := len(comp)
	pf := cfg.CrowdsPf
	theo, err := crowds.PredecessorProb(n, c, pf)
	if err != nil {
		return Result{}, fmt.Errorf("%w: crowds substrate: %w", ErrBadConfig, err)
	}
	nwCfg := simnet.Config{
		N:           n,
		Compromised: comp,
		Seed:        cfg.Workload.Seed,
		MaxHopDelay: cfg.Workload.MaxHopDelay,
	}
	// Degradation runs must be bit-reproducible for a fixed seed, but the
	// live Crowds forwarder draws its coin flips from one shared RNG in
	// event-processing order, which depends on shard scheduling. Multi-round
	// runs therefore materialize each path at injection time — the same
	// draws (first hop, then coin-flip continuations), made serially — and
	// ship it as an explicit route; single-shot runs keep the live
	// hop-by-hop forwarder, whose aggregate statistics don't depend on the
	// draw interleaving.
	var fwd *crowds.Forwarder
	materialize := cfg.Workload.degradation()
	var routeRng *rand.Rand
	if materialize {
		routeRng = stats.Fork(cfg.Workload.Seed, 1)
	} else {
		fwd, err = crowds.NewForwarder(n, pf, cfg.Workload.Seed)
		if err != nil {
			return Result{}, err
		}
		nwCfg.Forwarder = fwd
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
			var id trace.MessageID
			var err error
			if materialize {
				id, err = nw.SendRoute(sender, crowdsRoute(routeRng, n, pf), nil)
			} else {
				id, err = nw.Inject(sender, fwd.FirstHop(sender), simnet.Packet{})
			}
			if err != nil {
				return Result{}, err
			}
			ids[s*rounds+r] = id
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
	traces := trace.Collate(nw.Tuples())
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
		final := 0.0
		for r := 0; r < rounds; r++ {
			mt := traces[ids[s*rounds+r]]
			if mt != nil && len(mt.Reports) > 0 {
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
			}
			h, top, mass := countPosterior(counts, counted, honest, logRatio)
			hSums[r] += h
			final = h
			if identifiedAt == 0 && conf > 0 && top == sender && mass >= conf {
				identifiedAt = r + 1
			}
		}
		sum.Add(final)
		if final < 1e-9 {
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

// crowdsRoute materializes one Crowds path as an explicit route: the
// initiator's mandatory first uniform hop, then coin-flip continuations —
// draw for draw the sequence crowds.Forwarder would make, but taken
// serially at injection time so multi-round runs are bit-reproducible.
func crowdsRoute(rng *rand.Rand, n int, pf float64) []trace.NodeID {
	route := []trace.NodeID{trace.NodeID(rng.Intn(n))}
	for rng.Float64() < pf {
		route = append(route, trace.NodeID(rng.Intn(n)))
	}
	return route
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

func init() { Register(testbedBackend{}) }
