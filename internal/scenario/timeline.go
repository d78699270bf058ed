package scenario

// The timeline dimension: dynamic populations as piecewise-constant
// phases. This file owns everything the three backends share — the
// deterministic membership schedule derived from Config.Timeline, the
// dense-space mapping each phase hands to the analytic machinery, the
// session driver every degradation run goes through (a static config is
// one phase whose mapping is the identity), and the compact CLI epoch
// syntax — so
// that "the same scenario on every backend" keeps meaning the same
// population trajectory everywhere.
//
// Identity rules (all deterministic, shared by every backend):
//
//   - The initial population is 0..N−1; joiners get fresh identities
//     allocated upward (N, N+1, ...). The union space therefore has
//     N + ΣJoin identities, of which each phase sees a live subset.
//   - Leaves remove the highest-identity honest members first.
//   - Compromises convert the lowest-identity honest members first (the
//     creeping-compromise counterpart of "the first Count nodes").
//   - Recoveries undo compromises LIFO (most recently compromised first).
//
// Each phase maps its live members, in ascending identity order, onto the
// dense space 0..n_e−1 the exact engine, the Monte-Carlo estimator, and
// the adversary's analyst operate on; the union identity is what threads a
// node through the phases of a degradation session.
//
// The schedule has two views. The counts (n_e, c_e) of every phase come
// from an O(epochs) walk that also validates the schedule; they are all
// the exact single-shot mixture and TimelineStates read. The identity
// view (members) costs O(epochs · (N + ΣJoin)) and is built only where
// identities matter, at most once per run: normalize keeps the view its
// fixed-sender and sender-pool checks build, with the pool, and the
// sampling drivers build it otherwise. A static config's view is one
// identity phase over the adversary's nodes, which costs one build of
// the first Count nodes for a count adversary, nothing more for a sorted
// explicit list, and one sorted copy otherwise.

import (
	"fmt"
	"iter"
	"math"
	"slices"
	"strconv"
	"strings"

	"anonmix/internal/adversary"
	"anonmix/internal/pathsel"
	"anonmix/internal/stats"
	"anonmix/internal/trace"
)

// phase is one epoch of the normalized schedule: the epoch's budgets plus
// the population counts after its deltas. The counts are all the exact
// single-shot path and TimelineStates read; drivers that need identities
// build the members view on top.
type phase struct {
	epoch Epoch
	// n is the live population, c the compromised count.
	n, c int
}

// members is the identity view of one phase, built only by the code that
// needs identities (Config.members).
type members struct {
	phase
	// live lists the members in ascending union identity; live[i] is the
	// union identity of dense node i. It is nil for the identity: the one
	// phase of a static config.
	live []trace.NodeID
	// comp lists the compromised members (union identities, ascending).
	comp []trace.NodeID
	// denseComp holds the dense images of comp (positions in live).
	denseComp []trace.NodeID
}

// dense returns the dense index of union identity g and whether g is live
// in the phase.
func (m *members) dense(g trace.NodeID) (int, bool) {
	if m.live == nil {
		return int(g), g >= 0 && int(g) < m.n
	}
	return slices.BinarySearch(m.live, g)
}

// global returns the union identity of dense node d.
func (m *members) global(d int) trace.NodeID {
	if m.live == nil {
		return trace.NodeID(d)
	}
	return m.live[d]
}

// compromised reports whether union identity g is a compromised member of
// the phase.
func (m *members) compromised(g trace.NodeID) bool {
	_, ok := slices.BinarySearch(m.comp, g)
	return ok
}

// normalizeTimeline validates Config.Timeline, reconciles it with the
// workload, and derives the schedule's counts into cfg.phases. A nil
// timeline leaves the config untouched (the static model).
func normalizeTimeline(cfg *Config) error {
	if len(cfg.Timeline) == 0 {
		return nil
	}
	msgs, rounds, err := timelineBudgets(cfg.Timeline)
	if err != nil {
		return err
	}
	switch {
	case msgs > 0 && rounds > 0:
		return fmt.Errorf("%w: timeline mixes Messages and Rounds budgets (pick one axis)", ErrBadConfig)
	case msgs == 0 && rounds == 0:
		return fmt.Errorf("%w: timeline carries no traffic (every epoch has zero Messages and Rounds)", ErrBadConfig)
	case rounds > 0:
		// Degradation timeline: Workload.Messages sessions persist across
		// the phases, each sending ΣRounds rounds.
		if cfg.Workload.Rounds > 1 {
			return fmt.Errorf("%w: per-epoch Rounds replace Workload.Rounds (leave it unset)", ErrBadConfig)
		}
		if cfg.Workload.Messages <= 0 {
			return fmt.Errorf("%w: degradation timeline needs Workload.Messages sessions > 0", ErrBadConfig)
		}
		cfg.Workload.Rounds = rounds
	default:
		// Single-shot timeline: the per-epoch budgets are the traffic.
		if cfg.Workload.Messages != 0 {
			return fmt.Errorf("%w: per-epoch Messages replace Workload.Messages (leave it unset)", ErrBadConfig)
		}
		if cfg.Workload.Rounds > 1 {
			return fmt.Errorf("%w: a Messages timeline is single-shot (use per-epoch Rounds for degradation)", ErrBadConfig)
		}
		if cfg.Workload.Confidence > 0 {
			return fmt.Errorf("%w: identification tracking needs a Rounds timeline", ErrBadConfig)
		}
		cfg.Workload.Messages = msgs
	}
	phases, err := schedulePhases(cfg.N, cfg.Adversary.Count, cfg.Timeline)
	if err != nil {
		return err
	}
	cfg.phases = phases
	if cfg.Workload.FixedSender || rounds > 0 {
		// The sender checks need identities; the drivers reuse this view
		// and the session sender pool instead of building their own.
		cfg.view = cfg.members()
	}
	if cfg.Workload.FixedSender {
		s := cfg.Workload.Sender
		for i, m := range cfg.view {
			if _, ok := m.dense(s); !ok {
				return fmt.Errorf("%w: fixed sender %v leaves during epoch %d", ErrBadConfig, s, i)
			}
			if m.compromised(s) {
				return fmt.Errorf("%w: fixed sender %v is compromised in epoch %d", ErrBadConfig, s, i)
			}
		}
	} else if rounds > 0 {
		if cfg.pool = senderPool(cfg.view); len(cfg.pool) == 0 {
			return fmt.Errorf("%w: no node is a member through every traffic epoch (empty session sender pool)", ErrBadConfig)
		}
	}
	if cfg.Strategy.Length != nil {
		// The strategy must fit the smallest phase: a simple path cannot be
		// longer than the live population minus the sender.
		minN := cfg.N
		for i := range phases {
			minN = min(minN, phases[i].n)
		}
		if err := cfg.Strategy.Validate(minN); err != nil {
			return fmt.Errorf("%w: strategy does not fit the smallest epoch population %d: %w",
				ErrBadConfig, minN, err)
		}
	}
	return nil
}

// timelineBudgets rejects an epoch with a negative field and returns the
// timeline's total Messages and Rounds budgets.
func timelineBudgets(timeline []Epoch) (msgs, rounds int, err error) {
	for i, e := range timeline {
		if e.Messages < 0 || e.Rounds < 0 || e.Join < 0 || e.Leave < 0 || e.Compromise < 0 || e.Recover < 0 {
			return 0, 0, fmt.Errorf("%w: epoch %d has a negative field (%+v)", ErrBadConfig, i, e)
		}
		msgs += e.Messages
		rounds += e.Rounds
	}
	return msgs, rounds, nil
}

// schedulePhases is the one place a membership schedule is validated: it
// walks the counts of a base population of n nodes, c of them compromised,
// through the epochs' deltas in order (joins, leaves, compromises,
// recoveries) and returns each phase's counts, in O(epochs). Counts
// suffice because compromised nodes never leave: every compromised node
// is live, so a delta fits exactly when enough honest (leave, compromise)
// or compromised (recover) members remain, whichever identities the
// rules pick.
func schedulePhases(n, c int, timeline []Epoch) ([]phase, error) {
	phases := make([]phase, len(timeline))
	for i, e := range timeline {
		n += e.Join
		if e.Leave > n-c {
			return nil, fmt.Errorf("%w: epoch %d: no honest member left to leave", ErrBadConfig, i)
		}
		n -= e.Leave
		if e.Compromise > n-c {
			return nil, fmt.Errorf("%w: epoch %d: no honest member left to compromise", ErrBadConfig, i)
		}
		c += e.Compromise
		if e.Recover > c {
			return nil, fmt.Errorf("%w: epoch %d: no compromised node left to recover", ErrBadConfig, i)
		}
		c -= e.Recover
		if n < 2 {
			return nil, fmt.Errorf("%w: epoch %d leaves %d live nodes (need ≥ 2)", ErrBadConfig, i, n)
		}
		if c >= n {
			return nil, fmt.Errorf("%w: epoch %d compromises the whole population (%d of %d)",
				ErrBadConfig, i, c, n)
		}
		phases[i] = phase{epoch: e, n: n, c: c}
	}
	return phases, nil
}

// members returns the identity view of the schedule normalize derived
// into c.phases, over the base population 0..N−1 with the adversary's
// nodes compromised: the view normalize kept, or else a fresh one. Either
// way the base set comes from one Adversary.nodes call, so a count
// adversary's prefix is built here, once per run. A fresh view replays
// the identity rules over per-identity flags and snapshots each phase
// into slices presized from its counts. A static config is its one phase
// (staticPhase) whose mapping is the identity: its compromised list is
// the base set itself when that is sorted, as the first Count nodes
// always are, and one sorted copy otherwise. The view may be shared:
// callers must not modify it.
func (c *Config) members() []members {
	if c.view != nil {
		return c.view
	}
	base := c.Adversary.nodes()
	if len(c.phases) == 0 {
		comp := base
		if !slices.IsSorted(comp) {
			comp = slices.Clone(comp)
			slices.Sort(comp)
		}
		return []members{{phase: c.staticPhase(), comp: comp, denseComp: base}}
	}
	live := make([]bool, unionSize(c.N, c.Timeline))
	comp := make([]bool, len(live))
	for v := 0; v < c.N; v++ {
		live[v] = true
	}
	for _, id := range base {
		comp[id] = true
	}
	// Recovery pops the newest compromise: the epochs' own, kept in order,
	// then the base set's from the end of its configuration order. base
	// may be the configuration's own list, so recovery shortens it and
	// never writes to it.
	pushes := 0
	for _, p := range c.phases {
		pushes += p.epoch.Compromise
	}
	order := make([]trace.NodeID, 0, pushes)
	honest := func(g int) bool { return live[g] && !comp[g] }
	next := c.N
	out := make([]members, len(c.phases))
	for i, p := range c.phases {
		e := p.epoch
		for j := 0; j < e.Join; j++ {
			live[next] = true
			next++
		}
		// Leaves take the highest-identity honest members, compromises the
		// lowest. The cursors start inside the allocated identity range
		// (identities ≥ next are future joiners, never live) and persist
		// across the epoch's loop, so an epoch's deltas cost one descending
		// plus one ascending walk — not a rescan per node. The counts walk
		// guarantees each cursor finds a member before leaving the range.
		cur := next - 1
		for j := 0; j < e.Leave; j++ {
			for !honest(cur) {
				cur--
			}
			live[cur] = false
		}
		cur = 0
		for j := 0; j < e.Compromise; j++ {
			for !honest(cur) {
				cur++
			}
			comp[cur] = true
			order = append(order, trace.NodeID(cur))
		}
		for j := 0; j < e.Recover; j++ {
			if k := len(order) - 1; k >= 0 {
				comp[order[k]] = false
				order = order[:k]
			} else {
				k = len(base) - 1
				comp[base[k]] = false
				base = base[:k]
			}
		}
		m := members{
			phase:     p,
			live:      make([]trace.NodeID, 0, p.n),
			comp:      make([]trace.NodeID, 0, p.c),
			denseComp: make([]trace.NodeID, 0, p.c),
		}
		// Snapshot over the allocated range only; identities ≥ next have
		// not joined in any phase so far.
		for g := 0; g < next; g++ {
			if !live[g] {
				continue
			}
			if comp[g] {
				m.comp = append(m.comp, trace.NodeID(g))
				m.denseComp = append(m.denseComp, trace.NodeID(len(m.live)))
			}
			m.live = append(m.live, trace.NodeID(g))
		}
		out[i] = m
	}
	return out
}

// staticPhase is a static config's one phase: the one-epoch timeline
// carrying the same traffic, Workload.Rounds rounds for a degradation run
// and Workload.Messages messages otherwise.
func (c *Config) staticPhase() phase {
	e := Epoch{Messages: c.Workload.Messages}
	if c.sessions() {
		e = Epoch{Rounds: c.Workload.Rounds}
	}
	return phase{epoch: e, n: c.N, c: c.Adversary.Count}
}

// missing yields, in order, the members of the ascending list a absent
// from the ascending list b (a merge walk).
func missing(a, b []trace.NodeID) iter.Seq[trace.NodeID] {
	return func(yield func(trace.NodeID) bool) {
		j := 0
		for _, g := range a {
			for j < len(b) && b[j] < g {
				j++
			}
			if (j == len(b) || b[j] != g) && !yield(g) {
				return
			}
		}
	}
}

// EpochState summarizes one epoch of a materialized timeline schedule: the
// live population, the compromised count, and the epoch's share of the
// timeline's traffic. It is the population-trajectory view consumers like
// the epoch-aware optimizer need, without the identities the sampling
// backends materialize.
type EpochState struct {
	// Index is the epoch's position in the timeline.
	Index int
	// N and C are the live population and compromised count after the
	// epoch's deltas.
	N, C int
	// Messages and Rounds echo the epoch's traffic budgets.
	Messages, Rounds int
	// Weight is the epoch's share of the timeline's total traffic; equal
	// shares when no epoch carries traffic (a pure population drift).
	Weight float64
}

// TimelineStates materializes the deterministic membership schedule of a
// timeline over a base population of n nodes with the first c compromised
// (the standard adversary layout), returning each epoch's (N, C) and
// traffic weight. It walks the same schedule as the execution backends, so
// the returned trajectory is exactly the one a scenario run would
// traverse, at O(epochs) cost whatever n.
func TimelineStates(n, c int, timeline []Epoch) ([]EpochState, error) {
	if n < 2 {
		return nil, fmt.Errorf("%w: need at least 2 nodes, have %d", ErrBadConfig, n)
	}
	if c < 0 || c >= n {
		return nil, fmt.Errorf("%w: %d compromised of %d nodes", ErrBadConfig, c, n)
	}
	if len(timeline) == 0 {
		return nil, fmt.Errorf("%w: empty timeline", ErrBadConfig)
	}
	if _, _, err := timelineBudgets(timeline); err != nil {
		return nil, err
	}
	phases, err := schedulePhases(n, c, timeline)
	if err != nil {
		return nil, err
	}
	weights := timelineWeights(phases)
	out := make([]EpochState, len(phases))
	for i, p := range phases {
		out[i] = EpochState{Index: i, N: p.n, C: p.c, Messages: p.epoch.Messages, Rounds: p.epoch.Rounds, Weight: weights[i]}
	}
	return out, nil
}

// unionSize is the size of the union identity space of a schedule.
func unionSize(n int, timeline []Epoch) int {
	total := n
	for _, e := range timeline {
		total += e.Join
	}
	return total
}

// timelineRounds reports whether the schedule is a degradation timeline
// (per-epoch Rounds) rather than a single-shot one (per-epoch Messages).
func timelineRounds(phases []phase) bool {
	for i := range phases {
		if phases[i].epoch.Rounds > 0 {
			return true
		}
	}
	return false
}

// senderPool returns the union identities eligible to carry a persistent
// session of a degradation timeline: members of every phase that sends
// rounds (compromised members included — theirs is the local-eavesdropper
// branch), ascending. It intersects the phases' live lists by merge walks.
// A static config's pool is every node, and senderPool returns nil.
func senderPool(ms []members) []trace.NodeID {
	var pool []trace.NodeID
	first := true
	for i := range ms {
		if ms[i].epoch.Rounds == 0 {
			continue
		}
		if first {
			pool = append(pool, ms[i].live...)
			first = false
			continue
		}
		live, j, k := ms[i].live, 0, 0
		for _, g := range pool {
			for j < len(live) && live[j] < g {
				j++
			}
			if j < len(live) && live[j] == g {
				pool[k] = g
				k++
			}
		}
		pool = pool[:k]
	}
	return pool
}

// timelineWeights returns each phase's share of the total traffic
// (messages for single-shot timelines, rounds for degradation ones), or
// equal shares when no phase carries traffic (a pure population drift,
// which only TimelineStates accepts).
func timelineWeights(phases []phase) []float64 {
	w := make([]float64, len(phases))
	var total float64
	for i := range phases {
		w[i] = float64(phases[i].epoch.Messages + phases[i].epoch.Rounds)
		total += w[i]
	}
	for i := range w {
		if total > 0 {
			w[i] /= total
		} else {
			w[i] = 1 / float64(len(w))
		}
	}
	return w
}

// timelineMaxH is the traffic-weighted upper bound Σ w_e·log2(n_e): the
// natural yardstick when the population size itself varies.
func timelineMaxH(phases []phase) float64 {
	var maxH float64
	for i, w := range timelineWeights(phases) {
		maxH += w * math.Log2(float64(phases[i].n))
	}
	return maxH
}

// phaseSeed derives a per-phase RNG seed, so phases draw from disjoint
// deterministic streams (the shared stats.ForkSeed stream derivation).
func phaseSeed(seed int64, i int) int64 {
	return stats.ForkSeed(seed, int64(i+1))
}

// denseTrace rewrites a union-identity message trace into the phase's
// dense node space (the receiver pseudo-identity passes through); under
// the identity it returns mt itself.
func (m *members) denseTrace(mt *trace.MessageTrace) (*trace.MessageTrace, error) {
	if m.live == nil {
		return mt, nil
	}
	out := &trace.MessageTrace{
		Msg:          mt.Msg,
		ReceiverSeen: mt.ReceiverSeen,
	}
	toDense := func(g trace.NodeID) (trace.NodeID, error) {
		if g == trace.Receiver {
			return trace.Receiver, nil
		}
		d, ok := m.dense(g)
		if !ok {
			return 0, fmt.Errorf("scenario: node %v observed outside its membership phase", g)
		}
		return trace.NodeID(d), nil
	}
	var err error
	if mt.ReceiverSeen {
		if out.ReceiverPred, err = toDense(mt.ReceiverPred); err != nil {
			return nil, err
		}
	}
	if len(mt.Reports) > 0 {
		out.Reports = make([]trace.Tuple, len(mt.Reports))
		for i, r := range mt.Reports {
			d := r
			if d.Observer, err = toDense(r.Observer); err != nil {
				return nil, err
			}
			if d.Pred, err = toDense(r.Pred); err != nil {
				return nil, err
			}
			if d.Succ, err = toDense(r.Succ); err != nil {
				return nil, err
			}
			out.Reports[i] = d
		}
	}
	return out, nil
}

// phasedSession folds one persistent session through the phases that
// carry its rounds: the caller's accumulator (reset here, so one
// allocation serves every session) folds each round through fold(phase,
// global round), which observes the round's message in the phase's dense
// space, and a sender compromised during a phase is identified outright
// from its first round there on (the adversary's agent at the sender —
// once burned, always burned, recovery notwithstanding). The sampled
// backends fold the path they draw; the testbed folds the collected
// trace. Entropies are written into the caller's buffer, indexed by
// global round (its length must be the session's total rounds);
// identifiedAt is the first 1-based round reaching the confidence
// threshold (0 = never).
func phasedSession(phases []members, acc *adversary.Accumulator, entropies []float64,
	sender trace.NodeID, conf float64, fold func(pi, r int) error) (identifiedAt int, err error) {
	acc.Reset()
	r := 0
	dead := false // sender observed as compromised: identified for good
	for pi := range phases {
		p := &phases[pi]
		if p.compromised(sender) {
			dead = true
		}
		if !dead {
			if err := acc.SetPhase(pi); err != nil {
				return 0, err
			}
		}
		for j := 0; j < p.epoch.Rounds; j++ {
			if dead {
				entropies[r] = 0
				if identifiedAt == 0 && conf > 0 {
					identifiedAt = r + 1
				}
				r++
				continue
			}
			if err := fold(pi, r); err != nil {
				return 0, err
			}
			h, top, mass, err := acc.SnapshotFast()
			if err != nil {
				return 0, err
			}
			entropies[r] = h
			if identifiedAt == 0 && conf > 0 && top == sender && mass >= conf {
				identifiedAt = r + 1
			}
			r++
		}
	}
	return identifiedAt, nil
}

// epochResults summarizes a degradation run's blended curve per phase: the
// mean accumulated entropy over each phase's rounds.
func epochResults(phases []phase, sessions int, hRounds []float64) []EpochResult {
	out := make([]EpochResult, len(phases))
	r := 0
	for i := range phases {
		rounds := phases[i].epoch.Rounds
		var sum float64
		for j := 0; j < rounds; j++ {
			sum += hRounds[r+j]
		}
		out[i] = EpochResult{
			Index:    i,
			N:        phases[i].n,
			C:        phases[i].c,
			Messages: sessions * rounds,
			Rounds:   rounds,
		}
		if rounds > 0 {
			out[i].H = sum / float64(rounds)
		}
		r += rounds
	}
	return out
}

// ParseTimeline parses the compact epoch syntax of the CLIs: epochs
// separated by ';', each a comma-separated list of key=value fields with
// keys msgs, rounds, join, leave, comp, recover. Example:
//
//	msgs=2000;msgs=2000,join=10,comp=2;msgs=2000,leave=5
//
// An empty string yields a nil timeline (the static model).
func ParseTimeline(s string) ([]Epoch, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out []Epoch
	for i, part := range strings.Split(s, ";") {
		var e Epoch
		for _, field := range strings.Split(part, ",") {
			field = strings.TrimSpace(field)
			if field == "" {
				continue
			}
			key, val, ok := strings.Cut(field, "=")
			if !ok {
				return nil, fmt.Errorf("%w: epoch %d: field %q is not key=value", ErrBadConfig, i, field)
			}
			v, err := strconv.Atoi(strings.TrimSpace(val))
			if err != nil {
				return nil, fmt.Errorf("%w: epoch %d: %s=%q is not an integer", ErrBadConfig, i, key, val)
			}
			switch strings.ToLower(strings.TrimSpace(key)) {
			case "msgs", "messages", "m":
				e.Messages = v
			case "rounds", "r":
				e.Rounds = v
			case "join", "j":
				e.Join = v
			case "leave":
				e.Leave = v
			case "comp", "compromise":
				e.Compromise = v
			case "recover":
				e.Recover = v
			default:
				return nil, fmt.Errorf("%w: epoch %d: unknown field %q (known: msgs, rounds, join, leave, comp, recover)",
					ErrBadConfig, i, key)
			}
		}
		out = append(out, e)
	}
	return out, nil
}

// phasedMachinery builds the per-phase inference stack of a session or
// timeline run — shared engine-cache engines, analysts over the dense
// compromised sets, and dense-space selectors. Run has refused the
// inference models the sampled analysis cannot express (refusal).
func phasedMachinery(cfg Config, ms []members) ([]*adversary.Analyst, []*pathsel.Selector, error) {
	analysts := make([]*adversary.Analyst, len(ms))
	sels := make([]*pathsel.Selector, len(ms))
	for i := range ms {
		p := &ms[i]
		e, err := cfg.engine(p.n, p.c)
		if err != nil {
			return nil, nil, err
		}
		if analysts[i], err = adversary.NewAnalyst(e, cfg.Strategy.Length, p.denseComp); err != nil {
			return nil, nil, err
		}
		if sels[i], err = pathsel.NewSelector(p.n, cfg.Strategy); err != nil {
			return nil, nil, err
		}
	}
	return analysts, sels, nil
}

// trafficPhases returns a copy of ms filtered to the phases that carry
// session rounds, leaving a shared view intact.
func trafficPhases(ms []members) []members {
	return slices.DeleteFunc(slices.Clone(ms), func(m members) bool { return m.epoch.Rounds == 0 })
}

// phasedArena is the per-worker scratch of a session run: per-phase
// samplers, a reusable accumulator, classification scratch, and the
// per-session entropy curve. The fold closure is built once per arena
// (capturing only the arena) so the session loop allocates nothing.
type phasedArena struct {
	phases    []members
	samplers  []*pathsel.Sampler
	acc       *adversary.Accumulator
	sc        adversary.Scratch
	entropies []float64
	rng       stats.Stream
	senders   []trace.NodeID // the session's sender, dense in each phase
	fold      func(pi, r int) error
}

// newPhasedArena builds a session arena over the phases that carry rounds,
// their analysts and selectors, in a union identity space of the given
// size, for sessions of k rounds.
func newPhasedArena(phases []members, analysts []*adversary.Analyst, sels []*pathsel.Selector,
	union, k int) (*phasedArena, error) {
	ar := &phasedArena{
		phases:    phases,
		samplers:  make([]*pathsel.Sampler, len(sels)),
		entropies: make([]float64, k),
		senders:   make([]trace.NodeID, len(phases)),
	}
	for i, sel := range sels {
		var err error
		if ar.samplers[i], err = sel.NewSampler(); err != nil {
			return nil, err
		}
	}
	live := make([][]trace.NodeID, len(phases))
	for i := range phases {
		live[i] = phases[i].live
	}
	var err error
	if ar.acc, err = adversary.NewTimelineAccumulator(union, analysts, live); err != nil {
		return nil, err
	}
	ar.fold = func(pi, _ int) error {
		d := ar.senders[pi]
		path, err := ar.samplers[pi].SelectPath(&ar.rng, d)
		if err != nil {
			return err
		}
		return ar.acc.ObservePath(d, path, &ar.sc)
	}
	return ar, nil
}

// session runs one session from sender, drawing its paths from rng, and
// leaves its entropy curve in ar.entropies (see phasedSession).
func (ar *phasedArena) session(rng stats.Stream, sender trace.NodeID, conf float64) (identifiedAt int, err error) {
	ar.rng = rng
	for i := range ar.phases {
		d, _ := ar.phases[i].dense(sender)
		ar.senders[i] = trace.NodeID(d)
	}
	return phasedSession(ar.phases, ar.acc, ar.entropies, sender, conf, ar.fold)
}

// runPhasedRounds is the session driver of every degradation run, exact
// and Monte-Carlo, static or across a timeline (a static config is one
// phase whose mapping is the identity): Workload.Messages persistent
// sessions span the phases that carry rounds, and every round draws a
// path in its phase's dense space and folds it through the accumulator by
// the path route. Sessions are runBatches' items, each drawing from its
// own counter-based stream, so the output is a pure function of (Seed,
// Messages) alone; workers only bounds how many sessions run concurrently
// (the exact backend passes 1, with identical results). Run has refused
// complicated strategies.
func runPhasedRounds(cfg Config, workers int) (Result, error) {
	phases := trafficPhases(cfg.members())
	analysts, sels, err := phasedMachinery(cfg, phases)
	if err != nil {
		return Result{}, err
	}
	var (
		union    = unionSize(cfg.N, cfg.Timeline)
		sessions = cfg.Workload.Messages
		k        = cfg.Workload.Rounds
		total    sessionTally
	)
	err = runBatches(&cfg, sessions, workers,
		func(done int) { cfg.emitProgress(done, sessions, nil) },
		func() (func(*sessionTally, int, int) error, error) {
			ar, err := newPhasedArena(phases, analysts, sels, union, k)
			if err != nil {
				return nil, err
			}
			return func(t *sessionTally, lo, hi int) error {
				for s := lo; s < hi; s++ {
					rng := stats.NewStream(cfg.Workload.Seed, int64(s))
					sender := cfg.sessionSender(&rng)
					identifiedAt, err := ar.session(rng, sender, cfg.Workload.Confidence)
					if err != nil {
						return err
					}
					t.add(ar.entropies, identifiedAt, phases[0].compromised(sender))
				}
				return nil
			}, nil
		},
		func(t *sessionTally) { total.merge(t) })
	if err != nil {
		return Result{}, err
	}
	return total.result(cfg), nil
}

// sessionSender draws a session's sender from the session's stream: the
// pinned sender, a uniform node of a static population, or a uniform
// member of a Rounds timeline's sender pool.
func (c *Config) sessionSender(rng *stats.Stream) trace.NodeID {
	switch {
	case c.Workload.FixedSender:
		return c.Workload.Sender
	case c.pool == nil:
		return trace.NodeID(rng.Intn(c.N))
	default:
		return c.pool[rng.Intn(len(c.pool))]
	}
}

// sessionTally accumulates the outcomes of a degradation run's sessions.
type sessionTally struct {
	sum         stats.Summary // final-round entropies
	entropySums []float64     // per round
	compSender  int
	deanon      int
	identified  int
	roundsSum   int // identification rounds, summed
}

// add records one session: its entropy curve, its identification round
// (0 = never), and whether its sender was compromised from the start.
func (t *sessionTally) add(entropies []float64, identifiedAt int, compSender bool) {
	if t.entropySums == nil {
		t.entropySums = make([]float64, len(entropies))
	}
	for r, h := range entropies {
		t.entropySums[r] += h
	}
	final := entropies[len(entropies)-1]
	t.sum.Add(final)
	if final < 1e-9 {
		t.deanon++
	}
	if compSender {
		t.compSender++
	}
	if identifiedAt > 0 {
		t.identified++
		t.roundsSum += identifiedAt
	}
}

// merge folds o's sessions into t; merging batches in a fixed order keeps
// the result independent of the worker count.
func (t *sessionTally) merge(o *sessionTally) {
	if t.entropySums == nil {
		t.entropySums = make([]float64, len(o.entropySums))
	}
	t.sum.Merge(o.sum)
	for r, s := range o.entropySums {
		t.entropySums[r] += s
	}
	t.compSender += o.compSender
	t.deanon += o.deanon
	t.identified += o.identified
	t.roundsSum += o.roundsSum
}

// result turns the tally into the run's Result: the blended curve and its
// final-round summary, identification statistics when tracked, and a
// timeline's per-epoch curve.
func (t *sessionTally) result(cfg Config) Result {
	sessions := t.sum.N()
	hRounds := make([]float64, cfg.Workload.Rounds)
	for r, s := range t.entropySums {
		hRounds[r] = s / float64(sessions)
	}
	res := Result{
		H:                      t.sum.Mean(),
		StdErr:                 t.sum.StdErr(),
		Estimated:              true,
		Trials:                 sessions,
		CompromisedSenderShare: float64(t.compSender) / float64(sessions),
		Deanonymized:           t.deanon,
		HRounds:                hRounds,
	}
	if len(cfg.phases) > 0 {
		res.Epochs = epochResults(cfg.phases, sessions, hRounds)
	}
	if cfg.Workload.Confidence > 0 {
		res.IdentifiedShare = float64(t.identified) / float64(sessions)
		if t.identified > 0 {
			res.MeanRoundsToIdentify = float64(t.roundsSum) / float64(t.identified)
		}
	}
	return res
}
