package main

// The input generator. Every workload is an unbounded stream of operations
// whose i-th element is a pure function of (seed, i). The stream is cut
// into blocks of a fixed slot pattern: each block holds every operation
// class in its fixed proportion, in a seeded order. The cost factors of a
// class (population, traffic, adversary share, path lengths, rounds) come
// from a Halton sequence (see point), the same for every seed, so a list of
// whole blocks covers their ranges evenly and lists of different seeds do
// the same work. The seed sets the order and everything else: strategies,
// receiver modes, timelines, crashes, the hot set, and sampling seeds.

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"anonmix/internal/anond"
	"anonmix/internal/pathsel"
	"anonmix/internal/stats"
)

// The workloads.
const (
	exactDesign   = "exact-design"
	mcSampling    = "mc-sampling"
	testbedFaults = "testbed-faults"
	serveMixed    = "serve-mixed"
)

var workloadNames = []string{exactDesign, mcSampling, testbedFaults, serveMixed}

// nominalRate is the operations per second each workload completes on the
// two-vCPU machine the benchmark was sized on. It sizes the op lists, so
// a list's length depends only on the workload and -seconds.
var nominalRate = map[string]float64{exactDesign: 2800, mcSampling: 35, testbedFaults: 70, serveMixed: 5500}

// listLen is the length of an op list that takes about d at the
// workload's nominal rate: a whole number of blocks, at least one, so that
// every class has its share and its first Halton points; or, where d holds
// less than a quarter of a block (a smoke test's runs), that many of the
// first block's ops.
func (g *generator) listLen(d time.Duration) int {
	n := nominalRate[g.workload] * d.Seconds()
	p := float64(len(g.pattern))
	if n < p/4 {
		return max(1, int(math.Round(n)))
	}
	return len(g.pattern) * max(1, int(math.Round(n/p)))
}

// Op is one operation of a workload, in the daemon's wire form so the same
// value runs in-process or over HTTP. Exactly one of Scenario and Optimize
// is set.
type Op struct {
	Index    int                    `json:"index"`
	Class    string                 `json:"class"`
	Scenario *anond.ScenarioRequest `json:"scenario,omitempty"`
	Optimize *anond.OptimizeRequest `json:"optimize,omitempty"`
	// Verify selects an exact op for the fresh-engine check.
	Verify bool `json:"verify,omitempty"`
}

// Disjoint stats.Stream stream ids per purpose: the purpose sits above bit
// 40, the block or op index below it.
const (
	streamHot int64 = iota + 1
	streamPerm
	streamOp
	streamWarm
)

func streamID(purpose int64, i int) int64 { return purpose<<40 | int64(i) }

// slotClass is one class of a block pattern.
type slotClass struct {
	name  string
	count int
}

// generator produces one workload's operation stream.
type generator struct {
	workload string
	seed     int64
	pattern  []string // class of every slot of a block
	pinned   int      // the last pinned slots keep their position in every block
	rank     []int    // rank of each slot among the slots of its class
	count    map[string]int
	hot      []anond.ScenarioRequest
	hotCDF   []float64
	hotByN   []int // hot-set indices by population

	mu    sync.Mutex
	next  int
	block int
	ops   []Op
}

func newGenerator(workload string, seed int64) (*generator, error) {
	g := &generator{workload: workload, seed: seed, block: -1}
	var classes []slotClass
	switch workload {
	case exactDesign:
		// Per block: 1,992 scenario queries (1,570 from the hot set, 393
		// fresh static ones, 29 fresh timelines), six Maximize solves and
		// one MaximizeTimeline solve. Timelines cost O(N·epochs) and stay at
		// N ≤ 5·10⁴ (maxTimelineN) to bound their memory.
		classes = []slotClass{{"maximize", 6}, {"maximize-timeline", 1},
			{"fresh-timeline", 29}, {"fresh", 393}, {"hot", 1570}}
	case mcSampling:
		classes = []slotClass{{"mc-sparse", 8}, {"mc-dense", 4}, {"mc-rounds", 6}, {"mc-churn", 2}}
	case testbedFaults:
		// The million-node churn run is pinned to a block's last slot, so
		// every list of whole blocks has one per block, and a list shorter
		// than a block (a smoke test's) has none.
		classes = []slotClass{{"tb-plain", 75}, {"tb-onion", 24}, {"tb-mix", 51}, {"tb-faults", 149}, {"tb-churn", 1}}
		g.pinned = 1
	case serveMixed:
		classes = []slotClass{{"hot", 90}, {"cold", 5}, {"mc", 4}, {"degradation", 1}}
	default:
		return nil, fmt.Errorf("unknown workload %q (known: %s)", workload, strings.Join(workloadNames, ", "))
	}
	g.count = map[string]int{}
	for _, c := range classes {
		for range c.count {
			g.pattern = append(g.pattern, c.name)
			g.rank = append(g.rank, g.count[c.name])
			g.count[c.name]++
		}
	}
	switch workload {
	case exactDesign:
		g.hot = g.hotSet(256, 20, 2e5)
	case serveMixed:
		g.hot = g.hotSet(64, 20, 1e5)
	}
	if g.hot != nil {
		// Zipf popularity: hot-set entry r is the r-th most popular.
		g.hotCDF = make([]float64, len(g.hot))
		var sum float64
		for r := range g.hot {
			sum += 1 / float64(r+1)
			g.hotCDF[r] = sum
		}
		for r := range g.hotCDF {
			g.hotCDF[r] /= sum
		}
	}
	return g, nil
}

// take returns the next n operations of the stream.
func (g *generator) take(n int) []Op {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]Op, n)
	for k := range out {
		out[k] = g.opLocked(g.next)
		g.next++
	}
	return out
}

// opLocked returns operation i, building its block on first use. Callers
// consume the stream in order, so one cached block suffices.
func (g *generator) opLocked(i int) Op {
	p := len(g.pattern)
	if b := i / p; b != g.block {
		g.block, g.ops = b, g.buildBlock(b)
	}
	return g.ops[i%p]
}

// The dimensions of an operation's strata, by the cost factor each sets.
const (
	dimSize      = iota // population, or the class's main size
	dimTraffic          // messages, sessions or epochs
	dimAdversary        // compromised share
	dimLength           // longest path
	dimKind             // strategy family
	dimExtra            // class-specific: rounds, or whether nodes crash
	dimCell             // the faulted runs' (loss, policy) cell
	strataDims
)

// haltonBases are the Halton sequence's bases, one prime per dimension,
// the smallest for the costliest factors.
var haltonBases = [strataDims]int{2, 3, 5, 7, 11, 13, 17}

// stratum holds an operation's point in [0,1) for each dimension.
type stratum [strataDims]float64

// point returns the strata of the k-th operation of a class: the k-th
// point of the Halton sequence. The first n points of a class cover each
// of its ranges evenly, and alike under every seed.
func point(k int) stratum {
	var st stratum
	for d := range st {
		st[d] = radicalInverse(k, haltonBases[d])
	}
	return st
}

// radicalInverse mirrors the base-b digits of i about the radix point.
func radicalInverse(i, b int) float64 {
	var x float64
	for f := 1 / float64(b); i > 0; i, f = i/b, f/float64(b) {
		x += float64(i%b) * f
	}
	return x
}

// buildBlock generates the operations of block b.
func (g *generator) buildBlock(b int) []Op {
	p := len(g.pattern)
	slots := identity(p)
	rng := stats.NewStream(g.seed, streamID(streamPerm, b))
	for i := p - 1 - g.pinned; i > 0; i-- {
		j := rng.Intn(i + 1)
		slots[i], slots[j] = slots[j], slots[i]
	}
	ops := make([]Op, p)
	for j, slot := range slots {
		i := b*p + j
		class := g.pattern[slot]
		k := b*g.count[class] + g.rank[slot]
		opRng := stats.NewStream(g.seed, streamID(streamOp, i))
		ops[j] = g.makeOp(class, point(k), &opRng)
		ops[j].Index = i
	}
	return ops
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// warmup returns the operations the set-up phase runs before timing
// starts: the hot set once, and the cheapest instance (the lowest point of
// every dimension) of every class but the pinned one, once per population
// cell of the Monte-Carlo classes, so set-up does the same work under
// every seed and leaves the engines a workload reuses warm. The timeline
// solve is left out: its cost follows its seeded epoch changes (15–80 ms
// over seeds 1–10, the rest of exact-design's warm-up about 20 ms).
func (g *generator) warmup() []Op {
	var out []Op
	for k := range g.hot {
		out = append(out, Op{Index: -1, Class: "hot", Scenario: &g.hot[k]})
	}
	rng := stats.NewStream(g.seed, streamID(streamWarm, 0))
	for slot, class := range g.pattern {
		if slot >= len(g.pattern)-g.pinned || class == "hot" || class == "maximize-timeline" || g.rank[slot] != 0 {
			continue
		}
		cells := 1
		if g.workload == mcSampling {
			cells = popCells
		}
		for cell := range cells {
			op := g.makeOp(class, stratum{dimSize: float64(cell) / float64(cells)}, &rng)
			op.Index, op.Verify = -1, false
			if cells > 1 {
				// Building the cell's engine is the point; a few sessions do.
				op.Scenario.Messages = min(op.Scenario.Messages, 200)
			}
			out = append(out, op)
		}
	}
	return out
}

// logUniform maps u ∈ [0,1) onto [lo, hi] log-uniformly.
func logUniform(u, lo, hi float64) float64 {
	return math.Exp(math.Log(lo) + u*(math.Log(hi)-math.Log(lo)))
}

// logInt is logUniform rounded to an integer.
func logInt(u, lo, hi float64) int { return int(math.Round(logUniform(u, lo, hi))) }

// spread maps u ∈ [0,1) onto the integers [lo, hi] uniformly.
func spread(u float64, lo, hi int) int { return lo + min(int(u*float64(hi-lo+1)), hi-lo) }

// between draws an integer uniformly from [lo, hi].
func between(rng *stats.Stream, lo, hi int) int { return lo + rng.Intn(hi-lo+1) }

// drawC maps u onto a log-uniform compromised fraction of n, after the
// constant-fraction adversary of Ando–Lysyanskaya–Upfal.
func drawC(u float64, n int, fracHi float64) int {
	f := logUniform(u, 0.001, fracHi)
	return min(max(int(math.Round(f*float64(n))), 1), n-2)
}

// presets are the registry's simple-path presets with their longest path.
var presets = []struct {
	spec string
	hi   int
}{{"anonymizer", 1}, {"lpwa", 1}, {"freedom", 3}, {"pipenet", 4}, {"onionrouting1", 5}}

// drawStrategy picks a simple-path registry spec with paths of at least
// minLen and at most maxLen hops, and returns it with its longest path.
// The strata pick the family and the longest path; where the kind stratum
// falls within its family's band picks a uniform strategy's shortest path
// or the preset.
func drawStrategy(st stratum, minLen, maxLen int) (string, int) {
	l := spread(st[dimLength], max(minLen, 1), maxLen)
	switch k := st[dimKind]; {
	case k < 0.3:
		return fmt.Sprintf("fixed:%d", l), l
	case k < 0.7:
		b := max(l, minLen+1)
		return fmt.Sprintf("uniform:%d,%d", spread((k-0.3)/0.4, minLen, min(3, b-1)), b), b
	case k < 0.8:
		return fmt.Sprintf("remailer:%d", l), l
	default:
		var fit []int
		for k, p := range presets {
			if p.hi <= maxLen {
				fit = append(fit, k)
			}
		}
		p := presets[fit[spread((k-0.8)/0.2, 0, len(fit)-1)]]
		return p.spec, p.hi
	}
}

// exactConfig makes a static exact-backend scenario at population n; the
// cell stratum picks the receiver mode.
func exactConfig(st stratum, n int) anond.ScenarioRequest {
	spec, _ := drawStrategy(st, 0, min(12, n-1))
	return anond.ScenarioRequest{
		N: n, Strategy: spec, Compromised: drawC(st[dimAdversary], n, 0.5),
		UncompromisedReceiver: st[dimCell] < 0.5,
	}
}

// maxTimelineN is the largest population of an exact-design timeline.
const maxTimelineN = 50_000

// timelineConfig draws an exact single-shot scenario with a population
// timeline of the given number of epochs. Its cost grows with n·epochs.
func timelineConfig(st stratum, rng *stats.Stream, n, epochs int) anond.ScenarioRequest {
	req := exactConfig(st, n)
	strategy, err := pathsel.Lookup(req.Strategy)
	if err != nil {
		panic("bench: generated spec does not parse: " + err.Error())
	}
	_, hi := strategy.Length.Support()
	req.Timeline = epochTimeline(rng, n, req.Compromised, hi, epochs, "msgs", 100, 1000)
	return req
}

// epochTimeline draws an epoch timeline in the CLI syntax: every epoch
// carries a traffic budget of the given key, and every epoch after the
// first applies one population or adversary delta. The deltas keep every
// epoch valid: at least hi+1 members, two honest members, and one
// compromised node.
func epochTimeline(rng *stats.Stream, n, c, hi, epochs int, key string, lo, up int) string {
	parts := make([]string, epochs)
	for e := range parts {
		field := fmt.Sprintf("%s=%d", key, between(rng, lo, up))
		if e > 0 {
			honest := n - c
			switch k := between(rng, 1, 3); rng.Intn(4) {
			case 1:
				if honest-k >= 2 && n-k >= hi+1 {
					field += fmt.Sprintf(",leave=%d", k)
					n -= k
					break
				}
				fallthrough
			case 2:
				if honest-k >= 2 {
					field += fmt.Sprintf(",comp=%d", k)
					c += k
					break
				}
				fallthrough
			case 3:
				if c > 1 {
					field += ",recover=1"
					c--
					break
				}
				fallthrough
			default:
				field += fmt.Sprintf(",join=%d", k)
				n += k
			}
		}
		parts[e] = field
	}
	return strings.Join(parts, ";")
}

// hotSet draws a workload's popular static configurations. Popularity
// rank r takes the r-th Halton point, jittered within a cell of the hot
// set's size by the seed, as the strata of its population (log-uniform
// over [lo, hi]), adversary share, strategy family and longest path. The
// Zipf head, which sets the median latency, thus costs alike under every
// seed. hotSet also records the hot set's order by population.
func (g *generator) hotSet(size int, lo, hi float64) []anond.ScenarioRequest {
	rng := stats.NewStream(g.seed, streamID(streamHot, 0))
	out := make([]anond.ScenarioRequest, size)
	for r := range out {
		var st stratum
		for d := range st {
			st[d] = math.Mod(radicalInverse(r, haltonBases[d])+rng.Float64()/float64(size), 1)
		}
		out[r] = exactConfig(st, logInt(st[dimSize], lo, hi))
	}
	g.hotByN = identity(size)
	sort.SliceStable(g.hotByN, func(i, j int) bool { return out[g.hotByN[i]].N < out[g.hotByN[j]].N })
	return out
}

// pickHot draws a hot-set entry by Zipf popularity.
func (g *generator) pickHot(rng *stats.Stream) *anond.ScenarioRequest {
	return &g.hot[sort.SearchFloat64s(g.hotCDF, rng.Float64())]
}

// opSeed draws a distinct positive seed for a sampled operation, so equal
// configurations do not coalesce in the daemon.
func opSeed(rng *stats.Stream) int64 { return int64(rng.Uint64()>>2) + 1 }

// popCells is the number of populations each Monte-Carlo class samples.
const popCells = 16

// snap confines an operation's population and adversary strata to one of
// popCells cells: the Monte-Carlo workload estimates a fixed set of
// networks over and over, so their engines stay cache-hot. Cell k holds
// the middle of the k-th population stratum and, as its adversary
// stratum, the k-th base-3 Halton point moved to the middle of its cell.
// snap returns the snapped strata and the cell.
func snap(st stratum) (stratum, int) {
	cell := min(int(st[dimSize]*popCells), popCells-1)
	st[dimSize] = (float64(cell) + 0.5) / popCells
	st[dimAdversary] = math.Mod(radicalInverse(cell, 3)+0.5/popCells, 1)
	return st, cell
}

// makeOp builds an operation of a class from its strata.
func (g *generator) makeOp(class string, st stratum, rng *stats.Stream) Op {
	op := Op{Class: class}
	var cell int
	if g.workload == mcSampling {
		st, cell = snap(st)
	}
	switch class {
	case "hot":
		op.Scenario = g.pickHot(rng)
		op.Verify = g.workload == exactDesign && rng.Intn(64) == 0
	case "fresh":
		req := exactConfig(st, logInt(st[dimSize], 20, 2e5))
		op.Scenario = &req
		op.Verify = rng.Intn(64) == 0
	case "fresh-timeline":
		req := timelineConfig(st, rng, logInt(st[dimSize], 20, maxTimelineN), spread(st[dimTraffic], 8, 32))
		op.Scenario = &req
		op.Verify = rng.Intn(64) == 0
	case "cold":
		req := exactConfig(st, logInt(st[dimSize], 1e3, 1e5))
		op.Scenario = &req
	case "maximize", "maximize-timeline":
		// A popular configuration from the slot's population stratum.
		base := &g.hot[g.hotByN[int(st[dimSize]*float64(len(g.hot)))]]
		req := anond.OptimizeRequest{N: base.N, C: base.Compromised, Lo: 1}
		if class == "maximize" {
			req.Hi = min(spread(st[dimLength], 6, 12), base.N-1)
		} else {
			req.Hi = min(spread(st[dimLength], 5, 8), base.N-1)
			req.Epochs = epochTimeline(rng, base.N, base.Compromised, req.Hi, spread(st[dimTraffic], 3, 6), "msgs", 100, 1000)
		}
		if st[dimKind] < 0.5 && req.Hi >= 3 {
			mean := 1.5 + st[dimExtra]*float64(req.Hi-2)
			req.Mean = &mean
		}
		op.Optimize = &req
	case "mc", "mc-sparse":
		n, maxLen, msgs := logInt(st[dimSize], 20, 2000), 12, 2000
		if class == "mc-sparse" {
			n, maxLen, msgs = logInt(st[dimSize], 500, 5000), 16, logInt(st[dimTraffic], 2e4, 2e5)
		}
		spec, _ := drawStrategy(st, 0, min(maxLen, n-1))
		op.Scenario = &anond.ScenarioRequest{N: n, Backend: "mc", Strategy: spec,
			Compromised: drawC(st[dimAdversary], n, 0.5), Messages: msgs, Workers: 2, Seed: opSeed(rng),
			UncompromisedReceiver: cell%2 == 1 || class == "mc" && st[dimCell] < 0.5}
	case "mc-dense":
		// Paths of at least half the population: the selector's dense
		// (partial Fisher–Yates) regime.
		n := spread(st[dimSize], 20, 60)
		l := spread(st[dimLength], n/2, n-1)
		spec := fmt.Sprintf("fixed:%d", l)
		if st[dimKind] < 0.5 {
			spec = fmt.Sprintf("uniform:%d,%d", spread(st[dimExtra], 1, l-1), l)
		}
		op.Scenario = &anond.ScenarioRequest{N: n, Backend: "mc", Strategy: spec,
			Compromised: drawC(st[dimAdversary], n, 0.5), Messages: logInt(st[dimTraffic], 2e4, 2e5),
			Workers: 2, Seed: opSeed(rng)}
	case "mc-rounds", "degradation":
		// Multi-round cost grows with N·sessions·rounds.
		req := anond.ScenarioRequest{Backend: "mc", Workers: 2, Seed: opSeed(rng), N: logInt(st[dimSize], 20, 400),
			Rounds: spread(st[dimExtra], 8, 32), Messages: logInt(st[dimTraffic], 500, 2000)}
		// An equal share of each cell of the (fixed sender, identification
		// tracking, and for /v1/degradation exact backend) grid.
		grid := spread(st[dimCell], 0, 7)
		if class == "degradation" {
			req.N, req.Rounds, req.Messages = logInt(st[dimSize], 20, 100), spread(st[dimExtra], 2, 8), spread(st[dimTraffic], 50, 200)
			if grid&4 == 4 {
				req.Backend, req.Workers = "", 0
			}
		}
		req.Compromised = drawC(st[dimAdversary], req.N, 0.5)
		req.Strategy, _ = drawStrategy(st, 0, min(10, req.N-1))
		if grid&1 == 1 {
			req.FixedSender, req.Sender = true, req.N-1
		}
		if grid&2 == 2 {
			req.Confidence = 0.8 + 0.19*rng.Float64()
		}
		op.Scenario = &req
	case "mc-churn":
		// Sessions persisting across three epochs of churn and creeping
		// compromise.
		n := logInt(st[dimSize], 50, 400)
		spec, _ := drawStrategy(st, 0, 8)
		op.Scenario = &anond.ScenarioRequest{N: n, Backend: "mc", Strategy: spec,
			Compromised: drawC(st[dimAdversary], n, 0.3), Messages: logInt(st[dimTraffic], 200, 1000),
			Workers: 2, Seed: opSeed(rng),
			Timeline: fmt.Sprintf("rounds=%d;rounds=%[1]d,join=%d,comp=%d;rounds=%[1]d,leave=%d",
				spread(st[dimExtra], 2, 6), between(rng, 1, 10), between(rng, 1, 3), between(rng, 1, 10))}
	case "tb-plain", "tb-mix", "tb-onion":
		hiN, msgs, proto := 1e6, 1000, strings.TrimPrefix(class, "tb-")
		if class == "tb-onion" {
			// Onion runs build a key per node, so populations stay small.
			hiN, msgs = 1e4, 300
		}
		n := logInt(st[dimSize], 100, hiN)
		spec, _ := drawStrategy(st, 0, 10)
		op.Scenario = &anond.ScenarioRequest{N: n, Backend: "testbed", Protocol: proto, Strategy: spec,
			Compromised: drawC(st[dimAdversary], n, 0.2), Messages: msgs, Seed: opSeed(rng)}
	case "tb-faults":
		op.Scenario = faultedConfig(rng, st)
	case "tb-churn":
		// The million-node lossy churn timeline: two epochs, retransmission,
		// and a crash window.
		op.Scenario = &anond.ScenarioRequest{N: 1_000_000, Backend: "testbed", Strategy: "uniform:1,7",
			Compromised: 1000, Seed: opSeed(rng), Policy: "retransmit",
			Timeline: fmt.Sprintf("msgs=%d;msgs=%d,join=%d,comp=%d", spread(st[dimTraffic], 400, 600),
				spread(st[dimExtra], 400, 600), spread(st[dimSize], 500, 1500), spread(st[dimAdversary], 50, 150)),
			Faults: fmt.Sprintf("loss=0.05,crash=%d@%d-%d", between(rng, 2000, 999_999), between(rng, 10, 100), between(rng, 300, 600))}
	default:
		panic("bench: no generator for class " + class)
	}
	return op
}

// lossRates and policies span the faulted grid.
var (
	lossRates = []float64{0.01, 0.05, 0.2}
	policies  = []string{"none", "retransmit", "reroute"}
)

// faultedConfig draws a lossy testbed run. Half the runs also crash one to three nodes for a window inside
// the run's virtual span.
func faultedConfig(rng *stats.Stream, st stratum) *anond.ScenarioRequest {
	cell := spread(st[dimCell], 0, len(lossRates)*len(policies)-1)
	n := logInt(st[dimSize], 200, 2e4)
	// No zero-hop paths: under loss the exact backend conditions the path
	// prior on delivery and the sampled backends do not, which for direct
	// sends moves H by far more than sampling error (see bench/README.md).
	spec, hi := drawStrategy(st, 1, 10)
	msgs := logInt(st[dimTraffic], 500, 2000)
	plan := fmt.Sprintf("loss=%g", lossRates[cell/len(policies)])
	if st[dimExtra] < 0.5 {
		// The lossless span of the run; every policy's span is at least this.
		span := msgs + hi + 3 + 4
		nodes := map[int]bool{}
		for range between(rng, 1, 3) {
			node := between(rng, 0, n-1)
			if nodes[node] {
				continue
			}
			nodes[node] = true
			at := between(rng, 0, span/2)
			plan += fmt.Sprintf(",crash=%d@%d-%d", node, at, between(rng, at+1, span))
		}
	}
	return &anond.ScenarioRequest{N: n, Backend: "testbed", Strategy: spec, Compromised: drawC(st[dimAdversary], n, 0.2),
		Messages: msgs, Seed: opSeed(rng), Faults: plan, Policy: policies[cell%len(policies)]}
}

// probeConfigs returns the distinct static parts (population, adversary,
// strategy, receiver mode) of the first n scenario operations of the
// stream, the pinned one aside, for the per-layer probes.
func (g *generator) probeConfigs(n int) []anond.ScenarioRequest {
	var out []anond.ScenarioRequest
	for _, op := range g.buildBlock(0)[:len(g.pattern)-g.pinned] {
		if op.Scenario == nil || len(out) == n {
			continue
		}
		base := anond.ScenarioRequest{N: op.Scenario.N, Strategy: op.Scenario.Strategy,
			Compromised: op.Scenario.Compromised, UncompromisedReceiver: op.Scenario.UncompromisedReceiver}
		if !slices.Contains(out, base) {
			out = append(out, base)
		}
	}
	return out
}
