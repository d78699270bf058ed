// Package simnet is an in-process rerouting network testbed built on a
// sharded discrete-event kernel: the transport graph is the clique of
// §3.1, a logical clock timestamps every forwarding step, and compromised
// nodes tap the traffic and report (time, predecessor, successor) tuples —
// exactly the threat model of §4 — into a record per message that the
// adversary reads (Trace).
//
// Nodes are *virtual*: the kernel spawns one goroutine per shard (default
// pool.Workers()), never one per node, and keeps no per-node state unless
// a node is actively holding traffic. Events — "packet arrives at node v
// at logical time t" — go to the shard owning the destination node. An
// event carries only a pointer to its packet: Inject copies the caller's
// packet once into a per-network arena (and its plain route into a
// per-network slab), and every hop after that moves the pointer. Inject
// puts a message's first event in the owner's inbox under the shard lock.
// A shard processes its inbox in batches, in arrival order: the events its
// hops produce for its own nodes form its next batch, with no lock, and
// those for other shards go to each one's inbox in one locked append per
// batch. Arrival order is safe because every hop decision (churn, crash,
// loss, jitter, taps) is a pure function of the event's logical time, and
// a message's reports land in its own record in hop order, which is time
// order, so no event has to wait for an older one. A per-shard heap keyed
// by (time, message ID) orders events only for threshold mixes, where a
// batch's composition is the order packets reach the mix; a mix shard
// passes every event through the inboxes, and holds back the events at or
// past the injection clock until injection ends, so its batches do not
// depend on the pace of injection. Memory and goroutine count therefore
// scale with the number of in-flight messages, not with N, which makes
// million-node systems with sparse traffic cheap.
//
// Forwarding behavior is pluggable (plain source routes, onion layers,
// Crowds coin-flip), so the same testbed executes all protocol substrates
// surveyed in §2 of the paper; an optional threshold-mix batching stage
// (Config.BatchThreshold) holds packets at every node until a batch fills,
// reproducing mix-network timing. Integration tests verify that the
// empirical anonymity degree measured on this testbed matches the exact
// engine.
package simnet

import (
	"errors"
	"fmt"
	"iter"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"anonmix/internal/faults"
	"anonmix/internal/pool"
	"anonmix/internal/stats"
	"anonmix/internal/trace"
)

// Errors returned by the network.
var (
	// ErrBadConfig reports an invalid network configuration.
	ErrBadConfig = errors.New("simnet: invalid configuration")
	// ErrClosed reports use of a network after Close.
	ErrClosed = errors.New("simnet: network is closed")
	// ErrBadHop reports a forwarder that returned an out-of-range next hop.
	ErrBadHop = errors.New("simnet: forwarder returned invalid next hop")
	// ErrTimeout reports an expired wait.
	ErrTimeout = errors.New("simnet: wait timed out")
	// ErrAbsent reports traffic touching a node outside the live membership
	// at that virtual time (left, or not yet joined).
	ErrAbsent = errors.New("simnet: node is not a live member")
)

// Packet is a message in flight. Forwarders consume routing state (Route
// or Onion) as the packet moves. Inject copies the Packet value and its
// Route into the kernel, but the kernel keeps its Onion and Payload slices
// until the message retires, and forwarders may rewrite them in place, so
// the caller must not touch them while the message is in flight.
type Packet struct {
	// Msg correlates the packet across hops.
	Msg trace.MessageID
	// From is the immediate predecessor (link-layer visible to the
	// receiving node — this is what a compromised node reports).
	From trace.NodeID
	// Route is the remaining plain source route (PlainForwarder).
	Route []trace.NodeID
	// Onion is the remaining layered header (onion.Forwarder).
	Onion []byte
	// Payload is the application data.
	Payload []byte

	// hops counts forwarding steps taken, indexing the deterministic
	// per-hop delay stream.
	hops uint64
	// tries counts delivery attempts into a crashed node on the current
	// link (PolicyRetransmit); it resets whenever the packet is processed
	// by a live node, so the retry budget is per link.
	tries int
	// rec is the message's record, which the holder of the packet writes.
	rec *msgRecord
}

// Hops returns the number of forwarding steps the packet has taken: 0 at
// the first node after the sender, k at the (k+1)-th. With Msg it names
// the hop, so a forwarder that draws at random can key its draws on
// (message, hop) and stay reproducible under any shard scheduling, as the
// kernel's per-hop jitter and loss draws are.
func (p *Packet) Hops() uint64 { return p.hops }

// Forwarder decides, at each node, where a packet goes next. Implementations
// mutate the packet's routing state (slicing the route, peeling a layer)
// and return the next hop, or trace.Receiver to deliver. The kernel may
// invoke Next from several shard goroutines concurrently, so stateful
// forwarders must be safe for concurrent use (the in-tree implementations
// are).
type Forwarder interface {
	Next(self trace.NodeID, pkt *Packet) (trace.NodeID, error)
}

// PlainForwarder forwards along an explicit source route.
type PlainForwarder struct{}

// Next pops the next hop off the packet's plain route.
func (PlainForwarder) Next(_ trace.NodeID, pkt *Packet) (trace.NodeID, error) {
	if len(pkt.Route) == 0 {
		return trace.Receiver, nil
	}
	next := pkt.Route[0]
	pkt.Route = pkt.Route[1:]
	return next, nil
}

// Delivery records a message arriving at the receiver.
type Delivery struct {
	// Msg is the delivered message.
	Msg trace.MessageID
	// Pred is the last intermediate node (or the sender for direct sends)
	// — what the compromised receiver reports.
	Pred trace.NodeID
	// Payload is the application data as received.
	Payload []byte
	// Time is the logical delivery timestamp.
	Time uint64
}

// ChurnKind names a membership or compromise transition.
type ChurnKind uint8

// The churn transitions.
const (
	// ChurnJoin makes a previously absent node a live member.
	ChurnJoin ChurnKind = iota + 1
	// ChurnLeave removes a live node from the membership.
	ChurnLeave
	// ChurnCompromise converts a live honest node into an adversary node.
	ChurnCompromise
	// ChurnRecover returns a compromised node to honest operation.
	ChurnRecover
)

// String names the churn kind.
func (k ChurnKind) String() string {
	switch k {
	case ChurnJoin:
		return "join"
	case ChurnLeave:
		return "leave"
	case ChurnCompromise:
		return "compromise"
	case ChurnRecover:
		return "recover"
	default:
		return fmt.Sprintf("ChurnKind(%d)", uint8(k))
	}
}

// ChurnEvent is one scheduled transition: at logical time Time, Node
// changes state per Kind. The schedule is fixed before the network starts
// and governs every injection, arrival, and tap decision at logical time
// ≥ Time, so lookups during the run are read-only and race-free no matter
// how shards interleave.
type ChurnEvent struct {
	// Time is the logical timestamp the transition takes effect.
	Time uint64
	// Kind is the transition.
	Kind ChurnKind
	// Node is the transitioning node.
	Node trace.NodeID
}

// Config parameterizes a network.
type Config struct {
	// N is the number of system nodes.
	N int
	// Compromised lists the adversary's nodes; the receiver is always
	// tapped in addition (the paper's default threat model).
	Compromised []trace.NodeID
	// Down lists nodes absent at time zero (future joiners of the Churn
	// schedule). Traffic touching an absent node is dropped with ErrAbsent.
	Down []trace.NodeID
	// Churn schedules membership and compromise transitions at virtual
	// timestamps (piecewise-constant dynamic populations). Events are
	// validated as a per-node state machine: join requires absent, leave
	// and compromise require live, recover requires compromised.
	Churn []ChurnEvent
	// Forwarder is the per-node forwarding behavior (default plain
	// source routing).
	Forwarder Forwarder
	// MaxHopDelay, when positive, adds a random logical delay of up to
	// this many nanoseconds-as-ticks at every hop, exercising asynchrony.
	// Delays are a pure function of (Seed, message, hop), so runs are
	// reproducible, and timestamps stay causally ordered along each path
	// regardless.
	MaxHopDelay time.Duration
	// Seed drives the per-hop delay stream and the per-shard batch
	// shuffles. Per-hop delays (and hence every plain/onion run) are
	// reproducible for a fixed seed under any shard count; threshold-mix
	// *batch composition* additionally depends on event arrival order,
	// which is scheduling-dependent when Shards > 1 — pin Shards to 1, and
	// inject from one goroutine, for bit-reproducible mix experiments.
	Seed int64
	// Shards is the number of event-kernel shards (worker goroutines).
	// Defaults to pool.Workers().
	Shards int
	// BatchThreshold, when ≥ 2, makes every node a threshold mix: arriving
	// packets are held until BatchThreshold of them are queued at that
	// node, then flushed together in shuffled order with identical release
	// times. Partial batches keep accumulating while the injector is
	// active and are released on kernel quiescence only after WaitSettled
	// or Close declares injection over, so the wait terminates without
	// the mixes degenerating mid-run. Batch composition follows
	// arrival order, so multi-shard mix runs vary with scheduling (see
	// Seed); use Shards = 1 to reproduce exact tuple streams.
	BatchThreshold int
	// LinkLoss is the per-link, per-attempt transmission loss probability
	// in [0, 1]. Every loss is a pure function of (Seed, message, hop,
	// attempt) — see faults.Lost — so lossy runs are reproducible under
	// any shard count, like the per-hop jitter stream.
	LinkLoss float64
	// Crashes schedules fault-injection outages: a crashed node stays a
	// member (injectors may still route through it) but fails to process
	// traffic until it recovers, which is what exercises the reliability
	// policy. Windows per node must not overlap (faults.Plan semantics).
	Crashes []faults.Crash
	// Policy is the delivery-reliability reaction to a lost transmission
	// or a crashed next hop: drop (PolicyNone, the default), per-link
	// retransmission with capped exponential backoff (PolicyRetransmit),
	// or hand the message back to the driver for an end-to-end retry over
	// a fresh path (PolicyReroute; see TakeFailed).
	Policy faults.Policy
	// MaxAttempts bounds transmissions per link under PolicyRetransmit
	// (and is echoed by drivers as the reroute injection budget); 0 means
	// faults.DefaultMaxAttempts. The bound is what makes Settle terminate
	// under 100% loss.
	MaxAttempts int
	// RetryBackoff is the base retransmission timeout in
	// nanoseconds-as-ticks; retry k waits RetryBackoff << min(k,
	// faults.BackoffCap). 0 means faults.DefaultRetryBackoff.
	RetryBackoff time.Duration
}

// Drop causes recorded in DropStats.
const (
	// DropBadHop marks a forwarder returning an out-of-range next hop.
	DropBadHop = "bad-hop"
	// DropForwarder marks a forwarder error (e.g. an onion peel failure).
	DropForwarder = "forwarder"
	// DropAbsent marks traffic routed through a non-member node.
	DropAbsent = "absent"
	// DropCrash marks a packet retired at a crashed node after the policy
	// gave up (or immediately, under PolicyNone).
	DropCrash = "crash"
	// DropLoss marks a packet lost on a link after the policy gave up (or
	// on the first loss, under PolicyNone).
	DropLoss = "loss"
)

// dropSampleCap bounds the ring of sampled drop errors retained for
// diagnostics. Counting is exact; only the examples are sampled.
const dropSampleCap = 16

// DropStats summarizes discarded packets in bounded memory: exact totals
// by cause plus a ring of the most recent example errors. It replaces the
// unbounded per-drop error slice, which at million-node lossy scale
// retained one allocation per drop.
type DropStats struct {
	// Total is the exact number of packets discarded.
	Total uint64
	// ByCause is the exact per-cause breakdown (keys are the Drop*
	// constants).
	ByCause map[string]uint64
	// Samples holds up to dropSampleCap recent example errors, oldest
	// first.
	Samples []error
}

// dropSample is one sampled drop, kept as its parts: a loss or crash drop
// is formatted into an error only when DropStats reads it. A defect drop
// (absent node, forwarder error, bad hop) carries its wrapped error, so
// errors.Is still finds the sentinel.
type dropSample struct {
	msg   trace.MessageID
	at    trace.NodeID
	time  uint64
	cause string
	err   error
}

// error returns the sample's error.
func (s *dropSample) error() error {
	if s.err != nil {
		return s.err
	}
	return fmt.Errorf("simnet: drop msg %d at %v: %s at t=%d", s.msg, s.at, s.cause, s.time)
}

// dropLog is the bounded drop accumulator behind DropStats.
type dropLog struct {
	mu      sync.Mutex
	total   uint64
	byCause map[string]uint64
	ring    [dropSampleCap]dropSample
	next    uint64
}

// add records one drop.
func (d *dropLog) add(s dropSample) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.total++
	if d.byCause == nil {
		d.byCause = make(map[string]uint64, 4)
	}
	d.byCause[s.cause]++
	d.ring[d.next%dropSampleCap] = s
	d.next++
}

// snapshot copies the accumulated statistics.
func (d *dropLog) snapshot() DropStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := DropStats{Total: d.total, Samples: d.samplesLocked()}
	if len(d.byCause) > 0 {
		out.ByCause = make(map[string]uint64, len(d.byCause))
		for k, v := range d.byCause {
			out.ByCause[k] = v
		}
	}
	return out
}

// samplesLocked formats the example ring oldest-first.
func (d *dropLog) samplesLocked() []error {
	n := d.next
	if n > dropSampleCap {
		n = dropSampleCap
	}
	out := make([]error, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, d.ring[(d.next-n+i)%dropSampleCap].error())
	}
	return out
}

// Failure records a logical message the kernel retired undelivered and
// handed back to the driver (PolicyReroute): the packet's path hit a lost
// link or a crashed node, and end-to-end recovery — a fresh path over the
// live membership — is the driver's job.
type Failure struct {
	// Msg is the failed message.
	Msg trace.MessageID
	// Time is the logical time of the terminal fault.
	Time uint64
	// Cause is the fault class (DropLoss or DropCrash).
	Cause string
}

// Metrics is a snapshot of kernel counters.
type Metrics struct {
	// Shards is the number of kernel shards (worker goroutines).
	Shards int
	// Events is the number of node-arrival events processed so far.
	Events uint64
	// BatchFlushes counts threshold-mix batch flushes (full or quiescent).
	BatchFlushes uint64
	// Churn is the number of scheduled membership/compromise transitions.
	Churn int
	// Retries counts retransmission attempts performed by
	// PolicyRetransmit (link losses and crashed-hop timeouts).
	Retries uint64
	// Dropped is the exact total of discarded packets (see DropStats).
	Dropped uint64
}

// boolSched is a per-node piecewise-constant boolean timeline: the state is
// base before times[0], then vals[i] from times[i] (inclusive) until the
// next transition. Schedules are built once in New and only read afterward.
type boolSched struct {
	base  bool
	times []uint64
	vals  []bool
}

// at evaluates the timeline at logical time t. Schedules hold a handful of
// epoch boundaries, so a linear scan beats binary search in practice.
func (s *boolSched) at(t uint64) bool {
	state := s.base
	for i, tt := range s.times {
		if t < tt {
			break
		}
		state = s.vals[i]
	}
	return state
}

// set appends a transition (times must arrive non-decreasing; a repeat
// timestamp overwrites, last writer wins).
func (s *boolSched) set(t uint64, v bool) {
	if n := len(s.times); n > 0 && s.times[n-1] == t {
		s.vals[n-1] = v
		return
	}
	s.times = append(s.times, t)
	s.vals = append(s.vals, v)
}

// event is one kernel work item: a packet arriving at a node at a logical
// time. The packet stays in the network's arena, so an event is 24 bytes
// however large the packet.
type event struct {
	time uint64
	node trace.NodeID
	pkt  *Packet
}

// eventHeap is a binary min-heap on (time, message ID). A message has one
// event in flight, so that is a total order, and a mix shard's processing
// order does not depend on when events reached its inbox.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].pkt.Msg < h[j].pkt.Msg
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = event{} // release the packet pointer
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && old.less(l, small) {
			small = l
		}
		if r < n && old.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		old[i], old[small] = old[small], old[i]
		i = small
	}
	return top
}

// arenaChunk is the number of packet slots an arena allocates at once.
const arenaChunk = 256

// packetArena holds in-flight packets. Inject copies the caller's packet
// into a slot once; hops, retransmissions and mix batches then move only
// the slot's pointer, and whichever path retires the message (delivery,
// drop, reroute handoff) zeroes the slot so it pins no payload. Slots are
// never reused: the arena keeps only its current chunk, and a full chunk
// becomes garbage once no event points into it. Guarded by Network.mu.
type packetArena struct {
	chunk *[arenaChunk]Packet
	used  int
}

// alloc hands out a zero packet slot.
func (a *packetArena) alloc() *Packet {
	if a.chunk == nil || a.used == arenaChunk {
		a.chunk, a.used = new([arenaChunk]Packet), 0
	}
	a.used++
	return &a.chunk[a.used-1]
}

// routeChunk is the number of route entries a network allocates at once.
const routeChunk = 1024

// routeSlab holds the copies Inject makes of packets' plain routes, in
// chunks that it fills under Network.mu. Each copy's capacity ends at its
// length, so a forwarder that reslices its route cannot reach the next
// message's. A full chunk becomes garbage once no packet points into it.
type routeSlab struct {
	chunk []trace.NodeID
}

// copy returns a copy of route in the slab (nil for an empty route).
func (s *routeSlab) copy(route []trace.NodeID) []trace.NodeID {
	if len(route) == 0 {
		return nil
	}
	if cap(s.chunk)-len(s.chunk) < len(route) {
		s.chunk = make([]trace.NodeID, 0, max(routeChunk, len(route)))
	}
	i := len(s.chunk)
	s.chunk = append(s.chunk, route...)
	return s.chunk[i:len(s.chunk):len(s.chunk)]
}

// recordChunk is the number of message records a network allocates at
// once.
const recordChunk = 256

// msgRecord is everything the network observed of one message: the
// compromised nodes' reports and the receiver's report, the
// retransmission taps, and the delivered payload and time. After Inject
// allocates it, only the goroutine holding the message's packet writes it
// — a packet sits at one node at a time, and every handoff between shards
// passes through a shard lock — so it needs no lock of its own. Hop times
// strictly increase along a path, so appending in hop order keeps the
// reports and the retransmission taps in time order.
type msgRecord struct {
	mt      trace.MessageTrace
	retries []trace.Tuple
	payload []byte
	time    uint64 // delivery time, valid when mt.ReceiverSeen
}

// recordBook holds one record per issued message ID, record k for message
// k+1, in fixed-size chunks that never move, so a packet can point at its
// record. Inject grows it under Network.mu, and every read of the book
// holds that lock too.
type recordBook struct {
	chunks []*[recordChunk]msgRecord
	n      int
}

// issue draws the next message ID and allocates its record.
func (b *recordBook) issue() (trace.MessageID, *msgRecord) {
	if b.n%recordChunk == 0 {
		b.chunks = append(b.chunks, new([recordChunk]msgRecord))
	}
	r := &b.chunks[b.n/recordChunk][b.n%recordChunk]
	b.n++
	r.mt.Msg = trace.MessageID(b.n)
	return r.mt.Msg, r
}

// get returns message id's record, or nil for an ID never issued.
func (b *recordBook) get(id trace.MessageID) *msgRecord {
	if id == 0 || uint64(id) > uint64(b.n) {
		return nil
	}
	i := int(id - 1)
	return &b.chunks[i/recordChunk][i%recordChunk]
}

// all yields every issued message's ID and record in message order.
func (b *recordBook) all() iter.Seq2[trace.MessageID, *msgRecord] {
	return func(yield func(trace.MessageID, *msgRecord) bool) {
		for i := 0; i < b.n; i++ {
			if !yield(trace.MessageID(i+1), &b.chunks[i/recordChunk][i%recordChunk]) {
				return
			}
		}
	}
}

// shard owns a partition of the node space: its inbox receives events for
// its nodes from any goroutine, and its batches hold threshold-mix queues
// for its nodes.
type shard struct {
	id int

	mu      sync.Mutex
	cond    *sync.Cond
	inbox   []event
	stop    bool
	flushed bool // a quiescence flush has been requested

	// local holds the events this shard's hops produce for its own nodes,
	// and out[i] those for shard i, until the end of runShard's batch;
	// only the shard's goroutine touches them. A mix shard has neither and
	// schedules through the inboxes.
	local []event
	out   [][]event

	// batches maps node → held events, allocated lazily so an idle
	// million-node system costs nothing, and free holds flushed queues,
	// emptied, for the next node that needs one. Only the owning shard
	// touches them, outside the shard lock.
	batches map[trace.NodeID][]event
	free    [][]event
	rng     *rand.Rand
}

// Network is a running testbed. Create with New, start with Start, and
// always Close (Close waits for in-flight messages and all goroutines).
type Network struct {
	cfg         Config
	fwd         Forwarder
	compromised map[trace.NodeID]bool
	jitter      uint64 // MaxHopDelay in ticks (0 = no jitter)

	// down marks nodes absent at time zero; liveSched/compSched hold the
	// per-node churn timelines (only churned nodes have entries). All three
	// are immutable once Start runs, so shard goroutines read them freely.
	down      map[trace.NodeID]bool
	liveSched map[trace.NodeID]*boolSched
	compSched map[trace.NodeID]*boolSched

	// crashSched holds the fault-injection outage timelines (true =
	// crashed), kept apart from liveSched because a crashed node is still
	// a member — churn and crashes are orthogonal axes. Immutable after
	// New. lossProb/policy/maxAttempts/backoffBase mirror the validated
	// reliability configuration.
	crashSched  map[trace.NodeID]*boolSched
	lossProb    float64
	policy      faults.Policy
	maxAttempts int
	backoffBase uint64

	injTime atomic.Uint64 // injection logical clock

	shards  []*shard
	shardWG sync.WaitGroup

	// arena holds every in-flight packet, routes a copy of every plain
	// route, and records one record per message; Inject allocates from
	// all three under mu.
	arena   packetArena
	routes  routeSlab
	records recordBook

	// pending counts events in inboxes and heaps; buffered counts packets
	// held in mix batches. Once draining is set (the caller entered
	// WaitSettled or Close, i.e. injection is over), pending hitting zero
	// with buffered packets remaining triggers a quiescence flush — that
	// is what lets WaitSettled terminate with partial batches. Before
	// draining, partial batches keep accumulating: a transient lull while
	// the injector is still producing must not fire the mixes.
	pending  atomic.Int64
	buffered atomic.Int64
	draining atomic.Bool

	events  atomic.Uint64
	flushes atomic.Uint64
	retries atomic.Uint64

	drops dropLog

	mu       sync.Mutex
	failures []Failure

	msgWG sync.WaitGroup // in-flight messages

	started bool
	closed  bool
}

// New validates the configuration and builds a network (not yet running).
func New(cfg Config) (*Network, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("%w: n = %d", ErrBadConfig, cfg.N)
	}
	comp := make(map[trace.NodeID]bool, len(cfg.Compromised))
	for _, id := range cfg.Compromised {
		if int(id) < 0 || int(id) >= cfg.N {
			return nil, fmt.Errorf("%w: compromised node %v", ErrBadConfig, id)
		}
		if comp[id] {
			return nil, fmt.Errorf("%w: duplicate compromised node %v", ErrBadConfig, id)
		}
		comp[id] = true
	}
	if cfg.MaxHopDelay < 0 {
		// A negative duration would wrap through the uint64 tick
		// conversion into a ~2^64 jitter bound and scramble timestamps.
		return nil, fmt.Errorf("%w: MaxHopDelay %v", ErrBadConfig, cfg.MaxHopDelay)
	}
	down := make(map[trace.NodeID]bool, len(cfg.Down))
	for _, id := range cfg.Down {
		if int(id) < 0 || int(id) >= cfg.N {
			return nil, fmt.Errorf("%w: down node %v", ErrBadConfig, id)
		}
		if down[id] {
			return nil, fmt.Errorf("%w: duplicate down node %v", ErrBadConfig, id)
		}
		if comp[id] {
			// An absent node cannot hold adversary state; compromise it
			// after it joins, via the churn schedule.
			return nil, fmt.Errorf("%w: down node %v marked compromised", ErrBadConfig, id)
		}
		down[id] = true
	}
	liveSched, compSched, err := buildChurn(cfg.N, cfg.Churn, down, comp)
	if err != nil {
		return nil, err
	}
	if cfg.LinkLoss < 0 || cfg.LinkLoss > 1 || math.IsNaN(cfg.LinkLoss) {
		return nil, fmt.Errorf("%w: link loss %v outside [0,1]", ErrBadConfig, cfg.LinkLoss)
	}
	if cfg.Policy > faults.PolicyReroute {
		return nil, fmt.Errorf("%w: reliability policy %v", ErrBadConfig, cfg.Policy)
	}
	if cfg.MaxAttempts < 0 {
		return nil, fmt.Errorf("%w: MaxAttempts %d", ErrBadConfig, cfg.MaxAttempts)
	}
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = faults.DefaultMaxAttempts
	}
	if cfg.RetryBackoff < 0 {
		return nil, fmt.Errorf("%w: RetryBackoff %v", ErrBadConfig, cfg.RetryBackoff)
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = faults.DefaultRetryBackoff
	}
	crashSched, err := buildCrashes(cfg.N, cfg.Crashes)
	if err != nil {
		return nil, err
	}
	if cfg.Forwarder == nil {
		cfg.Forwarder = PlainForwarder{}
	}
	if cfg.Shards <= 0 {
		cfg.Shards = pool.Workers()
	}
	if cfg.Shards > cfg.N {
		cfg.Shards = cfg.N
	}
	if cfg.BatchThreshold < 2 {
		cfg.BatchThreshold = 0
	}
	nw := &Network{
		cfg:         cfg,
		fwd:         cfg.Forwarder,
		compromised: comp,
		jitter:      uint64(cfg.MaxHopDelay),
		down:        down,
		liveSched:   liveSched,
		compSched:   compSched,
		crashSched:  crashSched,
		lossProb:    cfg.LinkLoss,
		policy:      cfg.Policy,
		maxAttempts: cfg.MaxAttempts,
		backoffBase: uint64(cfg.RetryBackoff),
		shards:      make([]*shard, cfg.Shards),
	}
	for i := range nw.shards {
		s := &shard{id: i}
		s.cond = sync.NewCond(&s.mu)
		if cfg.BatchThreshold > 0 {
			s.batches = make(map[trace.NodeID][]event)
			s.rng = stats.Fork(cfg.Seed, int64(1_000_003+i))
		} else {
			s.out = make([][]event, cfg.Shards)
		}
		nw.shards[i] = s
	}
	return nw, nil
}

// buildChurn validates the churn schedule as a per-node state machine and
// materializes the per-node boolean timelines. Only churned nodes get an
// entry, so a million-node system with a handful of transitions costs a
// handful of map entries.
func buildChurn(n int, churn []ChurnEvent, down, comp map[trace.NodeID]bool) (liveSched, compSched map[trace.NodeID]*boolSched, err error) {
	if len(churn) == 0 {
		return nil, nil, nil
	}
	// Stable order by time keeps same-timestamp events in declaration
	// order, so the state machine below sees them as the caller wrote them.
	sorted := append([]ChurnEvent(nil), churn...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Time < sorted[j].Time })
	liveSched = make(map[trace.NodeID]*boolSched)
	compSched = make(map[trace.NodeID]*boolSched)
	live := func(id trace.NodeID) *boolSched {
		s, ok := liveSched[id]
		if !ok {
			s = &boolSched{base: !down[id]}
			liveSched[id] = s
		}
		return s
	}
	compromised := func(id trace.NodeID) *boolSched {
		s, ok := compSched[id]
		if !ok {
			s = &boolSched{base: comp[id]}
			compSched[id] = s
		}
		return s
	}
	for _, ev := range sorted {
		if int(ev.Node) < 0 || int(ev.Node) >= n {
			return nil, nil, fmt.Errorf("%w: churn %s of node %v outside [0,%d)", ErrBadConfig, ev.Kind, ev.Node, n)
		}
		ls, cs := live(ev.Node), compromised(ev.Node)
		isLive, isComp := ls.at(ev.Time), cs.at(ev.Time)
		switch ev.Kind {
		case ChurnJoin:
			if isLive {
				return nil, nil, fmt.Errorf("%w: churn join of live node %v at t=%d", ErrBadConfig, ev.Node, ev.Time)
			}
			ls.set(ev.Time, true)
		case ChurnLeave:
			if !isLive {
				return nil, nil, fmt.Errorf("%w: churn leave of absent node %v at t=%d", ErrBadConfig, ev.Node, ev.Time)
			}
			if isComp {
				// Leaves and compromise are orthogonal axes: shrink the
				// adversary with recover, then leave.
				return nil, nil, fmt.Errorf("%w: churn leave of compromised node %v at t=%d (recover it first)", ErrBadConfig, ev.Node, ev.Time)
			}
			ls.set(ev.Time, false)
		case ChurnCompromise:
			if !isLive || isComp {
				return nil, nil, fmt.Errorf("%w: churn compromise of node %v at t=%d (live=%v, compromised=%v)",
					ErrBadConfig, ev.Node, ev.Time, isLive, isComp)
			}
			cs.set(ev.Time, true)
		case ChurnRecover:
			if !isComp {
				return nil, nil, fmt.Errorf("%w: churn recover of honest node %v at t=%d", ErrBadConfig, ev.Node, ev.Time)
			}
			cs.set(ev.Time, false)
		default:
			return nil, nil, fmt.Errorf("%w: churn kind %v", ErrBadConfig, ev.Kind)
		}
	}
	return liveSched, compSched, nil
}

// buildCrashes validates the fault-injection outage schedule and
// materializes per-node crash timelines (true = crashed). Validation
// reuses the faults.Plan semantics: node IDs in range, recover strictly
// after crash, per-node windows non-overlapping.
func buildCrashes(n int, crashes []faults.Crash) (map[trace.NodeID]*boolSched, error) {
	if len(crashes) == 0 {
		return nil, nil
	}
	plan := faults.Plan{Crashes: crashes}
	if err := plan.Validate(n); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	sorted := append([]faults.Crash(nil), crashes...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Node != sorted[j].Node {
			return sorted[i].Node < sorted[j].Node
		}
		return sorted[i].At < sorted[j].At
	})
	out := make(map[trace.NodeID]*boolSched)
	for _, c := range sorted {
		s, ok := out[c.Node]
		if !ok {
			s = &boolSched{}
			out[c.Node] = s
		}
		s.set(c.At, true)
		if c.Recover != 0 {
			s.set(c.Recover, false)
		}
	}
	return out, nil
}

// isLive reports membership of a node at logical time t.
func (nw *Network) isLive(id trace.NodeID, t uint64) bool {
	if s := nw.liveSched[id]; s != nil {
		return s.at(t)
	}
	return !nw.down[id]
}

// isCrashed reports a fault-injection outage at logical time t. Crashes
// are orthogonal to membership: a crashed node is still a member, it just
// fails to process traffic until it recovers.
func (nw *Network) isCrashed(id trace.NodeID, t uint64) bool {
	if s := nw.crashSched[id]; s != nil {
		return s.at(t)
	}
	return false
}

// isCompromised reports whether the adversary taps a node at logical time
// t. A churn schedule makes the answer time-phased; without one this is
// the static compromised set.
func (nw *Network) isCompromised(id trace.NodeID, t uint64) bool {
	if s := nw.compSched[id]; s != nil {
		return s.at(t)
	}
	return nw.compromised[id]
}

// Start launches the shard goroutines (one per shard, not per node).
func (nw *Network) Start() {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if nw.started || nw.closed {
		return
	}
	nw.started = true
	for _, s := range nw.shards {
		nw.shardWG.Add(1)
		go nw.runShard(s)
	}
}

// shardFor maps a node to its owning shard.
func (nw *Network) shardFor(id trace.NodeID) *shard {
	return nw.shards[int(id)%len(nw.shards)]
}

// schedule enqueues an event into the owning shard's inbox.
func (nw *Network) schedule(ev event) {
	nw.pending.Add(1)
	s := nw.shardFor(ev.node)
	s.mu.Lock()
	s.inbox = append(s.inbox, ev)
	s.cond.Signal()
	s.mu.Unlock()
}

// forward passes on an event that a hop on shard s produced. A mix shard
// schedules it through the owning shard's inbox; any other shard keeps it,
// without a lock, in s.local when s owns its node and in the owner's
// s.out queue otherwise, for runShard to run or hand off when the batch
// ends.
func (nw *Network) forward(s *shard, ev event) {
	if s.out == nil {
		nw.schedule(ev)
		return
	}
	nw.pending.Add(1)
	if d := nw.shardFor(ev.node); d == s {
		s.local = append(s.local, ev)
	} else {
		s.out[d.id] = append(s.out[d.id], ev)
	}
}

// runShard is the shard main loop: swap the inbox for the spare slice
// under the lock, then process the events outside it, in arrival order.
// The successors of a batch's hops that land on this shard's own nodes
// form the next batch, taken without the lock; those for other shards are
// handed to each shard's inbox at the end of every batch (handOff), so the
// shard never waits while it holds another shard's events. Arrival order
// is safe because every hop decision (churn, crash, loss, jitter, taps) is
// a pure function of the event's logical time, not of when the shard
// reaches it, and each message's reports land in its own record in hop
// order, which is time order; messages are independent, and per-path
// causality is carried by the event times themselves. Threshold mixes are
// the exception (runMixShard).
func (nw *Network) runShard(s *shard) {
	defer nw.shardWG.Done()
	if nw.cfg.BatchThreshold > 0 {
		nw.runMixShard(s)
		return
	}
	// work trades buffers with the inbox and spare with s.local, never
	// across the pairs, so each buffer grows only to the largest batch of
	// its own role; a buffer passed between roles would keep growing as
	// the batch sizes of each role reach it in turn.
	var work, spare []event
	for {
		s.mu.Lock()
		for !s.stop && len(s.inbox) == 0 {
			s.cond.Wait()
		}
		if len(s.inbox) == 0 {
			s.mu.Unlock()
			return
		}
		work, s.inbox = s.inbox, work[:0]
		s.mu.Unlock()
		nw.runBatch(s, work)
		for len(s.local) > 0 {
			spare, s.local = s.local, spare[:0]
			nw.runBatch(s, spare)
		}
	}
}

// runBatch runs a batch of shard s's events, then hands the events its
// hops produced for other shards to their inboxes. It clears the drained
// batch, so a buffer's backing array does not pin arena chunks after a
// traffic burst.
func (nw *Network) runBatch(s *shard, batch []event) {
	nw.events.Add(uint64(len(batch)))
	for _, ev := range batch {
		nw.hopAt(s, ev.node, ev.pkt, ev.time)
		nw.eventDone()
	}
	clear(batch)
	nw.handOff(s)
}

// handOff appends the events s holds for each other shard to that shard's
// inbox: one locked append and one Signal per shard with events.
func (nw *Network) handOff(s *shard) {
	for i, q := range s.out {
		if len(q) == 0 {
			continue
		}
		d := nw.shards[i]
		d.mu.Lock()
		d.inbox = append(d.inbox, q...)
		d.cond.Signal()
		d.mu.Unlock()
		clear(q)
		s.out[i] = q[:0]
	}
}

// runMixShard is the shard main loop of a threshold-mix network. A batch's
// composition is the order packets reach the mix, so batches must fill in
// arrival-time order: the shard orders its events in a (time, message ID)
// heap and pops one per turn, so that a processed event's successors are
// merged into the heap before the next pop. While injection runs, it pops
// only events below the injection clock, read under the shard lock before
// the inbox is taken: every message injected before that reading, by the
// one goroutine that injects, has its first event in the inbox by then,
// and a later one starts at or after the clock. On a single shard, which
// is how the testbed runs mixes, processing order is therefore the
// (time, message ID) order whatever the pace of injection, and the
// batches, their flushes and every report are a function of the seed.
// Only this goroutine touches the heap.
func (nw *Network) runMixShard(s *shard) {
	var work []event
	var h eventHeap
	// ready reports whether the heap's first event may be processed.
	ready := func() bool {
		return len(h) > 0 && (nw.draining.Load() || h[0].time < nw.injTime.Load())
	}
	for {
		s.mu.Lock()
		for !s.stop && !s.flushed && len(s.inbox) == 0 && !ready() {
			s.cond.Wait()
		}
		if s.stop && len(s.inbox) == 0 && len(h) == 0 {
			s.mu.Unlock()
			return
		}
		draining, clock := nw.draining.Load(), nw.injTime.Load()
		flush := s.flushed
		s.flushed = false
		work, s.inbox = s.inbox, work[:0]
		s.mu.Unlock()
		for _, ev := range work {
			h.push(ev)
		}
		clear(work)
		var ev event
		popped := len(h) > 0 && (draining || h[0].time < clock)
		if popped {
			ev = h.pop()
		}
		if flush {
			nw.flushShard(s)
		}
		if popped {
			nw.mixArrive(s, ev)
		}
	}
}

// mixArrive holds a packet at its threshold-mix node until the batch
// fills. Only the owning shard touches the queue, so no lock.
func (nw *Network) mixArrive(s *shard, ev event) {
	nw.events.Add(1)
	q, held := s.batches[ev.node]
	if !held {
		q = s.queue(nw.cfg.BatchThreshold)
	}
	q = append(q, ev)
	if len(q) >= nw.cfg.BatchThreshold {
		delete(s.batches, ev.node)
		nw.buffered.Add(int64(1 - len(q)))
		nw.flushBatch(s, q)
	} else {
		s.batches[ev.node] = q
		nw.buffered.Add(1)
	}
	nw.eventDone()
}

// queue returns an empty batch queue of the given capacity: a flushed
// one when the shard holds one, a new one otherwise.
func (s *shard) queue(threshold int) []event {
	n := len(s.free)
	if n == 0 {
		return make([]event, 0, threshold)
	}
	q := s.free[n-1]
	s.free[n-1] = nil
	s.free = s.free[:n-1]
	return q
}

// eventDone retires one event and triggers the quiescence flush when the
// kernel has drained, injection is over, and packets are still held in
// partial batches.
func (nw *Network) eventDone() {
	if nw.pending.Add(-1) == 0 && nw.draining.Load() && nw.buffered.Load() > 0 {
		nw.requestFlush()
	}
}

// requestFlush asks every shard to release its partial batches.
func (nw *Network) requestFlush() {
	for _, s := range nw.shards {
		s.mu.Lock()
		s.flushed = true
		s.cond.Signal()
		s.mu.Unlock()
	}
}

// drain marks the end of injection, wakes the mix shards to process the
// events they held back for the injection clock, and arms the quiescence
// flush. The draining store and the pending check cross the eventDone
// decrement from the other side, so whichever of the two observes the
// quiescent state fires the flush — it cannot be lost between them.
func (nw *Network) drain() {
	nw.draining.Store(true)
	if nw.pending.Load() == 0 && nw.buffered.Load() > 0 {
		nw.requestFlush()
		return
	}
	for _, s := range nw.shards {
		s.mu.Lock()
		s.cond.Signal()
		s.mu.Unlock()
	}
}

// flushShard releases every partial batch the shard holds (quiescence
// flush — the mix "fires on timeout"). Batches flush in node order:
// flushBatch consumes the shard's RNG for the departure shuffle, so a
// map-ordered sweep here would leak iteration order into the draw
// sequence and break per-seed bit-reproducibility.
func (nw *Network) flushShard(s *shard) {
	nodes := make([]trace.NodeID, 0, len(s.batches))
	for node := range s.batches {
		nodes = append(nodes, node)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for _, node := range nodes {
		q := s.batches[node]
		delete(s.batches, node)
		nw.buffered.Add(int64(-len(q)))
		nw.flushBatch(s, q)
	}
}

// flushBatch releases a batch: the packets leave in shuffled order with a
// common release time (the batch's latest arrival), which is what unlinks
// arrival from departure order in a threshold mix. The emptied queue goes
// to the shard's free list.
func (nw *Network) flushBatch(s *shard, q []event) {
	nw.flushes.Add(1)
	release := uint64(0)
	for _, ev := range q {
		if ev.time > release {
			release = ev.time
		}
	}
	s.rng.Shuffle(len(q), func(i, j int) { q[i], q[j] = q[j], q[i] })
	for _, ev := range q {
		nw.hopAt(s, ev.node, ev.pkt, release)
	}
	clear(q)
	s.free = append(s.free, q[:0])
}

// hopAt executes the forwarding step of a packet at a node at logical time
// t: asks the forwarder for the next hop, taps the traffic if the node is
// compromised, and schedules the next arrival (or delivers). A crashed
// node hands the packet to the reliability policy instead of processing
// it — including packets released from a partial mix batch, which route
// through here as well, so a crashing mix never leaks its held traffic.
// The packet is mutated in place; once hopAt schedules, delivers or
// retires it, the packet belongs to its next owner and hopAt reads it no
// more. It runs on the goroutine of s, the shard that owns self.
func (nw *Network) hopAt(s *shard, self trace.NodeID, pkt *Packet, t uint64) {
	if !nw.isLive(self, t) {
		// The packet reached a node outside the live membership (left, or
		// not yet joined) — the injector routed through a non-member.
		nw.drop(pkt, dropSample{cause: DropAbsent, err: fmt.Errorf("simnet: drop msg %d at %v: %w: %v at t=%d",
			pkt.Msg, self, ErrAbsent, self, t)})
		return
	}
	if nw.isCrashed(self, t) {
		// Fault-injection outage. PolicyRetransmit models the upstream
		// node timing out and retransmitting: the arrival is rescheduled
		// after a capped exponential backoff, bounded by the per-link
		// budget. The upstream node's own predecessor is no longer in the
		// packet, so crash retries add no adversary observation (unlike
		// link-loss retries, where the retransmitting node is local).
		if nw.policy == faults.PolicyRetransmit && pkt.tries+1 < nw.maxAttempts {
			delay := faults.Backoff(nw.backoffBase, uint64(pkt.tries))
			pkt.tries++
			nw.retries.Add(1)
			nw.forward(s, event{time: t + delay, node: self, pkt: pkt})
			return
		}
		nw.fail(pkt, self, t, DropCrash)
		return
	}
	pkt.tries = 0
	next, err := nw.fwd.Next(self, pkt)
	cause := DropForwarder
	if err == nil && next != trace.Receiver && (int(next) < 0 || int(next) >= nw.cfg.N) {
		err = fmt.Errorf("%w: %v at node %v", ErrBadHop, next, self)
		cause = DropBadHop
	}
	if err != nil {
		nw.drop(pkt, dropSample{cause: cause, err: fmt.Errorf("simnet: drop msg %d at %v: %w", pkt.Msg, self, err)})
		return
	}
	if nw.isCompromised(self, t) {
		r := pkt.rec
		r.mt.Reports = append(r.mt.Reports, trace.Tuple{
			Time: t, Observer: self, Msg: pkt.Msg, Pred: pkt.From, Succ: next,
		})
	}
	pred := pkt.From
	pkt.From = self
	pkt.hops++
	tA, ok := nw.linkUp(self, next, pred, pkt, t)
	if !ok {
		return
	}
	t2 := tA + 1 + nw.hopJitter(pkt.Msg, pkt.hops)
	if next == trace.Receiver {
		nw.deliver(pkt, t2)
		return
	}
	nw.forward(s, event{time: t2, node: next, pkt: pkt})
}

// linkUp resolves the per-attempt loss draws for the transmission of pkt
// from self toward next starting at logical time t. It returns the time
// of the successful attempt (advanced by retransmission backoffs) and
// true; or, when the policy gives the packet up, it retires the message
// (drop or reroute handoff) and returns false — so exactly one of
// schedule/deliver/drop/handoff happens per transmission and the
// in-flight count is conserved.
func (nw *Network) linkUp(self, next, pred trace.NodeID, pkt *Packet, t uint64) (uint64, bool) {
	if nw.lossProb <= 0 {
		return t, true
	}
	for attempt := uint64(0); ; attempt++ {
		if !faults.Lost(nw.cfg.Seed, pkt.Msg, pkt.hops, attempt, nw.lossProb) {
			return t, true
		}
		if nw.policy != faults.PolicyRetransmit || int(attempt)+1 >= nw.maxAttempts {
			nw.fail(pkt, self, t, DropLoss)
			return 0, false
		}
		// Retransmit over the same link. The retransmitting node re-handles
		// the packet, so a compromised self collects a duplicate
		// observation — kept apart from the message's reports (a second
		// report from the same observer would break simple-path
		// classification), among the record's retransmission taps
		// (RetryTaps) for the degraded-H accounting. The injection link
		// (hops == 0: the sender's own first transmission) is exempt: the
		// sender observing itself leaks nothing.
		if pkt.hops > 0 && nw.isCompromised(self, t) {
			r := pkt.rec
			r.retries = append(r.retries, trace.Tuple{
				Time: t, Observer: self, Msg: pkt.Msg, Pred: pred, Succ: next,
			})
		}
		nw.retries.Add(1)
		t += faults.Backoff(nw.backoffBase, attempt)
	}
}

// drop retires a packet into the bounded drop statistics.
func (nw *Network) drop(pkt *Packet, s dropSample) {
	*pkt = Packet{}
	nw.drops.add(s)
	nw.msgWG.Done()
}

// fail retires a packet that hit a terminal fault: under PolicyReroute the
// message is handed back to the driver for an end-to-end retry, otherwise
// it is dropped.
func (nw *Network) fail(pkt *Packet, at trace.NodeID, t uint64, cause string) {
	if nw.policy == faults.PolicyReroute {
		msg := pkt.Msg
		*pkt = Packet{}
		nw.mu.Lock()
		nw.failures = append(nw.failures, Failure{Msg: msg, Time: t, Cause: cause})
		nw.mu.Unlock()
		nw.msgWG.Done()
		return
	}
	nw.drop(pkt, dropSample{msg: pkt.Msg, at: at, time: t, cause: cause})
}

// deliver records the receiver's report and the delivery in the message's
// record, and retires the message. The receiver is always compromised (the
// paper's default threat model); whether the adversary *uses* its report
// is the analyst's choice.
func (nw *Network) deliver(pkt *Packet, t uint64) {
	r := pkt.rec
	r.mt.ReceiverSeen, r.mt.ReceiverPred = true, pkt.From
	r.payload, r.time = pkt.Payload, t
	*pkt = Packet{}
	nw.msgWG.Done()
}

// hopJitter returns the deterministic extra delay for a given (message,
// hop) pair: a SplitMix64 hash of the seed and the pair, reduced to
// [0, MaxHopDelay). Being a pure function, it is reproducible regardless
// of shard scheduling.
func (nw *Network) hopJitter(msg trace.MessageID, hop uint64) uint64 {
	if nw.jitter == 0 {
		return 0
	}
	z := uint64(nw.cfg.Seed) + uint64(msg)*0x9E3779B97F4A7C15 + hop*0xD1B54A32D192ED03
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return z % nw.jitter
}

// Inject introduces a message at the sender and forwards it to first
// (trace.Receiver for a direct send). The sender performs its own first
// hop, so the link-layer predecessor seen by the first intermediate is the
// sender — exactly the paper's model. The message ID is returned: IDs are
// serial, starting at 1, and each one names the message's record. The
// packet value is copied into the kernel, and so is its Route slice, into
// a per-network slab; its Onion and Payload slices are not: see Packet.
func (nw *Network) Inject(sender, first trace.NodeID, pkt Packet) (trace.MessageID, error) {
	if int(sender) < 0 || int(sender) >= nw.cfg.N {
		return 0, fmt.Errorf("%w: sender %v", ErrBadConfig, sender)
	}
	if first != trace.Receiver && (int(first) < 0 || int(first) >= nw.cfg.N) {
		return 0, fmt.Errorf("%w: first hop %v", ErrBadConfig, first)
	}
	// The closed check and the in-flight increment must be atomic with
	// respect to Close, which sets the flag before draining msgWG.
	nw.mu.Lock()
	if nw.closed || !nw.started {
		nw.mu.Unlock()
		return 0, ErrClosed
	}
	nw.msgWG.Add(1)
	p := nw.arena.alloc()
	pkt.Route = nw.routes.copy(pkt.Route)
	msg, rec := nw.records.issue()
	nw.mu.Unlock()
	t0 := nw.injTime.Add(1)
	if !nw.isLive(sender, t0) {
		// The slot was never written, so it holds no payload.
		nw.msgWG.Done()
		return 0, fmt.Errorf("%w: sender %v at t=%d", ErrAbsent, sender, t0)
	}
	*p = pkt
	p.Msg, p.From, p.hops, p.rec = msg, sender, 0, rec
	// From here on p belongs to the kernel: once linkUp, deliver or
	// schedule has it, another goroutine may retire and zero it, so Inject
	// reads nothing from it after handing it over.
	tA, ok := nw.linkUp(sender, first, sender, p, t0)
	if !ok {
		// The injection-link transmission was lost and the policy gave the
		// message up; the fault is already recorded (drop or reroute
		// handoff), so the injection itself succeeded.
		return msg, nil
	}
	t := tA + nw.hopJitter(msg, 0)
	if first == trace.Receiver {
		nw.deliver(p, t+1)
	} else {
		nw.schedule(event{time: t, node: first, pkt: p})
	}
	return msg, nil
}

// SendRoute sends a payload along an explicit source route of intermediate
// nodes (possibly empty for a direct send) using plain routing state. The
// route is copied into the network, so the caller may reuse its buffer
// once SendRoute returns.
func (nw *Network) SendRoute(sender trace.NodeID, route []trace.NodeID, payload []byte) (trace.MessageID, error) {
	if len(route) == 0 {
		return nw.Inject(sender, trace.Receiver, Packet{Payload: payload})
	}
	return nw.Inject(sender, route[0], Packet{Route: route[1:], Payload: payload})
}

// AdvanceTime raises the injection clock to at least t, so every later
// injection carries a logical timestamp ≥ t. Together with Settle it lets
// a driver place traffic phases on disjoint virtual-time windows with the
// churn schedule's transitions on the boundaries.
func (nw *Network) AdvanceTime(t uint64) {
	for {
		cur := nw.injTime.Load()
		if cur >= t || nw.injTime.CompareAndSwap(cur, t) {
			return
		}
	}
}

// Settle waits like WaitSettled — every in-flight message delivered or
// dropped, partial threshold-mix batches quiescence-flushed — but re-arms
// the network for further injection afterward: the mix "fires on timeout"
// at the end of a traffic phase, and the next phase accumulates fresh
// batches instead of inheriting the drained state.
func (nw *Network) Settle(timeout time.Duration) error {
	if err := nw.WaitSettled(timeout); err != nil {
		return err
	}
	// Nothing is pending or buffered here, so clearing the flag cannot race
	// a quiescence check.
	nw.draining.Store(false)
	return nil
}

// WaitSettled blocks until every injected message has been delivered or
// dropped, or the timeout expires. Calling it declares injection finished:
// with batching enabled, partial threshold-mix batches are released on
// kernel quiescence from this point on (the mix "fires on timeout"), so
// the wait terminates.
func (nw *Network) WaitSettled(timeout time.Duration) error {
	nw.drain()
	done := make(chan struct{})
	go func() {
		nw.msgWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("%w: messages still in flight after %v", ErrTimeout, timeout)
	}
}

// record returns message id's record, or nil for an ID never issued. It
// reads the book under mu, which Inject holds while it grows the book, so
// a lookup may run beside an Inject; the record itself is complete only
// once the message's packet has retired.
func (nw *Network) record(id trace.MessageID) *msgRecord {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return nw.records.get(id)
}

// Trace returns message id's trace: its compromised-node reports in time
// order and, once delivered, the receiver's report. It is valid once the
// network has settled (Settle or WaitSettled); until then the message's
// shard may still be writing it. The trace belongs to the network and the
// caller must not modify it. An ID the network never issued returns nil.
func (nw *Network) Trace(id trace.MessageID) *trace.MessageTrace {
	if r := nw.record(id); r != nil {
		return &r.mt
	}
	return nil
}

// RetryTaps returns the duplicate observations compromised nodes collected
// while retransmitting message id over lost links (PolicyRetransmit), in
// time order. They are kept apart from the trace because a second report
// from the same observer would break the analyst's simple-path
// classification; the degraded-H accounting folds them in explicitly. It
// is valid once the network has settled (Settle or WaitSettled), and the
// caller must not modify it. An ID the network never issued returns nil.
func (nw *Network) RetryTaps(id trace.MessageID) []trace.Tuple {
	if r := nw.record(id); r != nil {
		return r.retries
	}
	return nil
}

// Tuples returns a snapshot of every report collected so far in message
// order: each message's compromised-node reports in time order, then its
// receiver report. It is valid once the network has settled (Settle or
// WaitSettled). The caller owns the returned slice.
func (nw *Network) Tuples() []trace.Tuple {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	n := 0
	for _, r := range nw.records.all() {
		n += len(r.mt.Reports)
		if r.mt.ReceiverSeen {
			n++
		}
	}
	out := make([]trace.Tuple, 0, n)
	for id, r := range nw.records.all() {
		out = append(out, r.mt.Reports...)
		if r.mt.ReceiverSeen {
			out = append(out, trace.Tuple{
				Time: r.time, Observer: trace.Receiver, Msg: id,
				Pred: r.mt.ReceiverPred, Succ: trace.Receiver,
			})
		}
	}
	return out
}

// Deliveries returns a snapshot of receiver-side deliveries in message
// order. It is valid once the network has settled (Settle or WaitSettled).
// The caller owns the returned slice.
func (nw *Network) Deliveries() []Delivery {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	n := 0
	for _, r := range nw.records.all() {
		if r.mt.ReceiverSeen {
			n++
		}
	}
	out := make([]Delivery, 0, n)
	for id, r := range nw.records.all() {
		if r.mt.ReceiverSeen {
			out = append(out, Delivery{Msg: id, Pred: r.mt.ReceiverPred, Payload: r.payload, Time: r.time})
		}
	}
	return out
}

// DropStats returns the bounded drop accounting: exact totals by cause
// plus the sampled example ring, up to dropSampleCap recent drops, oldest
// first. Loss and crash samples are formatted on this call, not when the
// packet drops.
func (nw *Network) DropStats() DropStats {
	return nw.drops.snapshot()
}

// DefectDrops returns the exact number of packets discarded for a defect
// (DropBadHop, DropForwarder or DropAbsent) rather than by the configured
// fault process (DropLoss and DropCrash), without formatting any sample.
func (nw *Network) DefectDrops() uint64 {
	d := &nw.drops
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.total - d.byCause[DropLoss] - d.byCause[DropCrash]
}

// TakeFailed drains the reroute handoff list: messages retired
// undelivered under PolicyReroute since the last call, sorted by message
// ID so a driver's retry loop is deterministic under any shard
// interleaving. Call it after Settle, re-inject with fresh paths, settle
// again, and repeat until it returns nothing or the attempt budget is
// spent.
func (nw *Network) TakeFailed() []Failure {
	nw.mu.Lock()
	out := nw.failures
	nw.failures = nil
	nw.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Msg < out[j].Msg })
	return out
}

// Metrics returns a snapshot of the kernel counters.
func (nw *Network) Metrics() Metrics {
	nw.drops.mu.Lock()
	dropped := nw.drops.total
	nw.drops.mu.Unlock()
	return Metrics{
		Shards:       len(nw.shards),
		Events:       nw.events.Load(),
		BatchFlushes: nw.flushes.Load(),
		Churn:        len(nw.cfg.Churn),
		Retries:      nw.retries.Load(),
		Dropped:      dropped,
	}
}

// Close waits for in-flight messages, then stops the shard goroutines. It
// is idempotent. The network cannot be restarted.
func (nw *Network) Close() {
	nw.mu.Lock()
	if nw.closed {
		nw.mu.Unlock()
		return
	}
	nw.closed = true
	started := nw.started
	nw.mu.Unlock()

	if started {
		// After msgWG drains, no event is pending anywhere (the in-flight
		// count is released only at delivery or drop, and partial batches
		// flush on quiescence once drain() arms it), so the shards can be
		// stopped safely.
		nw.drain()
		nw.msgWG.Wait()
		for _, s := range nw.shards {
			s.mu.Lock()
			s.stop = true
			s.cond.Signal()
			s.mu.Unlock()
		}
		nw.shardWG.Wait()
	}
}

// Interface compliance.
var _ Forwarder = PlainForwarder{}
