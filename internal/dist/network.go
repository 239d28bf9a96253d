package dist

import (
	"container/heap"
	"context"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"repro/internal/faults"
	"repro/internal/ndlog"
	"repro/internal/netgraph"
	"repro/internal/obs"
	"repro/internal/prov"
	"repro/internal/store"
	"repro/internal/value"
)

// Options configures a simulation.
type Options struct {
	// MaxTime bounds simulated time; a run that is still generating events
	// at MaxTime is reported as not converged (oscillation / divergence).
	MaxTime float64
	// DefaultLatency is used for message delivery when the topology has no
	// link latency for the destination (e.g. multi-hop control messages).
	DefaultLatency float64
	// LossRate drops each message with this probability; DupRate
	// delivers an extra copy of each message with this probability;
	// DelayJitter adds a uniform [0,DelayJitter) to each message's
	// latency; ReorderRate additionally delays a message by up to twice
	// the link latency so it can arrive behind later traffic. These
	// populate the default fault channel (see internal/faults), whose
	// draws come from per-link streams seeded from Seed; a plan's
	// non-zero Default channel replaces it, and per-link overrides come
	// from ApplyPlan.
	LossRate    float64
	DupRate     float64
	DelayJitter float64
	ReorderRate float64
	Seed        uint64
	// LoadTopologyLinks populates each node's link table from the topology
	// (link(@src, dst, cost)). Enabled for programs that declare link/3.
	LoadTopologyLinks bool
	// Obs, when set, receives all runtime metrics (global counters under
	// component "dist" plus per-rule firings/probes/eval-time for the
	// localized rules). When nil the network keeps a private collector so
	// Result.Stats still works, but per-rule eval timing is skipped.
	Obs *obs.Collector
	// Trace, when set, receives structured trace events (message
	// lifecycle, tuple updates, route flips, expirations, link changes).
	Trace *obs.Tracer
	// Prov, when set, records the derivation graph of every materialized
	// tuple (rule firings, message deliveries, fault events, and
	// retractions); nil disables provenance at zero cost.
	Prov *prov.Recorder
	// ScalarDelete disables the incremental deletion cascade (the DRed
	// over-delete / re-derive path that is the default) and falls back to
	// pre-cascade semantics: a deletion removes only the named tuple and
	// recomputes aggregates over it, leaving stale downstream derivations
	// to soft-state expiry and refresh. It is the retained
	// differential-testing oracle for the incremental deletion path.
	ScalarDelete bool

	// Reliable enables the ack/retransmit layer: every message gets a
	// per-directed-link sequence number, unacked messages are resent with
	// capped exponential backoff (RetryBase·2^k, capped at RetryCap, with
	// seeded jitter from the link's own Substream), receivers suppress
	// duplicates, and after RetryLimit attempts the sender gives up —
	// degrading back to plain soft-state semantics. Zero-valued knobs get
	// defaults (RetryLimit 5, RetryBase 3·DefaultLatency, RetryCap 8×base).
	Reliable   bool
	RetryLimit int
	RetryBase  float64
	RetryCap   float64
	// CheckpointEvery > 0 snapshots every live node's base tables (derived
	// state excluded — it is re-derivable) at that period; a crash-restart
	// then restores from the last checkpoint instead of an empty store.
	CheckpointEvery float64
	// AntiEntropy runs a digest-exchange repair round for every restarted
	// node and partition-heal endpoint: per-relation value.Hash64
	// fingerprints let the node pull exactly its missing tuples from
	// neighbors instead of waiting out the refresh staircase.
	// AntiEntropyEvery > 0 additionally sweeps all live nodes periodically.
	AntiEntropy      bool
	AntiEntropyEvery float64
}

// DefaultOptions returns reasonable simulation settings.
func DefaultOptions() Options {
	return Options{MaxTime: 10_000, DefaultLatency: 1, LoadTopologyLinks: true}
}

// Stats aggregates runtime counters.
type Stats struct {
	MessagesSent       int
	MessagesDelivered  int
	MessagesDropped    int
	MessagesDuplicated int // extra copies created by fault channels (each also counts as sent)
	TupleUpdates       int
	Derivations        int
	JoinProbes         int
	RouteChanges       int // keyed-table replacements
	Expirations        int
	Flips              int // A→B→A value oscillations on one key
	Retractions        int // tuples removed by the incremental deletion cascade
	Crashes            int
	Restarts           int
	// Self-healing layer (all zero when the mechanisms are disabled).
	Retransmits  int
	Acks         int
	AckDrops     int
	RelGiveUps   int
	RelDupDrops  int
	Checkpoints  int
	Restores     int
	RepairRounds int
	RepairPulls  int
	// CheckpointAge is the age of the oldest live node's latest
	// checkpoint at the time Stats was read (0 without checkpoints).
	CheckpointAge float64
}

// Result summarizes a run.
type Result struct {
	Converged bool
	// Cancelled is set when the run was stopped by context cancellation
	// (RunCtx/RunUntilCtx). The pending events stay queued, so a further
	// Run can resume; a cancelled result is inconclusive, not converged.
	Cancelled bool
	Time      float64 // time of the last state change
	Stats     Stats
}

// netMetrics holds the pre-resolved global counter handles (component
// "dist"); Stats() is a view over these.
type netMetrics struct {
	sent, delivered, dropped  *obs.Counter
	duplicated                *obs.Counter
	tupleUpdates, derivations *obs.Counter
	joinProbes, routeChanges  *obs.Counter
	expirations, flips        *obs.Counter
	retractions               *obs.Counter
	crashes, restarts         *obs.Counter
	partitions                *obs.Counter
	linkDowns, linkUps        *obs.Counter
	retransmits, acks         *obs.Counter
	ackDrops, relGiveUps      *obs.Counter
	relDupDrops               *obs.Counter
	checkpoints, restores     *obs.Counter
	repairRounds, repairPulls *obs.Counter
}

// distRuleObs holds the per-rule handles for one localized rule. eval is
// nil unless an external collector was attached: the private collector
// serves Stats() without paying for clock reads on every rule evaluation.
type distRuleObs struct {
	firings *obs.Counter
	probes  *obs.Counter
	emitted *obs.Counter
	eval    *obs.Histogram
}

// Network is a discrete-event simulation of an NDlog program over a
// topology.
type Network struct {
	prog *ndlog.Program // localized program
	an   *ndlog.Analysis
	topo *netgraph.Topology
	opts Options

	nodes map[string]*Node
	queue eventQueue
	seq   int // tiebreaker for deterministic event order
	now   float64

	// Which rules a change reaches comes from the localized analysis
	// (an.Readers), shared by every node. aggKeys holds the key columns of
	// an undeclared aggregate head (its group columns), so a new aggregate
	// value replaces the superseded one as in a declared table.
	aggKeys map[string][]int

	// outbox batches remote derivations by directed link within one event
	// instant: deliver enqueues entries here and flushOutbox (end of each
	// event) sends one message per touched link — epoch-batched delivery.
	// outboxOrder preserves first-touch order for determinism.
	outbox      map[string][]msgEntry
	outboxOrder []string

	// tidx indexes the live topology (links, out-links, neighbors,
	// components; see topoIdx); gt memoizes the all-pairs Dijkstra ground
	// truth at gtVer for the invariant checkers.
	tidx  *topoIndex
	gt    map[string]map[string]int64
	gtVer int

	// execs caches one executor per compiled plan, shared by all nodes
	// (evaluation is single-threaded). shuf drives the seeded scan-order
	// shuffle: full table scans enumerate in a pseudo-random order drawn
	// from Options.Seed. The shuffle is the simulator's implicit timing
	// jitter — with any fixed enumeration order, policy oscillations such
	// as BGP Disagree never resolve even under asymmetric timing, while
	// real networks (and randomized scans) settle into one of the stable
	// solutions. Because the stream is seeded, two runs with the same
	// Options.Seed are bit-for-bit identical; the centralized engine
	// (internal/datalog) is the fully deterministic counterpart.
	execs map[*ndlog.Plan]*store.Exec
	shuf  *store.Shuffler
	delta store.DeltaPass  // the pipelined evaluation of one changed tuple
	aggs  ndlog.AggScratch // aggregate-group lookups (Node.recomputeAggs)

	col     *obs.Collector // never nil: private one when Options.Obs unset
	tracer  *obs.Tracer    // nil when tracing disabled
	nm      netMetrics
	ruleObs map[*ndlog.Rule]*distRuleObs

	prov     *prov.Recorder // nil when provenance disabled
	provAnts []prov.ID      // reusable antecedent scratch

	lastChange float64

	// Fault channels: defaultChan comes from Options (LossRate etc.) or a
	// plan's Default; chanOverrides holds per-directed-link channels from
	// ApplyPlan. chans caches resolved per-link channel state, each with
	// its own Substream(seed, "chan", src, dst) PRNG, so channel draws are
	// independent of creation order and of every other fault source.
	// hasChans gates the whole machinery: when false, sends take exactly
	// the pre-fault code path (bit-for-bit compatibility).
	defaultChan   faults.Channel
	chanOverrides map[string]faults.Channel
	chans         map[string]*chanState
	hasChans      bool

	// rel holds the per-directed-link reliable-channel state (sequence
	// numbers, pending retransmits, receiver dedup memory); derived marks
	// the predicates some localized rule derives — checkpoints snapshot
	// exactly the complement (base tables). See selfheal.go.
	rel     map[string]*relState
	derived map[string]bool
	// maint counts the periodic maintenance events (checkpoint ticks and
	// anti-entropy sweeps) currently in the queue. A tick re-arms itself
	// only while the queue holds events beyond those — otherwise two
	// periodic timers would keep each other alive and the run would never
	// quiesce.
	maint int

	// linkEpoch counts the failures of each directed link. Messages in
	// flight across a link are stamped with the epoch at send time and
	// dropped on arrival if the link has since failed (see arrivalDropped).
	linkEpoch map[string]int

	// partCuts remembers, per partition id, exactly the links a partition
	// cut, so a heal restores those and nothing else.
	partCuts map[int][]netgraph.Link
	nextPart int

	// topoVer counts topology mutations (link up/down), the memo key of
	// GroundTruth.
	topoVer int

	// Soft-state refresh driver (InjectRefresh): while refreshing, a
	// no-op re-insert into a soft-state table re-fires the rules that
	// read it — NDlog's periodic refresh, which is what lets restarted
	// nodes recover state and stale derivations expire. waveSeen dedups
	// refresh firings per (node, pred, key) within one refresh interval,
	// so a wave traverses the network once per tick instead of echoing
	// between neighbors forever.
	refreshing      bool
	refreshInterval float64
	refreshUntil    float64
	waveSeen        map[string]bool

	// history backs flip detection: key -> last two values. One entry per
	// (node, pred, table key) ever written, so it grows with total state
	// touched, not with run length; it is cleared when a run converges
	// (see Run) to bound growth across repeated Run calls.
	history map[string][2]string
}

// NewNetwork analyzes, localizes, and instantiates prog over topo.
func NewNetwork(prog *ndlog.Program, topo *netgraph.Topology, opts Options) (*Network, error) {
	an, err := ndlog.Analyze(prog)
	if err != nil {
		return nil, err
	}
	localized, err := Localize(an)
	if err != nil {
		return nil, err
	}
	lan, err := ndlog.Analyze(localized)
	if err != nil {
		return nil, fmt.Errorf("dist: localized program invalid: %w", err)
	}
	if opts.MaxTime <= 0 {
		opts.MaxTime = DefaultOptions().MaxTime
	}
	if opts.DefaultLatency <= 0 {
		opts.DefaultLatency = 1
	}
	if opts.Reliable {
		if opts.RetryLimit <= 0 {
			opts.RetryLimit = 5
		}
		if opts.RetryBase <= 0 {
			opts.RetryBase = 3 * opts.DefaultLatency
		}
		if opts.RetryCap <= 0 {
			opts.RetryCap = 8 * opts.RetryBase
		}
	}
	n := &Network{
		prog:    localized,
		an:      lan,
		topo:    topo,
		opts:    opts,
		nodes:   map[string]*Node{},
		execs:   map[*ndlog.Plan]*store.Exec{},
		shuf:    store.NewShuffler(opts.Seed),
		history: map[string][2]string{},
		prov:    opts.Prov,

		defaultChan: faults.Channel{
			Loss:    opts.LossRate,
			Dup:     opts.DupRate,
			Jitter:  opts.DelayJitter,
			Reorder: opts.ReorderRate,
		},
		chanOverrides: map[string]faults.Channel{},
		chans:         map[string]*chanState{},
		rel:           map[string]*relState{},
		derived:       map[string]bool{},
		aggKeys:       map[string][]int{},
		outbox:        map[string][]msgEntry{},
		linkEpoch:     map[string]int{},
		partCuts:      map[int][]netgraph.Link{},
		waveSeen:      map[string]bool{},
	}
	n.hasChans = !n.defaultChan.Zero()
	heads := map[string]int{}
	for _, r := range localized.Rules {
		if !r.Delete {
			heads[r.Head.Pred]++
		}
	}
	for _, r := range localized.Rules {
		n.derived[r.Head.Pred] = true
		agg, aggIdx := r.Head.HeadAgg()
		if agg != nil {
			if m, ok := localized.MaterializedPred(r.Head.Pred); ok {
				if slices.Contains(m.Keys, aggIdx+1) {
					return nil, fmt.Errorf("dist: materialize(%s): key column %d is the aggregate of rule %s; key an aggregate head by its group columns", r.Head.Pred, aggIdx+1, r.Label)
				}
			} else if heads[r.Head.Pred] == 1 {
				for c := range r.Head.Args {
					if c != aggIdx {
						n.aggKeys[r.Head.Pred] = append(n.aggKeys[r.Head.Pred], c)
					}
				}
			}
		}
	}
	n.initObs(opts.Obs, opts.Trace)
	for _, id := range topo.Nodes {
		n.nodes[id] = n.newNode(id)
	}
	if opts.CheckpointEvery > 0 {
		n.schedule(&event{at: opts.CheckpointEvery, kind: evCheckpoint})
		n.maint++
	}
	if opts.AntiEntropy && opts.AntiEntropyEvery > 0 {
		n.schedule(&event{at: opts.AntiEntropyEvery, kind: evAntiEntropy})
		n.maint++
	}

	// Program facts go to their declared locations.
	for _, f := range localized.Facts {
		loc := ""
		if f.Loc >= 0 {
			loc = f.Args[f.Loc].S
		}
		if loc == "" {
			return nil, fmt.Errorf("dist: fact %s has no location", f.Pred)
		}
		n.Inject(0, loc, f.Pred, f.Args)
	}
	// Topology links.
	if opts.LoadTopologyLinks {
		if arity, ok := lan.Arity["link"]; ok && arity == 3 {
			for _, l := range topo.Links {
				n.Inject(0, l.Src, "link", value.Tuple{value.Addr(l.Src), value.Addr(l.Dst), value.Int(l.Cost)})
			}
		}
	}
	return n, nil
}

// initObs resolves all metric handles once. A private collector backs the
// Stats() view when the caller did not supply one; per-rule eval-time
// histograms are only created for an external collector, so the default
// path never reads the clock.
func (n *Network) initObs(col *obs.Collector, tracer *obs.Tracer) {
	timed := col != nil
	if col == nil {
		col = obs.NewCollector()
	}
	n.col = col
	n.tracer = tracer
	n.nm = netMetrics{
		sent:         col.Counter("dist", obs.MMsgSent, ""),
		delivered:    col.Counter("dist", obs.MMsgDelivered, ""),
		dropped:      col.Counter("dist", obs.MMsgDropped, ""),
		duplicated:   col.Counter("dist", obs.MMsgDuplicated, ""),
		tupleUpdates: col.Counter("dist", obs.MTupleUpdates, ""),
		derivations:  col.Counter("dist", obs.MDerivations, ""),
		joinProbes:   col.Counter("dist", obs.MJoinProbes, ""),
		routeChanges: col.Counter("dist", obs.MRouteChanges, ""),
		expirations:  col.Counter("dist", obs.MExpirations, ""),
		flips:        col.Counter("dist", obs.MFlips, ""),
		retractions:  col.Counter("dist", obs.MRetractions, ""),
		crashes:      col.Counter("dist", obs.MNodeCrashes, ""),
		restarts:     col.Counter("dist", obs.MNodeRestarts, ""),
		partitions:   col.Counter("dist", obs.MPartitions, ""),
		linkDowns:    col.Counter("dist", obs.MLinkDowns, ""),
		linkUps:      col.Counter("dist", obs.MLinkUps, ""),
		retransmits:  col.Counter("dist", obs.MRetransmits, ""),
		acks:         col.Counter("dist", obs.MAcks, ""),
		ackDrops:     col.Counter("dist", obs.MAckDrops, ""),
		relGiveUps:   col.Counter("dist", obs.MRelGiveUps, ""),
		relDupDrops:  col.Counter("dist", obs.MRelDupDrops, ""),
		checkpoints:  col.Counter("dist", obs.MCheckpoints, ""),
		restores:     col.Counter("dist", obs.MRestores, ""),
		repairRounds: col.Counter("dist", obs.MRepairRounds, ""),
		repairPulls:  col.Counter("dist", obs.MRepairPulls, ""),
	}
	n.ruleObs = make(map[*ndlog.Rule]*distRuleObs, len(n.prog.Rules))
	for _, r := range n.prog.Rules {
		ro := &distRuleObs{
			firings: col.Counter("dist", obs.MRuleFirings, r.Label),
			probes:  col.Counter("dist", obs.MRuleProbes, r.Label),
			emitted: col.Counter("dist", obs.MRuleEmitted, r.Label),
		}
		if timed {
			ro.eval = col.Histogram("dist", obs.MRuleEval, r.Label)
		}
		n.ruleObs[r] = ro
	}
}

// Stats returns the runtime counters. It is the single read path: the
// struct is derived from the collector on every call.
func (n *Network) Stats() Stats {
	return Stats{
		MessagesSent:       int(n.nm.sent.Value()),
		MessagesDelivered:  int(n.nm.delivered.Value()),
		MessagesDropped:    int(n.nm.dropped.Value()),
		MessagesDuplicated: int(n.nm.duplicated.Value()),
		TupleUpdates:       int(n.nm.tupleUpdates.Value()),
		Derivations:        int(n.nm.derivations.Value()),
		JoinProbes:         int(n.nm.joinProbes.Value()),
		RouteChanges:       int(n.nm.routeChanges.Value()),
		Expirations:        int(n.nm.expirations.Value()),
		Flips:              int(n.nm.flips.Value()),
		Retractions:        int(n.nm.retractions.Value()),
		Crashes:            int(n.nm.crashes.Value()),
		Restarts:           int(n.nm.restarts.Value()),
		Retransmits:        int(n.nm.retransmits.Value()),
		Acks:               int(n.nm.acks.Value()),
		AckDrops:           int(n.nm.ackDrops.Value()),
		RelGiveUps:         int(n.nm.relGiveUps.Value()),
		RelDupDrops:        int(n.nm.relDupDrops.Value()),
		Checkpoints:        int(n.nm.checkpoints.Value()),
		Restores:           int(n.nm.restores.Value()),
		RepairRounds:       int(n.nm.repairRounds.Value()),
		RepairPulls:        int(n.nm.repairPulls.Value()),
		CheckpointAge:      n.CheckpointAge(),
	}
}

// Collector exposes the metric registry backing Stats().
func (n *Network) Collector() *obs.Collector { return n.col }

// Explain renders the EXPLAIN ANALYZE view of the localized program with
// the per-rule statistics collected so far.
func (n *Network) Explain(w io.Writer, title string) {
	rules := make([]obs.RuleLine, 0, len(n.prog.Rules))
	for _, r := range n.prog.Rules {
		line := obs.RuleLine{Label: r.Label, Text: r.String()}
		if rp := n.an.Plans[r]; rp != nil {
			line.Plan = rp.Full.Describe()
		}
		rules = append(rules, line)
	}
	obs.WriteExplain(w, title, "dist", rules, n.col)
}

// exec returns the cached executor for a plan, with the seeded scan
// shuffle attached.
func (n *Network) exec(p *ndlog.Plan) *store.Exec {
	x, ok := n.execs[p]
	if !ok {
		x = store.NewExec(p)
		x.SetShuffle(n.shuf)
		n.execs[p] = x
	}
	return x
}

func (n *Network) newNode(id string) *Node {
	// Rule indexes live on the Network (shared by all nodes); a node is
	// just its identity, tables, and crash/checkpoint state.
	return &Node{ID: id, net: n, tables: map[string]*store.Table{}}
}

// --- event queue -----------------------------------------------------------

type eventKind int

const (
	evMessage eventKind = iota
	evExpiry
	evInject
	evLinkDown
	evLinkUp
	evNodeCrash
	evNodeRestart
	evPartition
	evPartitionHeal
	evRefresh
	// Self-healing layer (selfheal.go).
	evRelRetx     // retransmit timer for one unacked reliable message
	evAck         // ack travelling back to the sender
	evCheckpoint  // periodic base-table snapshot of every live node
	evAntiEntropy // repair round for one node ("" = sweep all live nodes)
)

type event struct {
	at   float64
	seq  int
	kind eventKind
	node string
	pred string
	tup  value.Tuple
	// messages: origin, and the epoch of the traversed link at send time
	// (direct is false for multi-hop sends with no topology link, which
	// no single link failure can kill).
	from   string
	epoch  int
	direct bool
	// link events
	a, b string
	cost int64
	lat  float64
	// partition events
	pid   int
	group []string
	// messages: the sender-side provenance entry (rule firing) that
	// emitted the carried tuple; resolved into a delivery edge on admit.
	cause prov.ID
	// reliable-channel fields: rel marks a message carrying a per-link
	// sequence number (rseq); attempt is 0 for the original transmission
	// and the retry count for retransmitted copies; evRelRetx and evAck
	// reuse rseq. repair marks anti-entropy pulls (provenance label).
	rel     bool
	repair  bool
	rseq    int64
	attempt int
	// entries, when non-nil, marks an epoch-batched message: every remote
	// derivation one event pushed over this link, delivered (and
	// retransmitted) as a unit. pred/tup then hold the first entry as the
	// representative for traces. nil means a classic single-tuple message.
	entries []msgEntry
}

// msgEntry is one tuple (or retraction) inside an epoch-batched message.
type msgEntry struct {
	pred  string
	tup   value.Tuple
	cause prov.ID
	del   bool // retraction: run the receiver's deletion cascade
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil // the backing array must not keep handled events alive
	*q = old[:n-1]
	return e
}

func (n *Network) schedule(e *event) {
	e.seq = n.seq
	n.seq++
	heap.Push(&n.queue, e)
}

func (n *Network) scheduleExpiry(node, pred string, tup value.Tuple, at float64) {
	ep := 0
	if nd := n.nodes[node]; nd != nil {
		ep = nd.epoch
	}
	// The epoch pins the expiry to the node incarnation that scheduled it:
	// a crash bumps the epoch, cancelling every pending expiry at once.
	n.schedule(&event{at: at, kind: evExpiry, node: node, pred: pred, tup: tup, epoch: ep})
}

// Inject schedules the insertion of a tuple at a node (external stimulus).
func (n *Network) Inject(at float64, node, pred string, tup value.Tuple) {
	n.schedule(&event{at: at, kind: evInject, node: node, pred: pred, tup: tup})
}

// InjectPeriodic schedules count injections of tuples derived from seq at
// the given interval, starting at start. Each injection calls mk with the
// firing index — NDlog's periodic(@N, E, T) event stream, with mk
// supplying the per-firing event identifier.
func (n *Network) InjectPeriodic(start, interval float64, count int, node, pred string, mk func(i int) value.Tuple) {
	for i := 0; i < count; i++ {
		n.Inject(start+float64(i)*interval, node, pred, mk(i))
	}
}

// FailLink schedules the removal of the link tuples between a and b (both
// directions) at the given time. Messages still in flight across the link
// when it fails are dropped (and traced) on arrival: the failure bumps
// the link's epoch, and arrivals stamped with an older epoch never left
// the wire.
func (n *Network) FailLink(at float64, a, b string) {
	n.schedule(&event{at: at, kind: evLinkDown, a: a, b: b})
}

// FailNode schedules the failure of all links adjacent to the node — the
// crash-from-the-network's-viewpoint model (the node's own tables persist
// but it is unreachable; soft state about it decays by expiry).
func (n *Network) FailNode(at float64, node string) {
	seen := map[string]bool{}
	for _, l := range n.topo.Links {
		other := ""
		if l.Src == node {
			other = l.Dst
		} else if l.Dst == node {
			other = l.Src
		}
		if other == "" || seen[other] {
			continue
		}
		seen[other] = true
		n.FailLink(at, node, other)
	}
}

// RestoreLink schedules re-insertion of the symmetric link with the given
// cost.
func (n *Network) RestoreLink(at float64, a, b string, cost int64) {
	n.schedule(&event{at: at, kind: evLinkUp, a: a, b: b, cost: cost, lat: 1})
}

// CrashNode schedules a true crash: the node's tables are wiped, its
// pending expiries cancelled, and its links cut — unlike FailNode, which
// only makes the node unreachable while its state persists.
func (n *Network) CrashNode(at float64, node string) {
	n.schedule(&event{at: at, kind: evNodeCrash, node: node})
}

// RestartNode schedules the restart of a crashed node: it rejoins with
// empty tables and the links it had when it crashed (less any with a
// still-down far end) and must recover state via soft-state refresh.
func (n *Network) RestartNode(at float64, node string) {
	n.schedule(&event{at: at, kind: evNodeRestart, node: node})
}

// Partition schedules a cut of every link between group and the rest of
// the topology, returning a partition id for HealPartition.
func (n *Network) Partition(at float64, group []string) int {
	pid := n.nextPart
	n.nextPart++
	n.schedule(&event{at: at, kind: evPartition, pid: pid, group: append([]string(nil), group...)})
	return pid
}

// HealPartition schedules restoration of exactly the links the partition
// cut (skipping links whose endpoints have since crashed).
func (n *Network) HealPartition(at float64, pid int) {
	n.schedule(&event{at: at, kind: evPartitionHeal, pid: pid})
}

// InjectRefresh installs the soft-state refresh driver: from start until
// until, every interval, each live node re-inserts its live link facts,
// and for the rest of the run no-op re-inserts into soft-state tables
// re-fire their rules (once per table key per interval) — the periodic
// refresh that keeps live soft state alive and lets restarted nodes
// relearn routes, while stale state silently expires.
func (n *Network) InjectRefresh(start, interval, until float64) {
	if interval <= 0 {
		interval = 1
	}
	n.refreshing = true
	n.refreshInterval = interval
	n.refreshUntil = until
	n.schedule(&event{at: start, kind: evRefresh})
}

// ApplyPlan schedules a declarative fault plan against the network: it
// validates the plan, installs per-link channel overrides, and schedules
// every flap, crash/restart, and partition/heal. Call before Run.
func (n *Network) ApplyPlan(p *faults.Plan) error {
	if err := p.Validate(n.topo); err != nil {
		return err
	}
	if !p.Default.Zero() {
		n.defaultChan = p.Default
	}
	for _, lf := range p.Links {
		if !lf.Channel.Zero() {
			n.chanOverrides[lf.A+"|"+lf.B] = lf.Channel
			n.chanOverrides[lf.B+"|"+lf.A] = lf.Channel
		}
		for _, f := range lf.Flaps {
			n.FailLink(f.Down, lf.A, lf.B)
			if f.Up > f.Down {
				cost, lat := n.linkSpec(lf.A, lf.B)
				n.schedule(&event{at: f.Up, kind: evLinkUp, a: lf.A, b: lf.B, cost: cost, lat: lat})
			}
		}
	}
	for _, nf := range p.Nodes {
		n.CrashNode(nf.Crash, nf.Node)
		if nf.Restart > nf.Crash {
			n.RestartNode(nf.Restart, nf.Node)
		}
	}
	for _, pt := range p.Partitions {
		pid := n.Partition(pt.At, pt.Group)
		if pt.Heal > pt.At {
			n.HealPartition(pt.Heal, pid)
		}
	}
	n.hasChans = !n.defaultChan.Zero() || len(n.chanOverrides) > 0
	return nil
}

// linkSpec returns the current cost and latency of the a→b link (defaults
// when absent).
func (n *Network) linkSpec(a, b string) (int64, float64) {
	for _, l := range n.topo.Links {
		if l.Src == a && l.Dst == b {
			lat := l.Latency
			if lat <= 0 {
				lat = 1
			}
			return l.Cost, lat
		}
	}
	return 1, 1
}

// topoIdx returns the topology index. It is built on first use, inside
// Run, so NewNetwork does not pay for it; from then on linkDown and
// linkUp keep it current.
func (n *Network) topoIdx() *topoIndex {
	if n.tidx == nil {
		n.tidx = newTopoIndex(n.topo)
	}
	return n.tidx
}

// GroundTruth returns the all-pairs shortest-path costs of the live
// topology, memoized per topology version — the invariant checkers call
// it after every sample, and recomputing Dijkstra for an unchanged
// topology dominated campaign time on large graphs.
func (n *Network) GroundTruth() map[string]map[string]int64 {
	if n.gt != nil && n.gtVer == n.topoVer {
		return n.gt
	}
	n.gt = n.topo.ShortestCosts()
	n.gtVer = n.topoVer
	return n.gt
}

// latency returns the message latency from src to dst and whether a
// direct topology link carries it.
func (n *Network) latency(src, dst string) (float64, bool) {
	if l, ok := n.topoIdx().link[linkKey{src, dst}]; ok {
		if l.Latency > 0 {
			return l.Latency, true
		}
		return n.opts.DefaultLatency, true
	}
	return n.opts.DefaultLatency, false
}

// chanState is the resolved noise model of one directed link, with its
// own identity-derived PRNG stream.
type chanState struct {
	cfg faults.Channel
	rng *faults.RNG
}

// chanFor resolves (and caches) the fault channel of the src→dst link:
// a per-link override from the plan, else the default channel. A nil
// result means the link is noiseless.
func (n *Network) chanFor(src, dst string) *chanState {
	if !n.hasChans {
		return nil
	}
	k := src + "|" + dst
	if ch, ok := n.chans[k]; ok {
		return ch
	}
	cfg := n.defaultChan
	if ov, ok := n.chanOverrides[k]; ok {
		cfg = ov
	}
	var ch *chanState
	if !cfg.Zero() {
		ch = &chanState{cfg: cfg, rng: faults.Substream(n.opts.Seed, "chan", src, dst)}
	}
	n.chans[k] = ch
	return ch
}

// sendMessage sends one logical message. Under Options.Reliable it first
// registers the message with the link's reliable-channel state (sequence
// number, pending entry, first retransmit timer); either way the physical
// transmission goes through transmit.
func (n *Network) sendMessage(src, dst, pred string, tup value.Tuple, cause prov.ID) {
	n.sendMessageOpts(src, dst, pred, tup, cause, false)
}

// sendMessageOpts is sendMessage with the anti-entropy repair marker
// (recorded in provenance so `fvn why` explains healed tuples).
func (n *Network) sendMessageOpts(src, dst, pred string, tup value.Tuple, cause prov.ID, repair bool) {
	var rseq int64
	rel := false
	if n.opts.Reliable {
		rel = true
		rs := n.relFor(src, dst)
		rs.nextSeq++
		rseq = rs.nextSeq
		rs.pending[rseq] = &relPending{pred: pred, tup: tup, cause: cause, repair: repair}
		n.scheduleRetx(rs, rseq, 1)
	}
	n.transmit(src, dst, pred, tup, cause, nil, rel, rseq, 0, repair)
}

// queueRemote adds one tuple (or retraction) to the src→dst epoch batch:
// every remote derivation of one event instant rides a single message
// per link, flushed when the event finishes (flushOutbox). Retractions
// are link-bound: a dead direct link cannot signal a deletion, so the
// entry is silently discarded before it ever becomes a message — the
// paper's soft-state stance that retractions cannot cross failed links
// (refresh and expiry are the backstop for the stale remote state).
func (n *Network) queueRemote(src, dst string, en msgEntry) {
	if en.del && !n.topoIdx().hasLink(src, dst) {
		return
	}
	k := src + "|" + dst
	box := n.outbox[k]
	for _, have := range box {
		if have.del == en.del && have.pred == en.pred && have.tup.Equal(en.tup) {
			return // exact duplicate within this epoch batch
		}
	}
	if box == nil {
		n.outboxOrder = append(n.outboxOrder, k)
	}
	n.outbox[k] = append(box, en)
}

// flushOutbox sends every pending epoch batch, one message per touched
// link in first-touch order. A batch of exactly one plain tuple takes
// the classic single-message path, so sparse traffic keeps its
// pre-batching shape.
func (n *Network) flushOutbox() {
	if len(n.outboxOrder) == 0 {
		return
	}
	order := n.outboxOrder
	n.outboxOrder = n.outboxOrder[:0]
	for _, k := range order {
		entries := n.outbox[k]
		delete(n.outbox, k)
		if len(entries) == 0 {
			continue
		}
		i := strings.IndexByte(k, '|')
		src, dst := k[:i], k[i+1:]
		if len(entries) == 1 && !entries[0].del {
			en := entries[0]
			n.sendMessage(src, dst, en.pred, en.tup, en.cause)
			continue
		}
		n.sendBatch(src, dst, entries)
	}
}

// sendBatch transmits one epoch batch (several tuples and retractions
// for one link) as a single message: one statistics entry, one fault
// draw set, one reliable-channel sequence number. The first entry is
// the representative for traces and retransmit bookkeeping.
func (n *Network) sendBatch(src, dst string, entries []msgEntry) {
	rep := entries[0]
	var rseq int64
	rel := false
	if n.opts.Reliable {
		rel = true
		rs := n.relFor(src, dst)
		rs.nextSeq++
		rseq = rs.nextSeq
		rs.pending[rseq] = &relPending{pred: rep.pred, tup: rep.tup, cause: rep.cause, entries: entries}
		n.scheduleRetx(rs, rseq, 1)
	}
	n.transmit(src, dst, rep.pred, rep.tup, rep.cause, entries, rel, rseq, 0, false)
}

// transmit applies the link's fault channel to one physical transmission:
// duplication (each copy counts as sent and faces loss independently),
// loss, delay jitter, and reordering delay. Every scheduled copy is
// stamped with the link epoch so a later link failure drops it in
// flight. Retransmissions re-enter here with attempt > 0 and count as
// sent like any other copy.
func (n *Network) transmit(src, dst, pred string, tup value.Tuple, cause prov.ID, entries []msgEntry, rel bool, rseq int64, attempt int, repair bool) {
	ch := n.chanFor(src, dst)
	copies := 1
	if ch != nil && ch.cfg.Dup > 0 && ch.rng.Float64() < ch.cfg.Dup {
		copies = 2
		n.nm.duplicated.Add(1)
	}
	lat, direct := n.latency(src, dst)
	epoch := 0
	if direct {
		epoch = n.linkEpoch[src+"|"+dst]
	}
	for c := 0; c < copies; c++ {
		n.nm.sent.Add(1)
		if n.tracer != nil {
			n.tracer.Emit(obs.Event{T: n.now, Kind: obs.EvMessageSent, From: src, To: dst, Pred: pred, Tuple: tup.String()})
		}
		if ch != nil && ch.cfg.Loss > 0 && ch.rng.Float64() < ch.cfg.Loss {
			n.dropMessage(src, dst, pred, tup)
			continue
		}
		delay := lat
		if ch != nil {
			if ch.cfg.Jitter > 0 {
				delay += ch.rng.Float64() * ch.cfg.Jitter
			}
			if ch.cfg.Reorder > 0 && ch.rng.Float64() < ch.cfg.Reorder {
				delay += ch.rng.Float64() * 2 * lat
			}
		}
		n.schedule(&event{
			at:      n.now + delay,
			kind:    evMessage,
			node:    dst,
			pred:    pred,
			tup:     tup,
			from:    src,
			epoch:   epoch,
			direct:  direct,
			cause:   cause,
			rel:     rel,
			repair:  repair,
			rseq:    rseq,
			attempt: attempt,
			entries: entries,
		})
	}
}

func (n *Network) dropMessage(src, dst, pred string, tup value.Tuple) {
	n.nm.dropped.Add(1)
	if n.tracer != nil {
		n.tracer.Emit(obs.Event{T: n.now, Kind: obs.EvMessageDropped, From: src, To: dst, Pred: pred, Tuple: tup.String()})
	}
}

// arrivalDropped reports (and accounts) a message that cannot be
// delivered: its link failed while it was in flight, its destination is
// down, or the endpoints are in different components at arrival time
// (the underlay reroutes around dead links but cannot cross a
// partition).
func (n *Network) arrivalDropped(e *event) bool {
	if dst := n.nodes[e.node]; dst != nil && dst.down {
		n.dropMessage(e.from, e.node, e.pred, e.tup)
		return true
	}
	if e.direct && n.linkEpoch[e.from+"|"+e.node] != e.epoch {
		n.dropMessage(e.from, e.node, e.pred, e.tup)
		return true
	}
	if !n.reachable(e.from, e.node) {
		n.dropMessage(e.from, e.node, e.pred, e.tup)
		return true
	}
	return false
}

// reachable reports whether a and b are in the same connected component
// of the current topology. Message delivery requires it at arrival time:
// the underlay can reroute around dead links, but it cannot cross a
// partition.
func (n *Network) reachable(a, b string) bool {
	if a == b || a == "" {
		return true
	}
	return n.topoIdx().connected(a, b)
}

// refreshFire reports whether a no-op re-insert of tup into node's pred
// table should still fire rules: only while the refresh driver is
// installed, only for soft-state tables, and at most once per table key
// per refresh interval (waveSeen is cleared on each refresh tick).
func (n *Network) refreshFire(node *Node, pred string, tup value.Tuple) bool {
	if !n.refreshing {
		return false
	}
	t := node.tables[pred]
	if t == nil || t.Lifetime <= 0 {
		return false
	}
	k := node.ID + "\x00" + pred + "\x00" + t.KeyOf(tup)
	if n.waveSeen[k] {
		return false
	}
	n.waveSeen[k] = true
	return true
}

// linkDown cuts the symmetric a–b link now: it bumps both directed link
// epochs (dooming in-flight messages), removes the topology link, and
// deletes the link tuples at both endpoints, recomputing any aggregates
// over link.
func (n *Network) linkDown(a, b string) error {
	n.nm.linkDowns.Add(1)
	if n.tracer != nil {
		n.tracer.Emit(obs.Event{T: n.now, Kind: obs.EvLinkDown, From: a, To: b})
	}
	fid := n.prov.Fault(n.now, "link_down", a, b, 0)
	n.linkEpoch[a+"|"+b]++
	n.linkEpoch[b+"|"+a]++
	if n.topo.RemoveLink(a, b) > 0 {
		n.topoIdx().removeLink(a, b)
	}
	n.topoVer++
	for _, pair := range [][2]string{{a, b}, {b, a}} {
		node := n.nodes[pair[0]]
		if node == nil || node.down {
			continue // a down node's tables are already empty
		}
		t, ok := node.tables["link"]
		if !ok {
			continue
		}
		// Snapshot: the cascade deletes while iterating. This is a primary
		// (forced) retraction — the link fact is gone by fiat, and the
		// deletion cascade retracts everything downstream of it (under
		// ScalarDelete only aggregates recompute, as before the cascade).
		for _, tup := range t.Snapshot() {
			if tup[0].S == pair[0] && tup[1].S == pair[1] {
				ds, err := node.retract("link", tup, true, "link_down", fid)
				if err != nil {
					return err
				}
				if err := n.deliver(node, ds); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// linkUp restores the symmetric a–b link now with the given cost and
// latency, re-inserting the link tuples at both (live) endpoints.
func (n *Network) linkUp(a, b string, cost int64, lat float64) error {
	n.nm.linkUps.Add(1)
	if n.tracer != nil {
		n.tracer.Emit(obs.Event{T: n.now, Kind: obs.EvLinkUp, From: a, To: b, N: cost})
	}
	if lat <= 0 {
		lat = 1
	}
	fid := n.prov.Fault(n.now, "link_up", a, b, cost)
	// Both directions go live before either insert cascade runs, so the
	// cascade already sees (and can retract over) the whole link.
	for _, pair := range [][2]string{{a, b}, {b, a}} {
		l := netgraph.Link{Src: pair[0], Dst: pair[1], Cost: cost, Latency: lat}
		if n.topoIdx().addLink(l) {
			n.topo.Links = append(n.topo.Links, l)
		}
	}
	n.topoVer++
	for _, pair := range [][2]string{{a, b}, {b, a}} {
		node := n.nodes[pair[0]]
		if node == nil || node.down {
			continue
		}
		ds, err := node.insert("link", value.Tuple{value.Addr(pair[0]), value.Addr(pair[1]), value.Int(cost)}, n.now, fid)
		if err != nil {
			return err
		}
		if err := n.deliver(node, ds); err != nil {
			return err
		}
	}
	return nil
}

// noteFlip records value oscillation on a keyed table entry: a key whose
// value returns to its value-before-last has flipped (the signature of the
// Disagree oscillation).
func (n *Network) noteFlip(node, pred, key string, old, new value.Tuple) {
	h := node + "\x00" + pred + "\x00" + key
	prev := n.history[h]
	if prev[0] != "" && prev[0] == new.Key() {
		n.nm.flips.Add(1)
		if n.tracer != nil {
			n.tracer.Emit(obs.Event{T: n.now, Kind: obs.EvRouteFlip, Node: node, Pred: pred, Tuple: new.String()})
		}
	}
	n.history[h] = [2]string{old.Key(), new.Key()}
}

// deliver processes derivations: local heads recurse immediately (the
// deletion cascade included), remote heads enter the link's epoch batch
// in the outbox — one message per link per event instant, sent by
// flushOutbox when the event finishes.
func (n *Network) deliver(from *Node, ds []derivation) error {
	// Local worklist (zero simulated time).
	work := ds
	for len(work) > 0 {
		d := work[0]
		work = work[1:]
		if d.loc == from.ID {
			var more []derivation
			var err error
			switch {
			case d.retract:
				more, err = from.retract(d.pred, d.tup, false, "support_lost", d.cause)
			case d.del != nil:
				more, err = from.retractDerived(d.del, d.pred, d.tup)
			default:
				more, err = from.insert(d.pred, d.tup, n.now, d.cause)
			}
			if err != nil {
				return err
			}
			work = append(work, more...)
			continue
		}
		n.queueRemote(from.ID, d.loc, msgEntry{pred: d.pred, tup: d.tup, cause: d.cause, del: d.retract})
	}
	return nil
}

// Run processes events until quiescence or MaxTime. It may be called
// repeatedly: new injections resume the simulation.
func (n *Network) Run() (Result, error) { return n.RunCtx(context.Background()) }

// RunCtx is Run with cancellation: the context is polled every few events
// (a coarse boundary — rule firing dominates, so the check is off the hot
// path, and with a Background context it costs one nil comparison per
// event). On cancellation the run stops between events with the queue
// intact, so the result carries the partial stats and a later Run resumes
// exactly where this one stopped.
func (n *Network) RunCtx(ctx context.Context) (Result, error) {
	done := ctx.Done()
	polled := 0
	for n.queue.Len() > 0 {
		if done != nil {
			if polled++; polled&0x3f == 1 && ctx.Err() != nil {
				if n.tracer != nil {
					n.tracer.Emit(obs.Event{T: n.lastChange, Kind: obs.EvRunEnd, Name: "cancelled"})
				}
				return Result{Converged: false, Cancelled: true, Time: n.lastChange, Stats: n.Stats()}, nil
			}
		}
		e := heap.Pop(&n.queue).(*event)
		if e.at > n.opts.MaxTime {
			// Push back so a later Run with a higher MaxTime could resume.
			heap.Push(&n.queue, e)
			if n.tracer != nil {
				n.tracer.Emit(obs.Event{T: n.lastChange, Kind: obs.EvRunEnd, Name: "truncated"})
			}
			return Result{Converged: false, Time: n.lastChange, Stats: n.Stats()}, nil
		}
		n.now = e.at
		switch e.kind {
		case evMessage, evInject:
			node, ok := n.nodes[e.node]
			if !ok {
				return Result{}, fmt.Errorf("dist: delivery to unknown node %s", e.node)
			}
			// Batch: a node drains its entire input queue for this instant
			// before running its rules (as a router processes its input
			// buffer before the decision process). Within the batch, later
			// updates to the same table key supersede earlier ones, so
			// transient intermediate routes are damped rather than
			// propagated. Messages whose link died in flight, and all
			// arrivals at a down node, never enter the batch (injections
			// to a down node are skipped silently — the stimulus has no one
			// to arrive at — while undeliverable messages count as drops).
			type update struct {
				pred  string
				tup   value.Tuple
				cause prov.ID
			}
			var batch []update
			var retracts []update
			admit := func(ev *event) {
				cause := ev.cause
				if ev.kind == evMessage {
					if n.arrivalDropped(ev) {
						return
					}
					n.noteDelivered(ev)
					if ev.rel && !n.relReceive(ev) {
						return // duplicate suppressed (re-acked above)
					}
					if ev.entries != nil {
						// Epoch batch: one message, many tuples. Every entry
						// gets its own delivery edge; retractions are set
						// aside and run after this instant's inserts, so a
						// tuple that moves (retract+re-derive in one epoch)
						// settles on the inserted value.
						for _, en := range ev.entries {
							lbl := en.pred
							if ev.attempt > 0 {
								lbl += "/retx"
							}
							if ev.repair {
								lbl += "/repair"
							}
							c := n.prov.Message(ev.at, ev.from, ev.node, lbl, ev.epoch, int64(ev.seq), en.cause)
							if en.del {
								retracts = append(retracts, update{en.pred, en.tup, c})
							} else {
								batch = append(batch, update{en.pred, en.tup, c})
							}
						}
						return
					}
					// The delivery edge is recorded even when the insert
					// below turns out to be a no-op: the message crossing
					// the link is a real causal event either way. Healed
					// deliveries carry a marked label so `fvn why` shows
					// how the tuple got there.
					lbl := ev.pred
					if ev.attempt > 0 {
						lbl += "/retx"
					}
					if ev.repair {
						lbl += "/repair"
					}
					cause = n.prov.Message(ev.at, ev.from, ev.node, lbl, ev.epoch, int64(ev.seq), ev.cause)
				} else if node.down {
					return
				}
				batch = append(batch, update{ev.pred, ev.tup, cause})
			}
			admit(e)
			for n.queue.Len() > 0 {
				top := n.queue[0]
				if top.at != e.at || top.node != e.node || (top.kind != evMessage && top.kind != evInject) {
					break
				}
				heap.Pop(&n.queue)
				admit(top)
			}
			final := map[string]update{}
			var order []string
			var olds []update      // key-replaced old tuples: cascade their losses
			var kills []derivation // what the inserts kill through negation
			for _, u := range batch {
				changed, key, old, ks, err := node.insertQuiet(u.pred, u.tup, n.now, u.cause)
				if err != nil {
					return Result{}, err
				}
				kills = append(kills, ks...)
				if old != nil {
					olds = append(olds, update{u.pred, old, u.cause})
				}
				if !changed {
					if !n.refreshFire(node, u.pred, u.tup) {
						continue
					}
					key = node.table(u.pred).KeyOf(u.tup)
				}
				k := u.pred + "\x00" + key
				if _, seen := final[k]; !seen {
					order = append(order, k)
				}
				final[k] = u
			}
			if err := n.deliver(node, kills); err != nil {
				return Result{}, err
			}
			for _, k := range order {
				u := final[k]
				ds, err := node.fire(u.pred, u.tup)
				if err != nil {
					return Result{}, err
				}
				if err := n.deliver(node, ds); err != nil {
					return Result{}, err
				}
			}
			if !n.opts.ScalarDelete {
				for _, u := range olds {
					ds, err := node.replacedLosses(u.pred, u.tup, u.cause)
					if err != nil {
						return Result{}, err
					}
					if err := n.deliver(node, ds); err != nil {
						return Result{}, err
					}
				}
			}
			for _, u := range retracts {
				ds, err := node.retract(u.pred, u.tup, false, "support_lost", u.cause)
				if err != nil {
					return Result{}, err
				}
				if err := n.deliver(node, ds); err != nil {
					return Result{}, err
				}
			}
		case evExpiry:
			node := n.nodes[e.node]
			if node == nil || node.down || node.epoch != e.epoch {
				continue // node gone, down, or crashed since scheduling
			}
			ds, err := node.expire(e.pred, e.tup, n.now)
			if err != nil {
				return Result{}, err
			}
			if err := n.deliver(node, ds); err != nil {
				return Result{}, err
			}
		case evLinkDown:
			if err := n.linkDown(e.a, e.b); err != nil {
				return Result{}, err
			}
		case evLinkUp:
			if err := n.linkUp(e.a, e.b, e.cost, e.lat); err != nil {
				return Result{}, err
			}
		case evNodeCrash:
			node := n.nodes[e.node]
			if node == nil || node.down {
				continue
			}
			n.nm.crashes.Add(1)
			if n.tracer != nil {
				n.tracer.Emit(obs.Event{T: n.now, Kind: obs.EvNodeCrash, Node: e.node})
			}
			n.prov.Fault(n.now, "crash", e.node, "", 0)
			n.prov.DropNode(e.node)
			node.down = true
			node.epoch++ // cancels every pending expiry of the old incarnation
			node.tables = map[string]*store.Table{}
			n.relCrash(e.node)
			n.lastChange = n.now
			// Snapshot the adjacent links (for restart), then cut them.
			seen := map[string]bool{}
			var adj []netgraph.Link
			for _, l := range n.topo.Links {
				other, cost, lat := "", int64(0), 0.0
				if l.Src == e.node {
					other, cost, lat = l.Dst, l.Cost, l.Latency
				} else if l.Dst == e.node {
					other, cost, lat = l.Src, l.Cost, l.Latency
				}
				if other == "" || seen[other] {
					continue
				}
				seen[other] = true
				adj = append(adj, netgraph.Link{Src: e.node, Dst: other, Cost: cost, Latency: lat})
			}
			node.downLinks = adj
			for _, l := range adj {
				if err := n.linkDown(l.Src, l.Dst); err != nil {
					return Result{}, err
				}
			}
		case evNodeRestart:
			node := n.nodes[e.node]
			if node == nil || !node.down {
				continue
			}
			n.nm.restarts.Add(1)
			if n.tracer != nil {
				n.tracer.Emit(obs.Event{T: n.now, Kind: obs.EvNodeRestart, Node: e.node})
			}
			fid := n.prov.Fault(n.now, "restart", e.node, "", 0)
			node.down = false
			n.lastChange = n.now
			for _, l := range node.downLinks {
				if far := n.nodes[l.Dst]; far != nil && far.down {
					continue // far end crashed too; its restart restores the link
				}
				lat := l.Latency
				if lat <= 0 {
					lat = 1
				}
				if err := n.linkUp(l.Src, l.Dst, l.Cost, lat); err != nil {
					return Result{}, err
				}
			}
			node.downLinks = nil
			if n.opts.CheckpointEvery > 0 {
				n.restoreCheckpoint(node, fid)
			}
			if n.opts.AntiEntropy {
				n.scheduleRepair(e.node, n.now+n.opts.DefaultLatency)
			}
		case evPartition:
			inGroup := map[string]bool{}
			for _, g := range e.group {
				inGroup[g] = true
			}
			n.nm.partitions.Add(1)
			if n.tracer != nil {
				n.tracer.Emit(obs.Event{T: n.now, Kind: obs.EvPartition, Name: strings.Join(e.group, ","), N: int64(e.pid)})
			}
			n.prov.Fault(n.now, "partition", strings.Join(e.group, ","), "", int64(e.pid))
			seen := map[string]bool{}
			var cut []netgraph.Link
			for _, l := range n.topo.Links {
				if inGroup[l.Src] == inGroup[l.Dst] {
					continue
				}
				a, b := l.Src, l.Dst
				if a > b {
					a, b = b, a
				}
				if seen[a+"|"+b] {
					continue
				}
				seen[a+"|"+b] = true
				cut = append(cut, l)
			}
			n.partCuts[e.pid] = cut
			for _, l := range cut {
				if err := n.linkDown(l.Src, l.Dst); err != nil {
					return Result{}, err
				}
			}
		case evPartitionHeal:
			cut := n.partCuts[e.pid]
			if cut == nil {
				continue
			}
			delete(n.partCuts, e.pid)
			if n.tracer != nil {
				n.tracer.Emit(obs.Event{T: n.now, Kind: obs.EvPartitionHeal, N: int64(e.pid)})
			}
			for _, l := range cut {
				if na := n.nodes[l.Src]; na != nil && na.down {
					continue
				}
				if nb := n.nodes[l.Dst]; nb != nil && nb.down {
					continue
				}
				lat := l.Latency
				if lat <= 0 {
					lat = 1
				}
				if err := n.linkUp(l.Src, l.Dst, l.Cost, lat); err != nil {
					return Result{}, err
				}
			}
			if n.opts.AntiEntropy {
				for _, id := range healEndpoints(n, cut) {
					n.scheduleRepair(id, n.now+n.opts.DefaultLatency)
				}
			}
		case evRelRetx:
			n.relRetransmit(e)
		case evAck:
			n.relAckArrived(e)
		case evCheckpoint:
			n.checkpointTick()
		case evAntiEntropy:
			if err := n.antiEntropyEvent(e); err != nil {
				return Result{}, err
			}
		case evRefresh:
			// New wave: every (node, pred, key) may refresh-fire once more.
			n.waveSeen = map[string]bool{}
			if ar, ok := n.an.Arity["link"]; !ok || ar != 3 {
				continue // program has no link/3 relation to refresh
			}
			for _, id := range n.topo.Nodes {
				node := n.nodes[id]
				if node == nil || node.down {
					continue
				}
				for _, l := range n.topoIdx().outLinks(id) {
					ds, err := node.insert("link", value.Tuple{value.Addr(l.Src), value.Addr(l.Dst), value.Int(l.Cost)}, n.now, 0)
					if err != nil {
						return Result{}, err
					}
					if err := n.deliver(node, ds); err != nil {
						return Result{}, err
					}
				}
			}
			if n.now+n.refreshInterval <= n.refreshUntil+1e-9 {
				n.schedule(&event{at: n.now + n.refreshInterval, kind: evRefresh})
			}
		}
		// Epoch boundary: everything the event pushed toward remote nodes
		// leaves now, one batched message per touched link.
		n.flushOutbox()
	}
	if n.tracer != nil {
		n.tracer.Emit(obs.Event{T: n.lastChange, Kind: obs.EvRunEnd, Name: "converged"})
	}
	// The run is quiescent: flip-detection history cannot influence it any
	// more, so release it (it grows with every table key ever touched).
	n.history = map[string][2]string{}
	return Result{Converged: true, Time: n.lastChange, Stats: n.Stats()}, nil
}

// noteDelivered records one message delivery.
func (n *Network) noteDelivered(e *event) {
	n.nm.delivered.Add(1)
	if n.tracer != nil {
		n.tracer.Emit(obs.Event{T: e.at, Kind: obs.EvMessageDelivered, Node: e.node, Pred: e.pred, Tuple: e.tup.String()})
	}
}

// RunUntil runs with MaxTime temporarily overridden to t: it processes
// events up to t and returns, leaving later events queued so a further
// Run/RunUntil resumes. The chaos campaign uses it to sample state at a
// chosen instant of a run that never fully quiesces (refresh driver).
func (n *Network) RunUntil(t float64) (Result, error) {
	return n.RunUntilCtx(context.Background(), t)
}

// RunUntilCtx is RunUntil with cancellation (see RunCtx).
func (n *Network) RunUntilCtx(ctx context.Context, t float64) (Result, error) {
	old := n.opts.MaxTime
	n.opts.MaxTime = t
	r, err := n.RunCtx(ctx)
	n.opts.MaxTime = old
	return r, err
}

// PendingMessages counts the messages still in flight (scheduled but not
// yet delivered or dropped) — the third leg of message conservation on
// truncated runs: sent == delivered + dropped + pending.
func (n *Network) PendingMessages() int {
	c := 0
	for _, e := range n.queue {
		if e.kind == evMessage {
			c++
		}
	}
	return c
}

// NodeDown reports whether a node is currently crashed.
func (n *Network) NodeDown(id string) bool {
	nd := n.nodes[id]
	return nd != nil && nd.down
}

// LiveNodes returns the currently-up nodes in topology order.
func (n *Network) LiveNodes() []string {
	var out []string
	for _, id := range n.topo.Nodes {
		if !n.NodeDown(id) {
			out = append(out, id)
		}
	}
	return out
}

// Topology returns the live topology (mutated in place by link and node
// faults) — the surviving ground truth invariant checks run against.
func (n *Network) Topology() *netgraph.Topology { return n.topo }

// Now returns the current simulated time.
func (n *Network) Now() float64 { return n.now }

// Node returns the node with the given id.
func (n *Network) Node(id string) *Node { return n.nodes[id] }

// Query returns pred's tuples at one node.
func (n *Network) Query(node, pred string) []value.Tuple {
	nd, ok := n.nodes[node]
	if !ok {
		return nil
	}
	return nd.Tuples(pred)
}

// QueryAll returns pred's tuples across all nodes, sorted.
func (n *Network) QueryAll(pred string) []value.Tuple {
	var out []value.Tuple
	for _, id := range n.topo.Nodes {
		out = append(out, n.Query(id, pred)...)
	}
	value.SortTuples(out)
	return out
}

// Snapshot renders the global state of pred deterministically (testing).
func (n *Network) Snapshot(pred string) string {
	var b []byte
	ids := append([]string(nil), n.topo.Nodes...)
	sort.Strings(ids)
	for _, id := range ids {
		for _, t := range n.Query(id, pred) {
			b = append(b, (id + ":" + pred + t.String() + "\n")...)
		}
	}
	return string(b)
}

// Program returns the localized program under execution.
func (n *Network) Program() *ndlog.Program { return n.prog }

// Prov returns the provenance recorder (nil when disabled).
func (n *Network) Prov() *prov.Recorder { return n.prov }

// WhyID locates the live version of pred(tup) in the provenance
// recorder, searching nodes in topology order, and returns the node
// that materializes it and its entry id (0 when no node holds it).
func (n *Network) WhyID(pred string, tup value.Tuple) (string, prov.ID) {
	for _, id := range n.topo.Nodes {
		if eid := n.prov.Current(id, pred, tup); eid != 0 {
			return id, eid
		}
	}
	return "", 0
}
