package dist

// Self-healing layer: reliable channels (per-directed-link ack/retransmit
// with capped exponential backoff), periodic node checkpoints of base
// tables, and anti-entropy repair (digest exchange pulling exactly the
// missing tuples into a restored or partition-healed node). All three are
// opt-in via Options and individually gated: with every mechanism off the
// simulator takes exactly the pre-feature code path, so existing seeded
// runs stay bit-for-bit identical.

import (
	"sort"

	"repro/internal/faults"
	"repro/internal/netgraph"
	"repro/internal/obs"
	"repro/internal/prov"
	"repro/internal/store"
	"repro/internal/value"
)

// --- reliable channels ------------------------------------------------------

// relPending is one unacked message awaiting retransmission. entries is
// non-nil for an epoch-batched message: the whole batch is retransmitted
// as a unit (pred/tup hold the representative first entry).
type relPending struct {
	pred    string
	tup     value.Tuple
	cause   prov.ID
	repair  bool // anti-entropy pull (kept across retransmits for provenance)
	entries []msgEntry
}

// relState is the reliable-channel state of one directed link: the sender
// side assigns sequence numbers and tracks unacked messages; the receiver
// side remembers delivered sequence numbers for duplicate suppression.
// All protocol randomness (backoff jitter, ack loss) draws from the
// link's own Substream(seed, "rel", src, dst), so enabling the layer
// never perturbs the "chan" noise streams and same-seed runs stay
// bit-for-bit reproducible.
type relState struct {
	src, dst string
	rng      *faults.RNG

	// Sender side. nextSeq is never reset (not even by a crash): a
	// restarted sender keeps assigning fresh numbers, so the receiver's
	// dedup memory can never mistake a new message for an old one.
	nextSeq int64
	pending map[int64]*relPending
	acked   int64
	gaveUp  int64
	retx    int64

	// Receiver side: sequence numbers already delivered on this link.
	seen map[int64]bool
}

// relFor returns (creating if needed) the reliable-channel state of the
// src→dst link.
func (n *Network) relFor(src, dst string) *relState {
	k := src + "|" + dst
	rs, ok := n.rel[k]
	if !ok {
		rs = &relState{
			src:     src,
			dst:     dst,
			rng:     faults.Substream(n.opts.Seed, "rel", src, dst),
			pending: map[int64]*relPending{},
			seen:    map[int64]bool{},
		}
		n.rel[k] = rs
	}
	return rs
}

// chanCfg resolves the noise configuration of the src→dst link without
// touching the channel's PRNG (the reliable layer draws ack-loss from its
// own substream).
func (n *Network) chanCfg(src, dst string) faults.Channel {
	if !n.hasChans {
		return faults.Channel{}
	}
	if ov, ok := n.chanOverrides[src+"|"+dst]; ok {
		return ov
	}
	return n.defaultChan
}

// scheduleRetx arms the retransmit timer for one pending message:
// capped exponential backoff (RetryBase·2^(attempt-1), capped at
// RetryCap) with uniform jitter in [0.5, 1.5) drawn from the link's
// "rel" substream.
func (n *Network) scheduleRetx(rs *relState, seq int64, attempt int) {
	d := n.opts.RetryBase * float64(int64(1)<<uint(attempt-1))
	if d > n.opts.RetryCap {
		d = n.opts.RetryCap
	}
	d *= 0.5 + rs.rng.Float64()
	n.schedule(&event{at: n.now + d, kind: evRelRetx, from: rs.src, node: rs.dst, rseq: seq, attempt: attempt})
}

// relRetransmit handles a retransmit timer: if the message is still
// unacked, resend a fresh copy (which faces channel noise like any other)
// and re-arm with the next backoff step, or give up after RetryLimit
// attempts — degrading back to plain soft-state semantics, where the
// refresh wave eventually re-carries the state.
func (n *Network) relRetransmit(e *event) {
	rs := n.rel[e.from+"|"+e.node]
	if rs == nil {
		return
	}
	p := rs.pending[e.rseq]
	if p == nil {
		return // acked (or abandoned at sender crash) before the timer fired
	}
	if e.attempt > n.opts.RetryLimit {
		delete(rs.pending, e.rseq)
		rs.gaveUp++
		n.nm.relGiveUps.Add(1)
		if n.tracer != nil {
			n.tracer.Emit(obs.Event{T: n.now, Kind: obs.EvRelGiveUp, From: rs.src, To: rs.dst, Pred: p.pred, Tuple: p.tup.String(), N: e.rseq})
		}
		return
	}
	rs.retx++
	n.nm.retransmits.Add(1)
	if n.tracer != nil {
		n.tracer.Emit(obs.Event{T: n.now, Kind: obs.EvRetransmit, From: rs.src, To: rs.dst, Pred: p.pred, Tuple: p.tup.String(), N: int64(e.attempt)})
	}
	n.transmit(rs.src, rs.dst, p.pred, p.tup, p.cause, p.entries, true, e.rseq, e.attempt, p.repair)
	n.scheduleRetx(rs, e.rseq, e.attempt+1)
}

// relReceive runs at the receiver for every arriving reliable message:
// it always sends (or loses) an ack — re-acking duplicates covers lost
// acks — and reports whether the delivery is new. Suppressed duplicates
// still count as delivered (the copy did cross the wire) but never enter
// the node's input batch.
func (n *Network) relReceive(ev *event) bool {
	rs := n.relFor(ev.from, ev.node)
	cfg := n.chanCfg(ev.node, ev.from) // ack rides the reverse link
	if cfg.Loss > 0 && rs.rng.Float64() < cfg.Loss {
		n.nm.ackDrops.Add(1)
	} else {
		lat, _ := n.latency(ev.node, ev.from)
		n.schedule(&event{at: n.now + lat, kind: evAck, from: ev.node, node: ev.from, rseq: ev.rseq})
	}
	if rs.seen[ev.rseq] {
		n.nm.relDupDrops.Add(1)
		return false
	}
	rs.seen[ev.rseq] = true
	return true
}

// relAckArrived handles an ack landing back at the sender: the pending
// entry (if still there) is retired and its retransmit chain dies with
// it (the next timer finds no pending entry).
func (n *Network) relAckArrived(e *event) {
	rs := n.rel[e.node+"|"+e.from]
	if rs == nil {
		return
	}
	if _, ok := rs.pending[e.rseq]; !ok {
		return // duplicate ack, or the sender already gave up
	}
	delete(rs.pending, e.rseq)
	rs.acked++
	n.nm.acks.Add(1)
	if n.tracer != nil {
		n.tracer.Emit(obs.Event{T: n.now, Kind: obs.EvAck, From: e.from, To: e.node, N: e.rseq})
	}
}

// relCrash abandons the crashed node's outbound pending messages (its
// sender state died with it) and clears its inbound dedup memory (the
// next incarnation starts fresh; sequence numbers are never reused, so
// forgetting them is safe).
func (n *Network) relCrash(id string) {
	if len(n.rel) == 0 {
		return
	}
	keys := make([]string, 0, len(n.rel))
	for k := range n.rel {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		rs := n.rel[k]
		if rs.src == id && len(rs.pending) > 0 {
			c := int64(len(rs.pending))
			rs.gaveUp += c
			rs.pending = map[int64]*relPending{}
			n.nm.relGiveUps.Add(c)
		}
		if rs.dst == id && len(rs.seen) > 0 {
			rs.seen = map[int64]bool{}
		}
	}
}

// RelLink is the per-directed-link accounting of the reliable layer. The
// at-least-once invariant is Assigned == Acked + GaveUp + Pending: every
// sequence number ever assigned is eventually acknowledged, explicitly
// abandoned, or still in the retransmit loop.
type RelLink struct {
	Link        string `json:"link"` // "src|dst"
	Assigned    int64  `json:"assigned"`
	Acked       int64  `json:"acked"`
	GaveUp      int64  `json:"gave_up"`
	Retransmits int64  `json:"retransmits"`
	Pending     int64  `json:"pending"`
}

// RelLinkStats returns the reliable-channel accounting per directed link,
// sorted by link key (nil when the layer is disabled or idle).
func (n *Network) RelLinkStats() []RelLink {
	if len(n.rel) == 0 {
		return nil
	}
	keys := make([]string, 0, len(n.rel))
	for k := range n.rel {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]RelLink, 0, len(keys))
	for _, k := range keys {
		rs := n.rel[k]
		out = append(out, RelLink{
			Link:        k,
			Assigned:    rs.nextSeq,
			Acked:       rs.acked,
			GaveUp:      rs.gaveUp,
			Retransmits: rs.retx,
			Pending:     int64(len(rs.pending)),
		})
	}
	return out
}

// --- node checkpoints -------------------------------------------------------

// ckptTable is one relation of a checkpoint: the base tuples of pred in
// insertion order at snapshot time.
type ckptTable struct {
	pred string
	tups []value.Tuple
}

// checkpointTick snapshots every live node's base tables and re-arms the
// timer — but only while other events remain queued, so a run that has
// otherwise quiesced still converges instead of checkpointing forever.
func (n *Network) checkpointTick() {
	for _, id := range n.topo.Nodes {
		node := n.nodes[id]
		if node == nil || node.down {
			continue
		}
		n.checkpointNode(node)
	}
	n.maint--
	if n.queue.Len() > n.maint {
		n.schedule(&event{at: n.now + n.opts.CheckpointEvery, kind: evCheckpoint})
		n.maint++
	}
}

// checkpointNode snapshots the node's base tables (preds that are the
// head of no localized rule). Derived state — including the fwd_* replica
// tables — is excluded: it is re-derivable from the bases, and restoring
// it directly would resurrect conclusions whose premises died while the
// node was down.
func (n *Network) checkpointNode(node *Node) {
	preds := make([]string, 0, len(node.tables))
	for pred := range node.tables {
		if n.derived[pred] {
			continue
		}
		preds = append(preds, pred)
	}
	sort.Strings(preds)
	var ck []ckptTable
	count := 0
	for _, pred := range preds {
		t := node.tables[pred]
		if t == nil || t.Len() == 0 {
			continue
		}
		tups := t.Snapshot()
		ck = append(ck, ckptTable{pred: pred, tups: tups})
		count += len(tups)
	}
	node.ckpt = ck
	node.ckptAt = n.now
	node.hasCkpt = true
	n.nm.checkpoints.Add(1)
	if n.tracer != nil {
		n.tracer.Emit(obs.Event{T: n.now, Kind: obs.EvCheckpoint, Node: node.ID, N: int64(count)})
	}
}

// restoreCheckpoint replays the node's last checkpoint after a restart by
// scheduling the saved base tuples as injections at the current instant,
// with the restart fault as their provenance cause. Injection (rather
// than direct insertion) routes the replay through the batch-delivery
// path: all bases land before any rule fires, matching initial-load
// semantics — important for delete rules with negation, which would
// mis-fire against a partially-restored store. Stale entries (e.g. link
// tuples for links that died while the node was down) are soft state and
// expire normally.
func (n *Network) restoreCheckpoint(node *Node, cause prov.ID) {
	if !node.hasCkpt {
		return
	}
	count := 0
	for _, ct := range node.ckpt {
		for _, tup := range ct.tups {
			// Adjacency state is revalidated against the live underlay (a
			// restarted router re-probes its interfaces before trusting a
			// stored adjacency): link tuples whose link died while the node
			// was down are dropped here instead of deriving stale routes
			// for a Lifetime.
			if ct.pred == "link" && n.opts.LoadTopologyLinks && len(tup) == 3 &&
				!n.topoIdx().hasLink(tup[0].S, tup[1].S) {
				continue
			}
			n.schedule(&event{at: n.now, kind: evInject, node: node.ID, pred: ct.pred, tup: tup, cause: cause})
			count++
		}
	}
	n.nm.restores.Add(1)
	if n.tracer != nil {
		n.tracer.Emit(obs.Event{T: n.now, Kind: obs.EvRestore, Node: node.ID, N: int64(count)})
	}
}

// CheckpointAge returns the age of the oldest live node's latest
// checkpoint (0 when no live node has one) — the bound on how much base
// state a crash right now could lose.
func (n *Network) CheckpointAge() float64 {
	// Checkpoints are only ever taken by the periodic tick, so without
	// one no node can hold a checkpoint: skip the per-node scan.
	if n.opts.CheckpointEvery <= 0 {
		return 0
	}
	age := 0.0
	for _, id := range n.topo.Nodes {
		node := n.nodes[id]
		if node == nil || node.down || !node.hasCkpt {
			continue
		}
		if a := n.now - node.ckptAt; a > age {
			age = a
		}
	}
	return age
}

// --- anti-entropy repair ----------------------------------------------------

// scheduleRepair schedules one anti-entropy round for a node (or, with an
// empty id, a sweep over every live node).
func (n *Network) scheduleRepair(id string, at float64) {
	n.schedule(&event{at: at, kind: evAntiEntropy, node: id})
}

// antiEntropyEvent dispatches an evAntiEntropy event: a targeted round
// for one node, or a periodic sweep (re-armed only while other events
// remain, like checkpoints).
func (n *Network) antiEntropyEvent(e *event) error {
	if e.node != "" {
		node := n.nodes[e.node]
		if node == nil || node.down {
			return nil
		}
		return n.antiEntropyNode(node)
	}
	n.maint--
	for _, id := range n.topo.Nodes {
		node := n.nodes[id]
		if node == nil || node.down {
			continue
		}
		if err := n.antiEntropyNode(node); err != nil {
			return err
		}
	}
	if n.opts.AntiEntropyEvery > 0 && n.queue.Len() > n.maint {
		n.schedule(&event{at: n.now + n.opts.AntiEntropyEvery, kind: evAntiEntropy})
		n.maint++
	}
	return nil
}

// antiEntropyNode runs one digest-exchange round for node x: each live
// neighbor re-derives what its state implies for x, and x's per-relation
// fingerprint sets (value.Hash64 per tuple — the wire-efficient digest a
// real implementation would exchange) filter that down to exactly the
// tuples x is missing, which the neighbor then sends as ordinary (and,
// when enabled, reliable) messages subject to channel noise. The digest
// exchange itself is modelled as control-plane metadata: only the pulled
// tuples are data messages.
func (n *Network) antiEntropyNode(x *Node) error {
	n.nm.repairRounds.Add(1)
	// x's per-relation fingerprint sets, built lazily and extended as
	// pulls are offered so the same tuple is never pulled twice in one
	// round (even from two neighbors).
	have := map[string]map[uint64]bool{}
	fp := func(pred string) map[uint64]bool {
		m, ok := have[pred]
		if !ok {
			m = map[uint64]bool{}
			if t := x.tables[pred]; t != nil {
				for _, tup := range t.All() {
					if tup != nil { // pinned tables may expose tombstones
						m[tup.Hash64(value.HashSeed)] = true
					}
				}
			}
			have[pred] = m
		}
		return m
	}
	pulls := int64(0)
	for _, nbrID := range n.neighborsOf(x.ID) {
		y := n.nodes[nbrID]
		if y == nil || y.down {
			continue
		}
		preds := make([]string, 0, len(y.tables))
		for pred := range y.tables {
			if t := y.tables[pred]; t != nil && t.Len() > 0 {
				preds = append(preds, pred)
			}
		}
		sort.Strings(preds)
		for _, pred := range preds {
			for _, tup := range y.tables[pred].Snapshot() {
				ds, err := y.fire(pred, tup)
				if err != nil {
					return err
				}
				for _, d := range ds {
					if d.del != nil || d.retract || d.loc != x.ID {
						continue
					}
					m := fp(d.pred)
					h := d.tup.Hash64(value.HashSeed)
					if m[h] {
						continue
					}
					m[h] = true
					pulls++
					n.nm.repairPulls.Add(1)
					n.sendMessageOpts(y.ID, x.ID, d.pred, d.tup, d.cause, true)
				}
			}
		}
	}
	if n.tracer != nil {
		n.tracer.Emit(obs.Event{T: n.now, Kind: obs.EvRepair, Node: x.ID, N: pulls})
	}
	return nil
}

// neighborsOf returns the nodes adjacent to id in the current topology,
// sorted and deduplicated (served from the maintained topology index).
func (n *Network) neighborsOf(id string) []string {
	return n.topoIdx().neighbors(id)
}

// healEndpoints collects the live endpoints of the restored links, sorted
// and deduplicated — the nodes a partition heal schedules repair rounds
// for.
func healEndpoints(n *Network, cut []netgraph.Link) []string {
	seen := map[string]bool{}
	var out []string
	for _, l := range cut {
		for _, id := range []string{l.Src, l.Dst} {
			if seen[id] || n.NodeDown(id) {
				continue
			}
			seen[id] = true
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// BasePreds returns the program's base predicates (those no localized
// rule derives), sorted — the relations checkpoints snapshot.
func (n *Network) BasePreds() []string {
	var out []string
	for pred := range n.an.Arity {
		if !n.derived[pred] {
			out = append(out, pred)
		}
	}
	sort.Strings(out)
	return out
}

// TableDigest returns the order-independent content digest of pred at
// node (0 when absent or empty) — see store.Table.Digest.
func (n *Network) TableDigest(node, pred string) uint64 {
	nd := n.nodes[node]
	if nd == nil {
		return 0
	}
	var t *store.Table
	if t = nd.tables[pred]; t == nil {
		return 0
	}
	return t.Digest()
}
