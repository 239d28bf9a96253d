package dist

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/ndlog"
	"repro/internal/netgraph"
	"repro/internal/obs"
	"repro/internal/prov"
	"repro/internal/store"
	"repro/internal/value"
)

// Node is one network participant: its tables and the localized rules it
// evaluates. A tuple change reaches exactly the rules the localized
// analysis's reader index (ndlog.Readers) lists for its predicate —
// positive and negated plain readers through the shared delta pass
// (store.DeltaPass), aggregate readers through group recomputation
// (pipelined evaluation). The index lives on the analysis (identical at
// every node), so per-node state is just tables plus crash/checkpoint
// bookkeeping — what lets one process hold 10^5..10^6 nodes. Tables are
// store.Table instances — the same storage layer the centralized engine
// uses — and rule bodies run through the compiled join plans of the
// localized program's analysis on the shared plan executor. The per-rule
// maintenance pieces are the engine's too: aggregate groups are found by
// ndlog's RulePlans.AggGroups and folded by store.Aggregate, the DRed
// check is store.Rederivable, and antecedents come from
// Exec.Antecedents. What stays in dist is localization, messaging,
// keyed soft-state tables and the per-tuple retraction cascade.
type Node struct {
	ID  string
	net *Network

	tables map[string]*store.Table

	// Crash state (see Network.CrashNode): down marks the node crashed;
	// epoch counts crashes, so expiry events scheduled by an earlier
	// incarnation are recognized as cancelled; downLinks snapshots the
	// adjacent links at crash time for restoration on restart.
	down      bool
	epoch     int
	downLinks []netgraph.Link

	// Checkpoint state (Options.CheckpointEvery, selfheal.go): the last
	// base-table snapshot and when it was taken. Deliberately NOT wiped
	// by a crash — it models stable storage surviving the process.
	ckpt    []ckptTable
	ckptAt  float64
	hasCkpt bool
}

// derivation is a pending derived tuple.
type derivation struct {
	pred  string
	tup   value.Tuple
	loc   string  // destination node (from the location argument)
	cause prov.ID // the rule firing that produced it (0 when disabled)
	// del marks an explicit delete-rule firing: the rule, nil otherwise.
	// Delete rules retract locally and never cascade through plain
	// readers (matching the centralized engine, where deletes run after
	// the stratum's fixpoint); aggregates over the head do recompute.
	del *ndlog.Rule
	// retract marks a deletion-cascade loss candidate: the tuple may have
	// lost its last support and must be re-checked (and re-derived or
	// removed) at loc — the DRed over-delete propagating through the
	// network.
	retract bool
}

// Table implements store.TableSource for the plan executor: a nil result
// (predicate never materialized at this node) matches nothing.
func (n *Node) Table(pred string) *store.Table { return n.tables[pred] }

// table returns the node's table for pred, creating it on first use from
// the materialize declaration (1-based key columns, soft-state lifetime)
// or, for an undeclared aggregate head, keyed by its group columns.
func (n *Node) table(pred string) *store.Table {
	if t, ok := n.tables[pred]; ok {
		return t
	}
	arity := n.net.an.Arity[pred]
	keys := n.net.aggKeys[pred]
	lifetime := 0.0
	if m, ok := n.net.prog.MaterializedPred(pred); ok {
		for _, k := range m.Keys {
			keys = append(keys, k-1)
		}
		if !m.Lifetime.Infinite {
			lifetime = m.Lifetime.Seconds
		}
	}
	t := store.New(pred, arity, keys, lifetime)
	n.tables[pred] = t
	return t
}

// Tuples returns the current tuples of pred at this node, sorted.
func (n *Node) Tuples(pred string) []value.Tuple {
	t, ok := n.tables[pred]
	if !ok {
		return nil
	}
	return t.Sorted()
}

// insert stores a tuple and returns the downstream derivations it enables.
// The retraction candidates of its negated readers come first (see
// insertQuiet); then it drives plain rules via pipelined semi-naive
// evaluation (the new tuple as delta), recomputes affected aggregate
// groups, and — when a keyed put replaced an old tuple — cascades the old
// tuple's losses after the new tuple's firings (fire-then-losses, so a
// moved value re-derives its consequences before the stale ones are
// questioned).
func (n *Node) insert(pred string, tup value.Tuple, now float64, cause prov.ID) ([]derivation, error) {
	changed, _, old, kills, err := n.insertQuiet(pred, tup, now, cause)
	if err != nil {
		return nil, err
	}
	if !changed && !n.net.refreshFire(n, pred, tup) {
		return nil, nil
	}
	ds, err := n.fire(pred, tup)
	if err != nil {
		return nil, err
	}
	if len(kills) > 0 {
		ds = append(kills, ds...)
	}
	if old != nil && !n.net.opts.ScalarDelete {
		more, err := n.replacedLosses(pred, old, cause)
		if err != nil {
			return nil, err
		}
		ds = append(ds, more...)
	}
	return ds, nil
}

// insertQuiet performs the table update (key replacement, expiry
// scheduling, statistics) without firing rules. It returns whether the
// table changed, the tuple's primary key (so batch delivery can fire
// rules once per surviving key), the old tuple a keyed put replaced (nil
// otherwise — the caller owes the replaced tuple a loss cascade), and
// the derivations the insert kills: the NegDelta plans of pred's negated
// readers, run before the tuple is stored, as retraction candidates.
func (n *Node) insertQuiet(pred string, tup value.Tuple, now float64, cause prov.ID) (bool, string, value.Tuple, []derivation, error) {
	t := n.table(pred)
	if t.Arity == 0 && t.Len() == 0 {
		// A predicate unknown to the rules (externally populated table):
		// adopt the arity of the first tuple.
		t.Arity = len(tup)
	}
	if len(tup) != t.Arity {
		return false, "", nil, nil, fmt.Errorf("dist: %s: %s expects %d columns, got %d", n.ID, pred, t.Arity, len(tup))
	}
	var kills []derivation
	if neg := n.net.an.Readers.Neg[pred]; len(neg) > 0 && !n.net.opts.ScalarDelete && !t.Contains(tup) {
		var err error
		if kills, err = n.runReaders(neg, tup, true, cause); err != nil {
			return false, "", nil, nil, err
		}
	}
	res, old, err := t.Put(tup, now)
	if err != nil {
		return false, "", nil, nil, err
	}
	if res == store.PutNoop {
		return false, "", nil, nil, nil
	}
	if t.Lifetime > 0 {
		n.net.scheduleExpiry(n.ID, pred, tup, now+t.Lifetime)
	}
	key := t.KeyOf(tup)
	var replaced value.Tuple
	if res == store.PutReplace {
		n.net.nm.routeChanges.Add(1)
		n.net.noteFlip(n.ID, pred, key, old, tup)
		// The new version supersedes the old by key replacement; forget
		// the old content version so Current resolves to the live tuple.
		n.net.prov.Drop(n.ID, pred, old)
		replaced = old
	}
	n.net.prov.Tuple(now, n.ID, pred, tup, cause)
	n.net.nm.tupleUpdates.Add(1)
	if n.net.tracer != nil {
		n.net.tracer.Emit(obs.Event{T: now, Kind: obs.EvTupleDerived, Node: n.ID, Pred: pred, Tuple: tup.String()})
	}
	n.net.lastChange = now
	return true, key, replaced, kills, nil
}

// fire evaluates the rules a stored (or refreshed) tup of pred reaches:
// the plain rules reading it positively, through the delta pass, and its
// aggregate readers.
func (n *Node) fire(pred string, tup value.Tuple) ([]derivation, error) {
	out, err := n.runReaders(n.net.an.Readers.Pos[pred], tup, false, 0)
	if err != nil {
		return nil, err
	}
	return n.recomputeAggs(out, pred, tup)
}

// recomputeAggs re-evaluates every aggregate reader of pred for the
// groups a change to tup can affect (RulePlans.AggGroups), recomputing
// every group when they cannot be determined from the tuple alone, and
// appends the results to out.
func (n *Node) recomputeAggs(out []derivation, pred string, tup value.Tuple) ([]derivation, error) {
	for _, r := range n.net.an.Readers.Agg[pred] {
		keys, all := n.net.an.Plans[r].AggGroups(pred, tup, nil)
		if all {
			keys = []value.Tuple{nil} // a nil seed recomputes every group
		}
		for _, key := range keys {
			ds, err := n.evalAggregate(r, key)
			if err != nil {
				return nil, err
			}
			out = append(out, ds...)
		}
	}
	return out, nil
}

// runReaders runs the shared delta pass (store.DeltaPass) of each plain
// reader of a changed tuple. loss says what the heads are: retraction
// candidates (a positive read of a removed tuple, a negated read of an
// inserted one) or, otherwise, derivations (a positive read of a stored
// tuple, a negated read of a removed one). Candidates are the
// over-delete half of DRed: verification work, re-checked wherever they
// land, so they count toward no statistics and skip delete rules, whose
// heads were never derived by them.
func (n *Node) runReaders(rds []ndlog.Reader, tup value.Tuple, loss bool, cause prov.ID) ([]derivation, error) {
	var out []derivation
	for _, rd := range rds {
		r := rd.Rule
		if loss && r.Delete {
			continue
		}
		var ro *distRuleObs // candidates are no firings
		if !loss {
			ro = n.net.ruleObs[r]
		}
		var t0 time.Time
		if ro != nil && ro.eval != nil {
			t0 = time.Now()
		}
		probes, err := n.net.delta.Run(n, rd, n.net.an.Plans[r], n.net.exec, tup, func(x *store.Exec, head value.Tuple) error {
			loc, err := n.headLoc(r, head)
			if err != nil {
				return err
			}
			if loss {
				out = append(out, derivation{pred: r.Head.Pred, tup: head, loc: loc, cause: cause, retract: true})
				return nil
			}
			if r.Delete && loc != n.ID {
				return fmt.Errorf("dist: delete rule %s retracts at remote node %s; only local retractions are supported", r.Label, loc)
			}
			n.net.nm.derivations.Add(1)
			if ro != nil {
				ro.firings.Add(1)
				ro.emitted.Add(1)
			}
			var c prov.ID
			if n.net.prov.Enabled() {
				c = n.net.prov.Rule(n.net.now, n.ID, r.Label, x.Antecedents(n.net.prov, n.ID, &n.net.provAnts))
			}
			d := derivation{pred: r.Head.Pred, tup: head, loc: loc, cause: c}
			if r.Delete {
				d.del = r
			}
			out = append(out, d)
			return nil
		})
		if !loss {
			n.net.nm.joinProbes.Add(probes)
		}
		if ro != nil {
			ro.probes.Add(probes)
			if ro.eval != nil {
				ro.eval.Observe(time.Since(t0))
			}
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// expire removes a soft-state tuple if it has not been refreshed and
// recomputes aggregates that depended on it. Expiry never cascades (see
// the comment at the deletion site): derived soft state has its own
// TTLs and heals by refresh.
func (n *Node) expire(pred string, tup value.Tuple, now float64) ([]derivation, error) {
	t, ok := n.tables[pred]
	if !ok {
		return nil, nil
	}
	k := t.KeyOf(tup)
	cur, exists := t.Get(k)
	if !exists || !cur.Equal(tup) {
		return nil, nil // replaced in the meantime
	}
	if last, ok := t.RefreshAt(k); ok && last+t.Lifetime > now+1e-9 {
		// Refreshed since this expiry was scheduled. Refreshes by identical
		// re-insert do not create new expiry events (the insert is a
		// no-op), so reschedule from the refresh time to keep exactly one
		// live expiry per entry.
		n.net.scheduleExpiry(n.ID, pred, tup, last+t.Lifetime)
		return nil, nil
	}
	// Expiry deliberately does NOT run the DRed loss cascade: soft state
	// ages out on its own TTLs (§4.2), so derived tuples downstream of an
	// expired fact keep their own lifetimes and heal by refresh. The
	// cascade is reserved for explicit retractions (link failures, delete
	// rules, support loss), where waiting for TTLs would leave provably
	// stale state in place.
	t.DeleteByKey(k)
	n.net.nm.expirations.Add(1)
	n.net.prov.Retract(now, n.ID, pred, cur, "expired", 0)
	if n.net.tracer != nil {
		n.net.tracer.Emit(obs.Event{T: now, Kind: obs.EvExpired, Node: n.ID, Pred: pred, Tuple: cur.String()})
	}
	n.net.lastChange = now
	return n.recomputeAggs(nil, pred, cur)
}

// retract removes pred(tup) from the node through the incremental
// deletion path: the tuple is over-deleted, checked for an alternative
// derivation (DRed re-derive; skipped under force — primary deletions
// like link failures are facts, not inferences), and, when truly gone,
// its positive delta-join consequences are emitted as further retraction
// candidates so the loss cascades across rules and nodes, while its
// negated readers derive what it no longer blocks. reason and cause feed
// provenance. Under Options.ScalarDelete the cascade, the revival and
// the re-derivation check are disabled and only aggregates recompute —
// the pre-cascade oracle semantics.
func (n *Node) retract(pred string, tup value.Tuple, force bool, reason string, cause prov.ID) ([]derivation, error) {
	t, ok := n.tables[pred]
	if !ok {
		return nil, nil
	}
	k := t.KeyOf(tup)
	cur, exists := t.Get(k)
	if !exists || !cur.Equal(tup) {
		return nil, nil // already gone or superseded: nothing to retract
	}
	// Loss candidates against the pre-deletion state (self-joins over
	// pred still see the dying tuple).
	var losses []derivation
	if !n.net.opts.ScalarDelete {
		var err error
		losses, err = n.runReaders(n.net.an.Readers.Pos[pred], tup, true, cause)
		if err != nil {
			return nil, err
		}
	}
	t.DeleteByKey(k)
	if !force && !n.net.opts.ScalarDelete {
		ok, err := n.rederive(pred, tup)
		if err != nil {
			return nil, err
		}
		if ok {
			// Alternative support exists: restore the tuple (it never
			// observably left) and drop the cascade.
			if _, _, err := t.Put(tup, n.net.now); err != nil {
				return nil, err
			}
			return nil, nil
		}
	}
	n.net.nm.retractions.Add(1)
	n.net.prov.Retract(n.net.now, n.ID, pred, tup, reason, cause)
	if n.net.tracer != nil {
		n.net.tracer.Emit(obs.Event{T: n.net.now, Kind: obs.EvRetracted, Node: n.ID, Pred: pred, Tuple: tup.String()})
	}
	n.net.lastChange = n.net.now
	var out []derivation
	if !n.net.opts.ScalarDelete {
		var err error
		if out, err = n.runReaders(n.net.an.Readers.Neg[pred], tup, false, 0); err != nil {
			return nil, err
		}
	}
	out, err := n.recomputeAggs(out, pred, tup)
	if err != nil {
		return nil, err
	}
	return append(out, losses...), nil
}

// rederive checks whether pred(tup) still has a derivation from the
// node's current state, trying every rule that can head the predicate
// locally via its head-seeded plan (store.Rederivable). A surviving
// witness re-records the tuple's provenance under the rule's
// "/rederive" label — mirroring the engine's DRed re-derivation pass.
func (n *Node) rederive(pred string, tup value.Tuple) (bool, error) {
	for _, r := range n.net.an.Readers.Head[pred] {
		loc, err := n.headLoc(r, tup)
		if err != nil || loc != n.ID {
			continue // this rule derives the tuple at another node
		}
		rp := n.net.an.Plans[r]
		ok, err := store.Rederivable(n.net.exec(rp.HeadSeeded), n, rp.HeadSeedCols, tup, nil)
		if err != nil {
			return false, err
		}
		if ok {
			if n.net.prov.Enabled() {
				cause := n.net.prov.Rule(n.net.now, n.ID, r.Label+"/rederive", nil)
				n.net.prov.Tuple(n.net.now, n.ID, pred, tup, cause)
			}
			return true, nil
		}
	}
	return false, nil
}

// lost returns what the removal of tup from pred, already made, owes
// pred's plain readers: retraction candidates from the positive ones
// (cause feeds their provenance), then the derivations the negated ones
// revive.
func (n *Node) lost(pred string, tup value.Tuple, cause prov.ID) ([]derivation, error) {
	out, err := n.runReaders(n.net.an.Readers.Pos[pred], tup, true, cause)
	if err != nil {
		return nil, err
	}
	revived, err := n.runReaders(n.net.an.Readers.Neg[pred], tup, false, 0)
	if err != nil {
		return nil, err
	}
	return append(out, revived...), nil
}

// replacedLosses cascades the disappearance of a key-replaced old tuple:
// what its plain readers lose or revive, then its old aggregate groups
// (the new tuple's groups were already covered when the replacement
// fired).
func (n *Node) replacedLosses(pred string, old value.Tuple, cause prov.ID) ([]derivation, error) {
	out, err := n.lost(pred, old, cause)
	if err != nil {
		return nil, err
	}
	return n.recomputeAggs(out, pred, old)
}

// retractDerived applies a delete-rule firing: remove the exact tuple
// and recompute aggregates over the head predicate, exactly as expiry
// does. Plain readers do not re-fire — a retraction cascading through
// positive rules would diverge from the stratified engine, where delete
// rules run only after their stratum's fixpoint.
func (n *Node) retractDerived(r *ndlog.Rule, pred string, tup value.Tuple) ([]derivation, error) {
	t, ok := n.tables[pred]
	if !ok || !t.Delete(tup) {
		return nil, nil // already gone, or never derived
	}
	n.net.prov.Retract(n.net.now, n.ID, pred, tup, "delete_rule "+r.Label, 0)
	if n.net.tracer != nil {
		n.net.tracer.Emit(obs.Event{T: n.net.now, Kind: obs.EvExpired, Node: n.ID, Pred: pred, Tuple: tup.String()})
	}
	n.net.lastChange = n.net.now
	return n.recomputeAggs(nil, pred, tup)
}

// evalAggregate recomputes an aggregate rule on the shared kernel
// (store.Aggregate) and emits the per-group results. A non-nil seed
// holds the values of the Seeded plan's SeedVars, restricting the pass
// to that one group; a seeded recompute that finds the group empty
// deletes the stale aggregate tuple locally. Emitting into a keyed table
// makes the recompute idempotent: unchanged groups are no-ops. Groups are
// emitted in first-seen order, which is deterministic under the seeded
// scan shuffle.
func (n *Node) evalAggregate(r *ndlog.Rule, seed value.Tuple) ([]derivation, error) {
	ro := n.net.ruleObs[r]
	if ro != nil && ro.eval != nil {
		defer func(t0 time.Time) { ro.eval.Observe(time.Since(t0)) }(time.Now())
	}
	rp := n.net.an.Plans[r]
	plan := rp.Full
	if seed != nil {
		plan = rp.Seeded
	}
	x := n.net.exec(plan)
	groups, err := store.Aggregate(x, n, seed, n.net.prov, n.ID)
	n.net.nm.joinProbes.Add(x.Probes())
	if ro != nil {
		ro.probes.Add(x.Probes())
	}
	if err != nil {
		return nil, err
	}
	if seed != nil && len(groups) == 0 {
		return n.retractAggGroup(r, seed)
	}
	out := make([]derivation, 0, len(groups))
	for _, g := range groups {
		loc, err := n.headLoc(r, g.Out)
		if err != nil {
			return nil, err
		}
		n.net.nm.derivations.Add(1)
		if ro != nil {
			ro.firings.Add(1)
			ro.emitted.Add(1)
		}
		var cause prov.ID
		if n.net.prov.Enabled() {
			cause = n.net.prov.Rule(n.net.now, n.ID, r.Label, g.Ants)
		}
		out = append(out, derivation{pred: r.Head.Pred, tup: g.Out, loc: loc, cause: cause})
	}
	return out, nil
}

func (n *Node) headLoc(r *ndlog.Rule, tup value.Tuple) (string, error) {
	if r.Head.Loc < 0 {
		return n.ID, nil // location-free: store locally
	}
	v := tup[r.Head.Loc]
	if v.K != value.KindAddr {
		return "", fmt.Errorf("dist: rule %s: head location argument %v is not an address", r.Label, v)
	}
	return v.S, nil
}

// retractAggGroup removes the stale aggregate tuple of the group seed
// names (values of the Seeded plan's SeedVars) and cascades its
// downstream losses. The head table's key columns are group columns
// (NewNetwork rejects a key on the aggregate column), so seed determines
// the key; a whole-tuple key cannot name the stale tuple without its
// value, and the tuple stays.
func (n *Node) retractAggGroup(r *ndlog.Rule, seed value.Tuple) ([]derivation, error) {
	t := n.table(r.Head.Pred)
	if len(t.Keys) == 0 {
		return nil, nil
	}
	seedVars := n.net.an.Plans[r].Seeded.SeedVars
	sub := make(value.Tuple, len(t.Keys))
	for i, c := range t.Keys {
		sub[i] = seed[slices.Index(seedVars, r.Head.Args[c].(ndlog.VarE).Name)]
	}
	old, ok := t.DeleteByKey(sub.Key())
	if !ok {
		return nil, nil
	}
	n.net.nm.expirations.Add(1)
	n.net.prov.Retract(n.net.now, n.ID, r.Head.Pred, old, "agg_empty", 0)
	if n.net.tracer != nil {
		n.net.tracer.Emit(obs.Event{T: n.net.now, Kind: obs.EvExpired, Node: n.ID, Pred: r.Head.Pred})
	}
	n.net.lastChange = n.net.now
	if n.net.opts.ScalarDelete {
		return nil, nil
	}
	return n.lost(r.Head.Pred, old, 0)
}
