package datalog

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/ndlog"
	"repro/internal/prov"
	"repro/internal/store"
	"repro/internal/value"
)

// This file implements incremental view maintenance: Update applies a
// batch of base-table changes and repairs the derived fixpoint without
// re-running the program. Non-recursive strata are maintained by the
// counting algorithm (per-derived-tuple support counts on the store);
// recursive strata by DRed (over-delete the transitive consequences, then
// re-derive what alternative derivations still support). The full
// recomputation path (apply changes + Run) is retained as the
// differential oracle behind the ScalarDelete toggle.

// Change is one base-table mutation handed to Update.
type Change struct {
	Pred string
	Tup  value.Tuple
	Del  bool
}

// predKind classifies how a predicate is maintained incrementally.
type predKind uint8

const (
	kBase      predKind = iota // extensional: changed only from outside
	kCounting                  // derived, non-recursive stratum: support counts
	kRecursive                 // derived, recursive stratum: DRed
	kAgg                       // derived by exactly one aggregate rule
)

// chg is an internal change record: the mutation plus the provenance to
// attach when it commits.
type chg struct {
	Change
	cause  prov.ID // insert: derivation cause
	reason string  // delete: retraction reason
}

// aggDirt accumulates the groups of one aggregate rule invalidated by the
// current update (all=true: recompute every group).
type aggDirt struct {
	all    bool
	groups map[string]value.Tuple
}

// ivmState is the engine's incremental-maintenance machinery, built
// lazily on first Update.
type ivmState struct {
	static   bool   // predicate classes built
	ready    bool   // support counts + aggregate outputs match the fixpoint
	fallback string // non-empty: program shape forces full recomputation

	kind       map[string]predKind
	aggStratum [][]*ndlog.Rule // aggregate rules by head stratum

	// Change queue, one FIFO per stratum, drained lowest stratum first.
	queue [][]chg
	qhead []int
	// DRed over-delete buffers, one per recursive stratum. A tuple may
	// be buffered more than once; resolveRec skips the repeats, which
	// are no longer stored by then.
	recDel [][]chg

	aggDirty map[*ndlog.Rule]*aggDirt
	aggOut   map[*ndlog.Rule]map[string]store.AggGroup // by aggKey
	aggMatch ndlog.AggScratch
	keyBuf   []byte // group-key encoding scratch

	delta store.DeltaPass
}

// ivmStatic classifies the predicates once per engine and decides
// whether the program shape supports incremental maintenance. Which
// rules a change reaches comes from the analysis (ndlog.Readers).
func (e *Engine) ivmStatic() *ivmState {
	s := &e.ivm
	if s.static {
		return s
	}
	s.static = true
	an := e.An
	ns := len(an.Strata)

	// Per-predicate recursion (Readers.Rec) picks DRed over counting, and
	// an aggregate head on a cycle has no incremental discipline.
	rec := an.Readers.Rec
	heads := map[string]int{}
	aggRules := map[string]int{}
	s.aggStratum = make([][]*ndlog.Rule, ns)
	for _, r := range an.Prog.Rules {
		if r.Delete {
			s.fallback = "program has delete rules"
			continue
		}
		heads[r.Head.Pred]++
		if _, aggIdx := r.Head.HeadAgg(); aggIdx >= 0 {
			aggRules[r.Head.Pred]++
			st := an.StratumOf[r.Head.Pred]
			s.aggStratum[st] = append(s.aggStratum[st], r)
			if rec[r.Head.Pred] {
				s.fallback = "aggregate head in a recursive cycle"
			}
		}
	}
	for pred, n := range aggRules {
		if n > 1 || heads[pred] > n {
			s.fallback = "aggregated predicate derived by multiple rules"
		}
	}

	s.kind = map[string]predKind{}
	for pred := range an.Arity {
		switch {
		case an.Base[pred]:
			s.kind[pred] = kBase
		case aggRules[pred] > 0:
			s.kind[pred] = kAgg
		case rec[pred]:
			s.kind[pred] = kRecursive
		default:
			s.kind[pred] = kCounting
		}
	}

	s.queue = make([][]chg, ns)
	s.qhead = make([]int, ns)
	s.recDel = make([][]chg, ns)
	s.aggDirty = map[*ndlog.Rule]*aggDirt{}
	s.aggOut = map[*ndlog.Rule]map[string]store.AggGroup{}
	return s
}

// ensureReady initializes the support counts of every counting-maintained
// relation (one full-plan pass per rule: a full plan emits each body
// assignment exactly once, so the count equals the number of derivations)
// and snapshots every aggregate rule's group outputs. Runs against a
// fixpoint state; invalidated by Run.
func (e *Engine) ensureReady(c *evalCtx) error {
	s := &e.ivm
	if s.ready {
		return nil
	}
	var counting []string
	for pred, k := range s.kind {
		if k == kCounting {
			counting = append(counting, pred)
		}
	}
	sort.Strings(counting)
	for _, pred := range counting {
		e.rels[pred].ResetSupport()
	}
	for _, r := range e.An.Prog.Rules {
		if r.Delete || s.kind[r.Head.Pred] != kCounting {
			continue
		}
		plan := e.An.Plans[r].Full
		x := e.exec(c, plan)
		rel := e.rels[r.Head.Pred]
		head := make(value.Tuple, len(plan.HeadExprs))
		probes, err := x.Run(e, nil, nil, func([]value.V) error {
			if err := plan.BuildHead(x.Env(), head); err != nil {
				return err
			}
			rel.AddSupport(head)
			return nil
		})
		c.stats.JoinProbes += int(probes)
		if err != nil {
			return err
		}
	}
	for _, r := range e.An.Prog.Rules {
		if r.Delete {
			continue
		}
		if _, aggIdx := r.Head.HeadAgg(); aggIdx < 0 {
			continue
		}
		out, err := e.aggOutputs(c, r)
		if err != nil {
			return err
		}
		s.aggOut[r] = out
	}
	s.ready = true
	return nil
}

// Update applies a batch of base-table changes and incrementally repairs
// every derived relation to the fixpoint of the new base state. The
// result is identical to applying the changes and calling Run, but the
// work is proportional to the consequences of the changes. Falls back to
// full recomputation when the program shape requires it (delete rules,
// shared aggregate heads), when ScalarDelete selects the oracle path, or
// when no fixpoint exists yet to maintain.
func (e *Engine) Update(changes []Change) error {
	s := e.ivmStatic()
	reason := ""
	switch {
	case e.ScalarDelete:
		reason = "scalar-delete oracle"
	case s.fallback != "":
		reason = s.fallback
	case !e.ranOnce || e.baseDirty:
		reason = "no maintained fixpoint"
	default:
		for _, ch := range changes {
			if !e.An.Base[ch.Pred] {
				reason = "change to non-base predicate"
				break
			}
		}
	}
	if reason != "" {
		for _, ch := range changes {
			if ch.Del {
				e.DeleteBase(ch.Pred, ch.Tup)
			} else if err := e.Insert(ch.Pred, ch.Tup); err != nil {
				return err
			}
		}
		return e.Run()
	}
	c := &evalCtx{execs: e.execs, stats: &e.Stats}
	if err := e.ensureReady(c); err != nil {
		return err
	}
	for _, ch := range changes {
		e.push(chg{Change: ch, reason: "delete_base"})
	}
	return e.drain(c)
}

// push enqueues a change at its predicate's stratum.
func (e *Engine) push(ch chg) {
	st := e.An.StratumOf[ch.Pred]
	e.ivm.queue[st] = append(e.ivm.queue[st], ch)
}

// drain processes pending work lowest stratum first: aggregate rules of
// the stratum (their inputs, strictly lower, are final), then queued
// per-tuple changes, then the stratum's DRed buffer. Work produced at a
// stratum lands at the same or a higher stratum, so the sweep is
// monotone within one pass and loops until everything settles.
func (e *Engine) drain(c *evalCtx) error {
	s := &e.ivm
	for {
		st := -1
		for i := range s.queue {
			if s.qhead[i] < len(s.queue[i]) || len(s.recDel[i]) > 0 || e.aggDirtyAt(i) {
				st = i
				break
			}
		}
		if st < 0 {
			for i := range s.queue {
				s.queue[i] = s.queue[i][:0]
				s.qhead[i] = 0
			}
			return nil
		}
		if e.aggDirtyAt(st) {
			if err := e.resolveAggs(c, st); err != nil {
				return err
			}
			continue
		}
		if s.qhead[st] < len(s.queue[st]) {
			ch := s.queue[st][s.qhead[st]]
			s.qhead[st]++
			if err := e.applyChange(c, ch); err != nil {
				return err
			}
			continue
		}
		if err := e.resolveRec(c, st); err != nil {
			return err
		}
	}
}

func (e *Engine) aggDirtyAt(st int) bool {
	for _, r := range e.ivm.aggStratum[st] {
		if e.ivm.aggDirty[r] != nil {
			return true
		}
	}
	return false
}

// applyChange commits one tuple change under the exact-maintenance
// protocol. Insert: the derivations an insert kills through negation are
// enumerated against the pre-state (NegDelta, before the tuple is
// stored), the derivations it creates against the post-state (Delta,
// after). Delete: symmetric — lost derivations against the pre-state
// (tuple still present), revived negations against the post-state.
// Counting-maintained changes commit only while consistent with the
// current support count, which makes superseded queue entries no-ops.
func (e *Engine) applyChange(c *evalCtx, ch chg) error {
	rel := e.rels[ch.Pred]
	if rel == nil {
		return fmt.Errorf("datalog: update of unknown predicate %s", ch.Pred)
	}
	k := e.ivm.kind[ch.Pred]
	if ch.Del {
		if !rel.Contains(ch.Tup) {
			return nil
		}
		if k == kCounting && rel.SupportCount(ch.Tup) != 0 {
			return nil
		}
		if err := e.runReaders(c, e.An.Readers.Pos[ch.Pred], ch.Tup, true); err != nil {
			return err
		}
		rel.Delete(ch.Tup)
		e.prov.Retract(0, "", ch.Pred, ch.Tup, ch.reason, 0)
		if err := e.runReaders(c, e.An.Readers.Neg[ch.Pred], ch.Tup, false); err != nil {
			return err
		}
		e.markAggDirty(ch.Pred, ch.Tup, ch.Del)
		return nil
	}
	if rel.Contains(ch.Tup) {
		return nil
	}
	if k == kCounting && rel.SupportCount(ch.Tup) == 0 {
		return nil
	}
	if err := e.runReaders(c, e.An.Readers.Neg[ch.Pred], ch.Tup, true); err != nil {
		return err
	}
	if _, err := rel.Insert(ch.Tup); err != nil {
		return err
	}
	c.stats.NewTuples++
	e.prov.Tuple(0, "", ch.Pred, ch.Tup, ch.cause)
	if err := e.runReaders(c, e.An.Readers.Pos[ch.Pred], ch.Tup, false); err != nil {
		return err
	}
	e.markAggDirty(ch.Pred, ch.Tup, ch.Del)
	return nil
}

// runReaders runs the shared delta pass (store.DeltaPass) of every
// plain reader of the changed tuple and routes each derived head to its
// maintenance effect.
func (e *Engine) runReaders(c *evalCtx, rds []ndlog.Reader, tup value.Tuple, loss bool) error {
	exec := func(p *ndlog.Plan) *store.Exec { return e.exec(c, p) }
	for _, rd := range rds {
		probes, err := e.ivm.delta.Run(e, rd, e.An.Plans[rd.Rule], exec, tup, func(x *store.Exec, head value.Tuple) error {
			c.stats.Derivations++
			e.headEffect(rd.Rule, x, head, loss)
			return nil
		})
		c.stats.JoinProbes += int(probes)
		if err != nil {
			return err
		}
	}
	return nil
}

// headEffect applies one gained or lost derivation of head to its
// predicate's maintenance discipline.
func (e *Engine) headEffect(r *ndlog.Rule, x *store.Exec, head value.Tuple, loss bool) {
	pred := r.Head.Pred
	rel := e.rels[pred]
	switch e.ivm.kind[pred] {
	case kCounting:
		if loss {
			if rel.DropSupport(head) == 0 {
				e.push(chg{Change: Change{Pred: pred, Tup: head, Del: true}, reason: "support_zero"})
			}
			return
		}
		if rel.AddSupport(head) == 1 {
			var cause prov.ID
			if e.prov.Enabled() {
				cause = e.prov.Rule(0, "", r.Label, x.Antecedents(e.prov, "", &e.provAnts))
			}
			e.push(chg{Change: Change{Pred: pred, Tup: head}, cause: cause})
		}
	case kRecursive:
		if loss {
			// Buffered even when not stored: an insert of head may
			// still be queued and land before DRed runs.
			st := e.An.StratumOf[pred]
			e.ivm.recDel[st] = append(e.ivm.recDel[st], chg{Change: Change{Pred: pred, Tup: head, Del: true}})
			return
		}
		if !rel.Contains(head) {
			var cause prov.ID
			if e.prov.Enabled() {
				cause = e.prov.Rule(0, "", r.Label, x.Antecedents(e.prov, "", &e.provAnts))
			}
			e.push(chg{Change: Change{Pred: pred, Tup: head}, cause: cause})
		}
	}
}

// resolveRec runs DRed for one recursive stratum: over-delete the
// buffered candidates and their in-stratum consequences to fixpoint
// (losses enumerated while each tuple is still present), then try to
// re-derive each deleted tuple from the surviving state; tuples with an
// alternative derivation re-enter through the normal insert protocol
// under a "/rederive" provenance label.
func (e *Engine) resolveRec(c *evalCtx, st int) error {
	s := &e.ivm
	var overDel []chg
	for i := 0; i < len(s.recDel[st]); i++ {
		ch := s.recDel[st][i]
		rel := e.rels[ch.Pred]
		if !rel.Contains(ch.Tup) {
			continue
		}
		if err := e.runReaders(c, e.An.Readers.Pos[ch.Pred], ch.Tup, true); err != nil {
			return err
		}
		rel.Delete(ch.Tup)
		e.prov.Retract(0, "", ch.Pred, ch.Tup, "overdelete", 0)
		if err := e.runReaders(c, e.An.Readers.Neg[ch.Pred], ch.Tup, false); err != nil {
			return err
		}
		e.markAggDirty(ch.Pred, ch.Tup, ch.Del)
		overDel = append(overDel, ch)
	}
	s.recDel[st] = s.recDel[st][:0]
	for _, ch := range overDel {
		if e.rels[ch.Pred].Contains(ch.Tup) {
			continue
		}
		for _, r := range e.An.Readers.Head[ch.Pred] {
			rp := e.An.Plans[r]
			x := e.exec(c, rp.HeadSeeded)
			var witness func() // keeps the witnessing firing's antecedents
			if e.prov.Enabled() {
				witness = func() { x.Antecedents(e.prov, "", &e.provAnts) }
			}
			ok, err := store.Rederivable(x, e, rp.HeadSeedCols, ch.Tup, witness)
			c.stats.JoinProbes += int(x.Probes())
			if err != nil {
				return err
			}
			if ok {
				var cause prov.ID
				if e.prov.Enabled() {
					cause = e.prov.Rule(0, "", r.Label+"/rederive", e.provAnts)
				}
				ins := chg{Change: Change{Pred: ch.Pred, Tup: ch.Tup}, cause: cause}
				if err := e.applyChange(c, ins); err != nil {
					return err
				}
				break
			}
		}
	}
	return nil
}

// markAggDirty invalidates the aggregate groups a changed tuple can
// reach (RulePlans.AggGroups): a match that names its group dirties
// exactly that group, anything less dirties the whole rule. For min/max
// rules a matched change whose contribution cannot displace the group's
// current output (a deleted non-witness, an inserted non-improvement) is
// pruned without recompute — the bulk of a deletion cascade's touched
// groups.
func (e *Engine) markAggDirty(pred string, tup value.Tuple, loss bool) {
	s := &e.ivm
	for _, r := range e.An.Readers.Agg[pred] {
		d := s.aggDirty[r]
		if d != nil && d.all {
			continue
		}
		rp := e.An.Plans[r]
		keys, all := rp.AggGroups(&s.aggMatch, pred, tup, func(key value.Tuple, contrib value.V, ok bool) bool {
			return !ok || !e.aggChangeIrrelevant(r, rp, key, contrib, loss)
		})
		if all {
			e.setAggDirtyAll(r)
			continue
		}
		if len(keys) == 0 {
			continue
		}
		if d == nil {
			d = &aggDirt{groups: map[string]value.Tuple{}}
			s.aggDirty[r] = d
		}
		for _, key := range keys {
			s.keyBuf = key.AppendKey(s.keyBuf[:0])
			if _, ok := d.groups[string(s.keyBuf)]; !ok {
				d.groups[string(s.keyBuf)] = slices.Clone(key)
			}
		}
	}
}

// aggChangeIrrelevant reports whether a single matched change, which
// contributes contrib to the group key names, provably leaves a min/max
// group's output untouched: the group has a known current output, and
// the contribution is strictly on the wrong side of it (for a loss, also
// not equal — deleting the witness needs a recompute even when a tie
// would reproduce it).
func (e *Engine) aggChangeIrrelevant(r *ndlog.Rule, rp *ndlog.RulePlans, key value.Tuple, contrib value.V, loss bool) bool {
	kind := rp.Seeded.AggKind
	if kind != "min" && kind != "max" {
		return false
	}
	e.ivm.keyBuf = key.AppendKey(e.ivm.keyBuf[:0])
	cur, ok := e.ivm.aggOut[r][string(e.ivm.keyBuf)]
	if !ok {
		return false
	}
	c := contrib.Compare(cur.Out[rp.Seeded.AggIdx])
	if kind == "max" {
		c = -c
	}
	// c > 0: contribution is worse than the current output. A deleted
	// non-witness or an inserted non-improvement cannot move a min/max.
	// An insert equal to the output reproduces the same head tuple.
	return c > 0 || (!loss && c == 0)
}

func (e *Engine) setAggDirtyAll(r *ndlog.Rule) {
	d := e.ivm.aggDirty[r]
	if d == nil {
		d = &aggDirt{}
		e.ivm.aggDirty[r] = d
	}
	d.all = true
}

// resolveAggs recomputes the dirty aggregate rules of one stratum and
// pushes the output differences as ordinary changes (delete of the
// superseded group output first, then the new one).
func (e *Engine) resolveAggs(c *evalCtx, st int) error {
	s := &e.ivm
	for _, r := range s.aggStratum[st] {
		d := s.aggDirty[r]
		if d == nil {
			continue
		}
		delete(s.aggDirty, r)
		old := s.aggOut[r]
		if old == nil {
			old = map[string]store.AggGroup{}
			s.aggOut[r] = old
		}
		if d.all {
			newOut, err := e.aggOutputs(c, r)
			if err != nil {
				return err
			}
			keys := make([]string, 0, len(old)+len(newOut))
			for k := range old {
				keys = append(keys, k)
			}
			for k := range newOut {
				if _, ok := old[k]; !ok {
					keys = append(keys, k)
				}
			}
			sort.Strings(keys)
			for _, k := range keys {
				e.pushAggDiff(r, old, newOut, k)
			}
			s.aggOut[r] = newOut
			continue
		}
		keys := make([]string, 0, len(d.groups))
		for k := range d.groups {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			groups, err := e.aggPass(c, r, d.groups[k])
			if err != nil {
				return err
			}
			newOut := map[string]store.AggGroup{}
			if len(groups) > 0 { // a seeded pass yields at most one group
				newOut[k] = groups[0]
			}
			e.pushAggDiff(r, old, newOut, k)
			if len(groups) > 0 {
				old[k] = groups[0]
			} else {
				delete(old, k)
			}
		}
	}
	return nil
}

// pushAggDiff queues the delete/insert pair that moves group k of rule r
// from its old output to its new one.
func (e *Engine) pushAggDiff(r *ndlog.Rule, old, newOut map[string]store.AggGroup, k string) {
	o, oOk := old[k]
	n, nOk := newOut[k]
	if oOk && nOk && o.Out.Equal(n.Out) {
		return
	}
	if oOk {
		e.push(chg{Change: Change{Pred: r.Head.Pred, Tup: o.Out, Del: true}, reason: "agg_update"})
	}
	if nOk {
		var cause prov.ID
		if e.prov.Enabled() {
			cause = e.prov.Rule(0, "", r.Label, n.Ants)
		}
		e.push(chg{Change: Change{Pred: r.Head.Pred, Tup: n.Out}, cause: cause})
	}
}

// aggPass runs one pass of aggregate rule r on the shared kernel
// (store.Aggregate): every group over the Full plan when seed is nil, the
// one group seed names over the Seeded plan otherwise.
func (e *Engine) aggPass(c *evalCtx, r *ndlog.Rule, seed value.Tuple) ([]store.AggGroup, error) {
	plan := e.An.Plans[r].Full
	if seed != nil {
		plan = e.An.Plans[r].Seeded
	}
	x := e.exec(c, plan)
	groups, err := store.Aggregate(x, e, seed, e.prov, "")
	c.stats.JoinProbes += int(x.Probes())
	c.stats.Derivations += len(groups)
	return groups, err
}

// aggOutputs runs r's full pass and keys each group by aggKey, the key
// markAggDirty derives from a changed tuple.
func (e *Engine) aggOutputs(c *evalCtx, r *ndlog.Rule) (map[string]store.AggGroup, error) {
	groups, err := e.aggPass(c, r, nil)
	if err != nil {
		return nil, err
	}
	rp := e.An.Plans[r]
	out := make(map[string]store.AggGroup, len(groups))
	for _, g := range groups {
		out[aggKey(rp, g.Out).Key()] = g
	}
	return out, nil
}

// aggKey is the group key of an aggregate output tuple: its SeedVars
// values when the rule has a Seeded plan (all its group columns are then
// plain variables), otherwise its non-aggregate head values.
func aggKey(rp *ndlog.RulePlans, out value.Tuple) value.Tuple {
	if rp.Seeded == nil {
		return groupValues(rp.Full, out)
	}
	head := rp.Full.Rule.Head.Args
	key := make(value.Tuple, len(rp.Seeded.SeedVars))
	for i, v := range rp.Seeded.SeedVars {
		for col, arg := range head {
			if a, ok := arg.(ndlog.VarE); ok && a.Name == v {
				key[i] = out[col]
				break
			}
		}
	}
	return key
}

// groupValues returns the non-aggregate head values of an aggregate
// plan's output tuple.
func groupValues(p *ndlog.Plan, out value.Tuple) value.Tuple {
	return slices.Delete(slices.Clone(out), p.AggIdx, p.AggIdx+1)
}
