package datalog

import (
	"fmt"

	"repro/internal/ndlog"
	"repro/internal/prov"
	"repro/internal/store"
	"repro/internal/value"
)

// Aggregate recomputation for incremental maintenance. Group outputs are
// diffed against the snapshot in ivmState.aggOut, so only the groups that
// actually changed propagate. The group key is the rule's seed-variable
// binding when a seeded plan exists (enabling single-group recomputes),
// otherwise the evaluated non-aggregate head values.

// aggFold accumulates one group during an aggregate pass.
type aggFold struct {
	key  value.Tuple
	best value.V
	n    int64
	ants []prov.ID
}

// foldAgg folds one aggregated value into g per the rule's aggregate kind.
func foldAgg(plan *ndlog.Plan, g *aggFold, av value.V, label string) error {
	if g.n == 1 {
		if plan.AggKind == "sum" && av.K != value.KindInt {
			return fmt.Errorf("datalog: rule %s: sum over non-integer", label)
		}
		g.best = av
		return nil
	}
	switch plan.AggKind {
	case "min":
		if av.Compare(g.best) < 0 {
			g.best = av
		}
	case "max":
		if av.Compare(g.best) > 0 {
			g.best = av
		}
	case "sum":
		if av.K != value.KindInt || g.best.K != value.KindInt {
			return fmt.Errorf("datalog: rule %s: sum over non-integer", label)
		}
		g.best = value.Int(g.best.I + av.I)
	}
	return nil
}

// aggHeadOut builds the rule's output tuple for one group from the group
// key and the folded aggregate. seedIdx maps head columns to key indices
// for seeded keying; a nil seedIdx reads the key sequentially (head-order
// keying).
func aggHeadOut(r *ndlog.Rule, plan *ndlog.Plan, key value.Tuple, seedIdx []int, g *aggFold) value.Tuple {
	out := make(value.Tuple, len(r.Head.Args))
	gi := 0
	for i := range r.Head.Args {
		if i == plan.AggIdx {
			if plan.AggKind == "count" {
				out[i] = value.Int(g.n)
			} else {
				out[i] = g.best
			}
			continue
		}
		if seedIdx != nil {
			out[i] = key[seedIdx[i]]
		} else {
			out[i] = key[gi]
		}
		gi++
	}
	return out
}

// aggSeedIdx maps each non-aggregate head column of a seeded aggregate
// rule to the index of its variable in the seeded plan's SeedVars.
func aggSeedIdx(r *ndlog.Rule, rp *ndlog.RulePlans) []int {
	idx := make([]int, len(r.Head.Args))
	for i, arg := range r.Head.Args {
		idx[i] = -1
		v, ok := arg.(ndlog.VarE)
		if !ok {
			continue
		}
		for si, sv := range rp.Seeded.SeedVars {
			if sv == v.Name {
				idx[i] = si
				break
			}
		}
	}
	return idx
}

// collectAggAnts appends the current antecedent tuple versions of the
// running plan to g.ants, deduplicated and capped like evalAggregate.
func (e *Engine) collectAggAnts(plan *ndlog.Plan, x *store.Exec, g *aggFold) {
	const maxAggAnts = 16
	if !e.prov.Enabled() || len(g.ants) >= maxAggAnts {
		return
	}
next:
	for _, si := range plan.AntSteps {
		st := &plan.Steps[si]
		id := e.prov.Current("", st.Pred, x.CurTuple(si))
		if id == 0 {
			continue
		}
		for _, have := range g.ants {
			if have == id {
				continue next
			}
		}
		g.ants = append(g.ants, id)
		if len(g.ants) >= maxAggAnts {
			return
		}
	}
}

// computeAggGroups evaluates an aggregate rule's full plan and returns
// every group's output keyed consistently with the incremental group
// path.
func (e *Engine) computeAggGroups(c *evalCtx, r *ndlog.Rule) (map[string]aggOutVal, error) {
	rp := e.An.Plans[r]
	plan := rp.Full
	if plan.AggIdx < 0 {
		return nil, fmt.Errorf("datalog: rule %s is not an aggregate rule", r.Label)
	}
	x := e.exec(c, plan)

	var seedSlots []int
	if rp.Seeded != nil {
		for _, v := range rp.Seeded.SeedVars {
			seedSlots = append(seedSlots, plan.SlotOf[v])
		}
	}
	groups := map[string]*aggFold{}
	probes, err := x.Run(e, nil, nil, func(frame []value.V) error {
		var key value.Tuple
		if seedSlots != nil {
			key = make(value.Tuple, len(seedSlots))
			for i, s := range seedSlots {
				key[i] = frame[s]
			}
		} else {
			key = make(value.Tuple, 0, len(plan.HeadExprs)-1)
			for i, ce := range plan.HeadExprs {
				if i == plan.AggIdx {
					continue
				}
				v, err := ce.Eval(x.Env())
				if err != nil {
					return err
				}
				key = append(key, v)
			}
		}
		var av value.V
		if plan.AggSlot >= 0 {
			av = frame[plan.AggSlot]
		}
		k := key.Key()
		g, ok := groups[k]
		if !ok {
			g = &aggFold{key: key, n: 1}
			groups[k] = g
		} else {
			g.n++
		}
		e.collectAggAnts(plan, x, g)
		return foldAgg(plan, g, av, r.Label)
	})
	c.stats.JoinProbes += int(probes)
	if err != nil {
		return nil, err
	}
	var seedIdx []int
	if rp.Seeded != nil {
		seedIdx = aggSeedIdx(r, rp)
	}
	out := make(map[string]aggOutVal, len(groups))
	for k, g := range groups {
		c.stats.Derivations++
		out[k] = aggOutVal{out: aggHeadOut(r, plan, g.key, seedIdx, g), ants: g.ants}
	}
	return out, nil
}

// computeAggGroup recomputes a single group of a seeded aggregate rule.
// ok is false when the group has no remaining contributions.
func (e *Engine) computeAggGroup(c *evalCtx, r *ndlog.Rule, key value.Tuple) (aggOutVal, bool, error) {
	rp := e.An.Plans[r]
	plan := rp.Seeded
	x := e.exec(c, plan)
	g := &aggFold{key: key}
	seed := make([]value.V, len(key))
	copy(seed, key)
	probes, err := x.Run(e, nil, seed, func(frame []value.V) error {
		var av value.V
		if plan.AggSlot >= 0 {
			av = frame[plan.AggSlot]
		}
		g.n++
		e.collectAggAnts(plan, x, g)
		return foldAgg(plan, g, av, r.Label)
	})
	c.stats.JoinProbes += int(probes)
	if err != nil {
		return aggOutVal{}, false, err
	}
	if g.n == 0 {
		return aggOutVal{}, false, nil
	}
	c.stats.Derivations++
	return aggOutVal{out: aggHeadOut(r, plan, key, aggSeedIdx(r, rp), g), ants: g.ants}, true, nil
}
