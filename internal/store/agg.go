package store

import (
	"fmt"
	"slices"

	"repro/internal/prov"
	"repro/internal/value"
)

// maxAggAnts bounds the antecedents an aggregate group records: a group
// over many tuples cites its first contributors instead of growing an
// unbounded lineage list.
const maxAggAnts = 16

// AggGroup is one group of an aggregate pass: the rule's head tuple for
// the group, aggregate column filled in, and the provenance ids of the
// tuples that contributed to it (deduplicated, at most maxAggAnts).
type AggGroup struct {
	Out  value.Tuple
	Ants []prov.ID
	n    int64 // frames folded
}

// Aggregate is the aggregate kernel of both evaluators. It runs an
// aggregate rule's plan on x and folds min, max, sum (integers only) or
// count per group of non-aggregate head values. With a non-nil seed, x
// runs the rule's Seeded plan with seed bound to its SeedVars: every
// frame then falls into the one group seed names, so the pass keeps a
// single fold and no per-frame key. A nil seed runs the Full plan over
// every group. Groups come back in first-seen order; an empty result
// means no frame matched. rec (when enabled) resolves the contributing
// tuples' provenance at node. The probe count is x.Probes().
func Aggregate(x *Exec, ts TableSource, seed []value.V, rec *prov.Recorder, node string) ([]AggGroup, error) {
	a := &aggPass{x: x, seeded: seed != nil, rec: rec, node: node}
	_, err := x.Run(ts, nil, seed, a.emit)
	return a.groups, err
}

// aggPass is the state of one Aggregate call, kept in one struct so the
// emit callback does not heap-allocate each variable it updates.
type aggPass struct {
	x      *Exec
	seeded bool
	rec    *prov.Recorder
	node   string

	groups []AggGroup
	index  map[string]int // group key -> position, Full plan only
	head   value.Tuple    // Full plan: head scratch for the group key
	key    []byte
	ants   []prov.ID
}

func (a *aggPass) emit(frame []value.V) error {
	p := a.x.Plan
	gi := 0
	if !a.seeded {
		if a.head == nil {
			a.head = make(value.Tuple, len(p.HeadExprs))
			a.index = map[string]int{}
		}
		if err := p.BuildHead(a.x.Env(), a.head); err != nil {
			return err
		}
		a.key = a.head.AppendKey(a.key[:0])
		var ok bool
		if gi, ok = a.index[string(a.key)]; !ok {
			gi = len(a.groups)
			a.index[string(a.key)] = gi
			a.groups = append(a.groups, AggGroup{Out: slices.Clone(a.head)})
		}
	} else if len(a.groups) == 0 {
		a.groups = append(a.groups, AggGroup{Out: make(value.Tuple, len(p.HeadExprs))})
		if err := p.BuildHead(a.x.Env(), a.groups[0].Out); err != nil {
			return err
		}
	}
	g := &a.groups[gi]
	g.n++
	cur := &g.Out[p.AggIdx]
	var av value.V
	if p.AggSlot >= 0 {
		av = frame[p.AggSlot]
	}
	switch p.AggKind {
	case "count":
		*cur = value.Int(g.n)
	case "sum":
		if av.K != value.KindInt {
			return fmt.Errorf("store: rule %s: sum over non-integer", p.Rule.Label)
		}
		if g.n > 1 {
			av = value.Int(cur.I + av.I)
		}
		*cur = av
	case "min":
		if g.n == 1 || av.Compare(*cur) < 0 {
			*cur = av
		}
	case "max":
		if g.n == 1 || av.Compare(*cur) > 0 {
			*cur = av
		}
	}
	if a.rec.Enabled() && len(g.Ants) < maxAggAnts {
		for _, id := range a.x.Antecedents(a.rec, a.node, &a.ants) {
			if len(g.Ants) == maxAggAnts {
				break
			}
			if !slices.Contains(g.Ants, id) {
				g.Ants = append(g.Ants, id)
			}
		}
	}
	return nil
}
