package ndlog

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/value"
)

// This file implements compiled join plans. Analysis compiles every rule
// once: body literals are reordered by bound-variable selectivity, variable
// names are resolved to integer slots in a reusable frame, and index key
// columns are fixed statically. The plan executor (internal/store) then
// evaluates rule bodies without allocating a string-keyed environment map
// per probe — the single join implementation shared by the centralized
// engine and the distributed runtime.

// EvalEnv is the mutable evaluation state threaded through a compiled
// plan: the variable frame (slot-indexed) and one reusable argument
// buffer per function-call site. One EvalEnv belongs to one executor and
// must not be shared across goroutines.
type EvalEnv struct {
	Frame    []value.V
	CallBufs [][]value.V
}

// CExpr is a compiled expression: variable references resolved to frame
// slots, call-argument buffers preallocated. Compiled expressions are
// immutable and shareable; all mutable state lives in the EvalEnv.
type CExpr interface {
	Eval(env *EvalEnv) (value.V, error)
	String() string
}

type cLit struct{ v value.V }

func (c cLit) Eval(*EvalEnv) (value.V, error) { return c.v, nil }
func (c cLit) String() string                 { return c.v.String() }

type cSlot struct {
	slot int
	name string
}

func (c cSlot) Eval(env *EvalEnv) (value.V, error) { return env.Frame[c.slot], nil }
func (c cSlot) String() string                     { return c.name }

type cCall struct {
	fn   string
	args []CExpr
	buf  int // index into EvalEnv.CallBufs
}

func (c cCall) Eval(env *EvalEnv) (value.V, error) {
	buf := env.CallBufs[c.buf]
	for i, a := range c.args {
		v, err := a.Eval(env)
		if err != nil {
			return value.V{}, err
		}
		buf[i] = v
	}
	return value.Apply(c.fn, buf)
}

func (c cCall) String() string {
	parts := make([]string, len(c.args))
	for i, a := range c.args {
		parts[i] = a.String()
	}
	return c.fn + "(" + strings.Join(parts, ",") + ")"
}

type cBin struct {
	op   string
	l, r CExpr
}

func (c cBin) Eval(env *EvalEnv) (value.V, error) {
	l, err := c.l.Eval(env)
	if err != nil {
		return value.V{}, err
	}
	r, err := c.r.Eval(env)
	if err != nil {
		return value.V{}, err
	}
	return value.ApplyBinary(c.op, l, r)
}

func (c cBin) String() string { return c.l.String() + c.op + c.r.String() }

// StepKind identifies a plan step.
type StepKind uint8

// The plan step kinds.
const (
	// StepScan enumerates a stored table, through a hash index when any
	// column is determined by earlier steps.
	StepScan StepKind = iota
	// StepDelta enumerates the semi-naive delta tuples supplied to the
	// executor instead of the stored table.
	StepDelta
	// StepNotExists is safe negation: all columns are determined, so it
	// compiles to a single index existence probe.
	StepNotExists
	// StepAssign binds a frame slot from an expression.
	StepAssign
	// StepFilter evaluates a boolean condition.
	StepFilter
)

// ColOp processes one column of a candidate tuple: either bind it into a
// frame slot (Slot >= 0) or check it for equality against a compiled
// expression.
type ColOp struct {
	Col  int
	Slot int   // >= 0: bind tuple[Col] into Frame[Slot]
	Expr CExpr // Slot < 0: require tuple[Col] == Expr
}

// Step is one operation of a compiled plan.
type Step struct {
	Kind    StepKind
	Pred    string // Scan, Delta, NotExists
	BodyIdx int    // index of the originating literal in Rule.Body

	// Index key: columns determined before this step, in column order.
	// Used by Scan (bucket lookup) and NotExists (existence probe).
	KeyCols  []int
	KeyExprs []CExpr

	// Remaining columns, in column order: binds for first occurrences of
	// unbound variables, checks for duplicates. For Delta steps (no index
	// available) every column appears here.
	Ops []ColOp

	// Assign and Filter.
	Var  string // Assign: variable name, for display
	Slot int    // Assign target
	Expr CExpr  // Assign / Filter expression
}

// Plan is a compiled evaluation plan for one rule body plus head.
type Plan struct {
	Rule  *Rule
	Steps []Step

	NumSlots    int
	SlotOf      map[string]int
	CallArities []int // arity of each call-site buffer

	// Head: one compiled expression per head argument; nil at AggIdx.
	HeadExprs []CExpr
	AggKind   string // "" when the head has no aggregate
	AggIdx    int    // head column of the aggregate, -1 when none
	AggSlot   int    // slot of the aggregated variable, -1 for count<*>

	// Seeded plans (aggregate recomputation restricted to one group):
	// SeedVars[i] is pre-bound into Frame[SeedSlots[i]] before execution.
	SeedVars  []string
	SeedSlots []int

	// DeltaIdx is the body index evaluated against the delta, -1 for full
	// plans. DeltaArity is the arity of that literal's atom (-1 for full
	// plans): executors validate supplied delta tuples against it up front,
	// so a caller arity bug surfaces as an error instead of an empty join.
	// Order lists body-literal indices in executed order.
	DeltaIdx   int
	DeltaArity int
	Order      []int

	// AntSteps lists the step indices that bind a candidate tuple
	// (StepScan and StepDelta), in step order: the antecedent positions
	// a provenance recorder reads back via Exec.CurTuple.
	AntSteps []int

	// CanonSlots maps the rule's variables, in one canonical order shared
	// by every plan variant of the rule, to this plan's frame slots. A
	// frame hashed through CanonSlots identifies a derivation (a body
	// variable assignment) independently of which variant produced it, so
	// incremental maintenance can deduplicate the frames that a self-join
	// rule emits once per delta position of the same changed tuple.
	CanonSlots []int
}

// RulePlans groups the compiled plan variants of one rule.
type RulePlans struct {
	// Full evaluates the body against stored tables only.
	Full *Plan
	// Delta[i] is the semi-naive plan with body literal i as the delta;
	// non-nil exactly for positive atom literals. The same plan serves
	// both directions of incremental maintenance: run with an inserted
	// tuple after it is stored it enumerates the gained derivations, run
	// with a deleted tuple before it is removed it enumerates the lost
	// ones.
	Delta []*Plan
	// NegDelta[i] is the delete-delta counterpart for negated body
	// literals; non-nil exactly for negated atom literals. The negated
	// atom is evaluated against the delta tuple instead of probed: run
	// with a freshly inserted tuple of the negated predicate (before the
	// insert is stored) it enumerates the derivations the insert kills,
	// run with a deleted tuple (after the removal) it enumerates the
	// derivations the removal revives. Negation is safe (every column
	// determined), so a fully bound pattern matches exactly one tuple and
	// no residual probe is needed.
	NegDelta []*Plan
	// Seeded recomputes an aggregate rule for a single group (its group
	// variables pre-bound). Nil unless the head has an aggregate and every
	// non-aggregate head argument is a plain variable.
	Seeded *Plan
	// HeadSeeded re-evaluates the body with the head's plain-variable
	// arguments pre-bound — the DRed re-derivation check: after an
	// over-delete, one run seeded from the deleted head tuple decides
	// whether any alternative derivation survives. Nil for aggregate and
	// delete rules.
	HeadSeeded *Plan
	// HeadSeedCols[i] is the head-tuple column that feeds
	// HeadSeeded.SeedVars[i].
	HeadSeedCols []int

	// The body atoms of an aggregate rule compiled for AggGroups, over
	// one frame of aggSlots slots and call sites of aggCalls arities.
	aggAtoms []aggAtom
	aggSlots int
	aggCalls []int
}

// aggAtom is one body atom of an aggregate rule, compiled to match a
// changed tuple alone (see AggGroups).
type aggAtom struct {
	pred  string
	arity int
	// ops checks and binds the columns in column order, as a Delta
	// step's Ops do; a wildcard column has no op.
	ops []ColOp
	// named: a match names its group, whose key is the frame at keySlots
	// (the Seeded plan's SeedVars, in order).
	named    bool
	keySlots []int
	contrib  int // slot of the aggregated variable, -1 when the atom does not bind it
}

// planner holds the state of compiling one plan variant.
type planner struct {
	r     *Rule
	plan  *Plan
	bound map[string]bool
}

// buildPlans compiles all plan variants for the program's rules.
func (a *Analysis) buildPlans() error {
	a.Plans = map[*Rule]*RulePlans{}
	for _, r := range a.Prog.Rules {
		rp := &RulePlans{
			Delta:    make([]*Plan, len(r.Body)),
			NegDelta: make([]*Plan, len(r.Body)),
		}
		full, err := planRule(r, -1, nil)
		if err != nil {
			return err
		}
		rp.Full = full
		for i, l := range r.Body {
			if l.Atom == nil {
				continue
			}
			d, err := planRule(r, i, nil)
			if err != nil {
				return err
			}
			if l.Neg {
				rp.NegDelta[i] = d
			} else {
				rp.Delta[i] = d
			}
		}
		_, aggIdx := r.Head.HeadAgg()
		if aggIdx >= 0 {
			if seeds, ok := aggGroupVars(r); ok {
				s, err := planRule(r, -1, seeds)
				if err != nil {
					return err
				}
				rp.Seeded = s
			}
			rp.compileAggAtoms(r)
		} else if !r.Delete {
			seeds, cols := headSeedVars(r)
			hs, err := planRule(r, -1, seeds)
			if err != nil {
				return err
			}
			rp.HeadSeeded, rp.HeadSeedCols = hs, cols
		}
		canonizePlans(rp)
		a.Plans[r] = rp
	}
	return nil
}

// headSeedVars returns the plain-variable head arguments of r (first
// occurrence each) and the head columns they appear at — the seeds of the
// DRed re-derivation plan. Computed or constant head arguments carry no
// seed; the re-derivation caller filters emissions by rebuilt head
// instead.
func headSeedVars(r *Rule) ([]string, []int) {
	var vars []string
	var cols []int
	seen := map[string]bool{}
	for i, arg := range r.Head.Args {
		if v, isVar := arg.(VarE); isVar && !seen[v.Name] {
			seen[v.Name] = true
			vars = append(vars, v.Name)
			cols = append(cols, i)
		}
	}
	return vars, cols
}

// canonizePlans fixes one canonical variable order across all plan
// variants of a rule (the Full plan's variables, sorted by name) and
// resolves each variant's CanonSlots against it. Every variant compiles
// the same body and head, so the variable sets coincide.
func canonizePlans(rp *RulePlans) {
	vars := make([]string, 0, len(rp.Full.SlotOf))
	for v := range rp.Full.SlotOf {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	set := func(p *Plan) {
		if p == nil {
			return
		}
		p.CanonSlots = make([]int, 0, len(vars))
		for _, v := range vars {
			if s, ok := p.SlotOf[v]; ok {
				p.CanonSlots = append(p.CanonSlots, s)
			}
		}
	}
	set(rp.Full)
	for _, p := range rp.Delta {
		set(p)
	}
	for _, p := range rp.NegDelta {
		set(p)
	}
	set(rp.Seeded)
	set(rp.HeadSeeded)
}

// aggGroupVars returns the non-aggregate head variables of an aggregate
// rule, in head order without duplicates. ok is false when some group
// argument is not a plain variable (such rules recompute all groups).
func aggGroupVars(r *Rule) ([]string, bool) {
	var vars []string
	seen := map[string]bool{}
	for _, arg := range r.Head.Args {
		if _, isAgg := arg.(AggE); isAgg {
			continue
		}
		v, isVar := arg.(VarE)
		if !isVar {
			return nil, false
		}
		if !seen[v.Name] {
			seen[v.Name] = true
			vars = append(vars, v.Name)
		}
	}
	return vars, true
}

// compileAggAtoms compiles every body atom of aggregate rule r, positive
// or negated, for AggGroups. An atom is matched against a changed tuple
// alone, in column order: a variable binds its first column and must
// agree at a repeated one, a literal must be equal, and a computed
// argument must equal its value when the atom's earlier columns bind
// every variable it reads. One it cannot evaluate there is a wildcard.
// The atoms share one frame numbering.
func (rp *RulePlans) compileAggAtoms(r *Rule) {
	agg, _ := r.Head.HeadAgg()
	p := &planner{r: r, plan: &Plan{Rule: r, SlotOf: map[string]int{}}}
	for _, l := range r.Body {
		if l.Atom == nil {
			continue
		}
		p.bound = map[string]bool{}
		a := aggAtom{pred: l.Atom.Pred, arity: len(l.Atom.Args), named: rp.Seeded != nil, contrib: -1}
		for col, arg := range l.Atom.Args {
			if v, isVar := arg.(VarE); isVar && !p.bound[v.Name] {
				p.bound[v.Name] = true
				a.ops = append(a.ops, ColOp{Col: col, Slot: p.slot(v.Name)})
				continue
			}
			if !allBound(exprVars(arg), p.bound) {
				continue
			}
			if ce, err := p.compileExpr(arg); err == nil {
				a.ops = append(a.ops, ColOp{Col: col, Slot: -1, Expr: ce})
			}
		}
		if a.named {
			for _, v := range rp.Seeded.SeedVars {
				if !p.bound[v] {
					a.named, a.keySlots = false, nil
					break
				}
				a.keySlots = append(a.keySlots, p.plan.SlotOf[v])
			}
		}
		if agg.Arg != "" && p.bound[agg.Arg] {
			a.contrib = p.plan.SlotOf[agg.Arg]
		}
		rp.aggAtoms = append(rp.aggAtoms, a)
	}
	rp.aggSlots, rp.aggCalls = p.plan.NumSlots, p.plan.CallArities
}

// match reports whether tup matches the atom, binding its variables
// into env's frame. A computed argument whose evaluation fails is a
// wildcard, like one the atom cannot evaluate.
func (a *aggAtom) match(env *EvalEnv, tup value.Tuple) bool {
	if len(tup) != a.arity {
		return false
	}
	for _, op := range a.ops {
		if op.Slot >= 0 {
			env.Frame[op.Slot] = tup[op.Col]
			continue
		}
		if v, err := op.Expr.Eval(env); err == nil && !v.Equal(tup[op.Col]) {
			return false
		}
	}
	return true
}

// AggScratch is the caller-owned state of AggGroups: the match frame and
// the storage of the keys it returns, reused so that a warm lookup
// allocates nothing. Like an EvalEnv it belongs to one goroutine.
type AggScratch struct {
	env  EvalEnv
	vals []value.V
	keys []value.Tuple
}

// reset sizes the frame and call buffers for rp's compiled atoms and
// empties the key storage. Only a function call in an atom's argument
// costs an allocation.
func (s *AggScratch) reset(rp *RulePlans) {
	if cap(s.env.Frame) < rp.aggSlots {
		s.env.Frame = make([]value.V, rp.aggSlots)
	}
	s.env.Frame = s.env.Frame[:rp.aggSlots]
	s.env.CallBufs = s.env.CallBufs[:0]
	for _, n := range rp.aggCalls {
		s.env.CallBufs = append(s.env.CallBufs, make([]value.V, n))
	}
	s.vals, s.keys = s.vals[:0], s.keys[:0]
}

// AggGroups answers which groups of an aggregate rule a change to
// pred(tup) touches. Every body atom of pred, positive or negated, is
// matched against tup alone through the column ops compileAggAtoms
// built. A match that binds all of the Seeded plan's SeedVars names one
// group, keyed by those values in SeedVars order; keep, when non-nil,
// may drop it (it sees the key and, when the atom binds the aggregated
// variable, ok and the contributed value). Keys come back deduplicated,
// in first-seen order, stored in s: they are valid until s is next
// used. all reports a match that cannot name its group — the rule has
// no Seeded plan, or the atom leaves a seed variable unbound — so every
// group must be recomputed.
func (rp *RulePlans) AggGroups(s *AggScratch, pred string, tup value.Tuple, keep func(key value.Tuple, contrib value.V, ok bool) bool) (keys []value.Tuple, all bool) {
	s.reset(rp)
	for i := range rp.aggAtoms {
		a := &rp.aggAtoms[i]
		if a.pred != pred || !a.match(&s.env, tup) {
			continue
		}
		if !a.named {
			return nil, true
		}
		start := len(s.vals)
		for _, slot := range a.keySlots {
			s.vals = append(s.vals, s.env.Frame[slot])
		}
		key := value.Tuple(s.vals[start:len(s.vals):len(s.vals)])
		var contrib value.V
		if a.contrib >= 0 {
			contrib = s.env.Frame[a.contrib]
		}
		if (keep == nil || keep(key, contrib, a.contrib >= 0)) && !slices.ContainsFunc(s.keys, key.Equal) {
			s.keys = append(s.keys, key)
		} else {
			s.vals = s.vals[:start]
		}
	}
	return s.keys, false
}

// planRule compiles one plan variant. deltaIdx < 0 compiles the full
// plan; otherwise body literal deltaIdx is evaluated against the delta.
// seedVars, if non-nil, are pre-bound before any body literal.
func planRule(r *Rule, deltaIdx int, seedVars []string) (*Plan, error) {
	p := &planner{
		r: r,
		plan: &Plan{
			Rule:       r,
			SlotOf:     map[string]int{},
			AggIdx:     -1,
			AggSlot:    -1,
			DeltaIdx:   deltaIdx,
			DeltaArity: -1,
		},
		bound: map[string]bool{},
	}
	if deltaIdx >= 0 {
		p.plan.DeltaArity = len(r.Body[deltaIdx].Atom.Args)
	}
	for _, v := range seedVars {
		p.plan.SeedVars = append(p.plan.SeedVars, v)
		p.plan.SeedSlots = append(p.plan.SeedSlots, p.slot(v))
		p.bound[v] = true
	}

	body := r.Body
	taken := make([]bool, len(body))
	remaining := len(body)
	for remaining > 0 {
		// Cheap literals before any table scan, and filters before
		// assignments: every ready condition and negation probe first, so
		// a frame they reject never pays for computing a value (r2's
		// f_inPath check runs before f_concatPath builds a path list).
		// The negated delta literal of a NegDelta plan is an input, not a
		// filter.
		progressed := false
		for i, l := range body {
			if taken[i] {
				continue
			}
			if l.Atom == nil {
				if !p.isAssign(l) && p.tryExpr(l, i) {
					taken[i] = true
					remaining--
					progressed = true
				}
				continue
			}
			if l.Neg && i != deltaIdx && allBound(AtomVars(l.Atom), p.bound) {
				p.negStep(l.Atom, i)
				taken[i] = true
				remaining--
				progressed = true
			}
		}
		if progressed {
			continue
		}
		// Then one ready assignment; the filters it readies go next.
		for i, l := range body {
			if !taken[i] && l.Atom == nil && p.tryExpr(l, i) {
				taken[i] = true
				remaining--
				progressed = true
				break
			}
		}
		if progressed {
			continue
		}
		// The delta literal is the most selective input there is (usually
		// a single tuple): place it at the earliest safe position.
		if deltaIdx >= 0 && !taken[deltaIdx] && p.atomReady(body[deltaIdx].Atom) {
			if err := p.atomStep(body[deltaIdx].Atom, deltaIdx, true); err != nil {
				return nil, err
			}
			taken[deltaIdx] = true
			remaining--
			continue
		}
		// Otherwise the ready positive atom with the most determined
		// columns (ties: smaller arity, then textual order).
		best, bestScore, bestArity := -1, -1, 0
		for i, l := range body {
			if taken[i] || l.Atom == nil || l.Neg || i == deltaIdx {
				continue
			}
			if !p.atomReady(l.Atom) {
				continue
			}
			sc := p.atomScore(l.Atom)
			if sc > bestScore || (sc == bestScore && len(l.Atom.Args) < bestArity) {
				best, bestScore, bestArity = i, sc, len(l.Atom.Args)
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("ndlog: rule %s: no safe join order (internal planner error)", r.Label)
		}
		if err := p.atomStep(body[best].Atom, best, false); err != nil {
			return nil, err
		}
		taken[best] = true
		remaining--
	}

	for i, st := range p.plan.Steps {
		if st.Kind == StepScan || st.Kind == StepDelta {
			p.plan.AntSteps = append(p.plan.AntSteps, i)
		}
	}
	return p.plan, p.compileHead()
}

func (p *planner) slot(name string) int {
	if s, ok := p.plan.SlotOf[name]; ok {
		return s
	}
	s := p.plan.NumSlots
	p.plan.SlotOf[name] = s
	p.plan.NumSlots++
	return s
}

// atomReady reports whether every computed (non-variable) argument of the
// atom is evaluable under the current bindings.
func (p *planner) atomReady(atom *Atom) bool {
	for _, arg := range atom.Args {
		if _, isVar := arg.(VarE); isVar {
			continue
		}
		if !allBound(exprVars(arg), p.bound) {
			return false
		}
	}
	return true
}

// atomScore counts the columns determined by the current bindings — the
// width of the index key a scan of this atom would use.
func (p *planner) atomScore(atom *Atom) int {
	score := 0
	for _, arg := range atom.Args {
		if v, isVar := arg.(VarE); isVar {
			if p.bound[v.Name] {
				score++
			}
			continue
		}
		score++ // computed argument; ready implies evaluable
	}
	return score
}

// atomStep compiles a positive atom into a Scan (or Delta) step.
func (p *planner) atomStep(atom *Atom, bodyIdx int, delta bool) error {
	st := Step{Kind: StepScan, Pred: atom.Pred, BodyIdx: bodyIdx, Slot: -1}
	if delta {
		st.Kind = StepDelta
	}
	local := map[string]int{} // vars bound by earlier columns of this atom
	for col, arg := range atom.Args {
		if v, isVar := arg.(VarE); isVar {
			if p.bound[v.Name] {
				ce := cSlot{p.slot(v.Name), v.Name}
				if delta {
					st.Ops = append(st.Ops, ColOp{Col: col, Slot: -1, Expr: ce})
				} else {
					st.KeyCols = append(st.KeyCols, col)
					st.KeyExprs = append(st.KeyExprs, ce)
				}
				continue
			}
			if s, dup := local[v.Name]; dup {
				st.Ops = append(st.Ops, ColOp{Col: col, Slot: -1, Expr: cSlot{s, v.Name}})
				continue
			}
			s := p.slot(v.Name)
			local[v.Name] = s
			st.Ops = append(st.Ops, ColOp{Col: col, Slot: s})
			continue
		}
		ce, err := p.compileExpr(arg)
		if err != nil {
			return err
		}
		if delta {
			st.Ops = append(st.Ops, ColOp{Col: col, Slot: -1, Expr: ce})
		} else {
			st.KeyCols = append(st.KeyCols, col)
			st.KeyExprs = append(st.KeyExprs, ce)
		}
	}
	for v := range local {
		p.bound[v] = true
	}
	p.plan.Steps = append(p.plan.Steps, st)
	p.plan.Order = append(p.plan.Order, bodyIdx)
	return nil
}

// negStep compiles a negated atom: all variables are bound, so every
// column is determined and the step is one index existence probe.
func (p *planner) negStep(atom *Atom, bodyIdx int) error {
	st := Step{Kind: StepNotExists, Pred: atom.Pred, BodyIdx: bodyIdx, Slot: -1}
	for col, arg := range atom.Args {
		ce, err := p.compileExpr(arg)
		if err != nil {
			return err
		}
		st.KeyCols = append(st.KeyCols, col)
		st.KeyExprs = append(st.KeyExprs, ce)
	}
	p.plan.Steps = append(p.plan.Steps, st)
	p.plan.Order = append(p.plan.Order, bodyIdx)
	return nil
}

// isAssign reports whether expression literal l would compile to an
// assignment under the current bindings: V=expr with V still unbound.
func (p *planner) isAssign(l Literal) bool {
	be, ok := l.Expr.(BinE)
	if !ok || be.Op != "=" {
		return false
	}
	lv, ok := be.L.(VarE)
	return ok && !p.bound[lv.Name]
}

// tryExpr compiles an expression literal if it is ready: an assignment
// whose right side is evaluable, or a condition with all variables bound.
// An assignment whose target is already bound (seeded plans, reordering)
// degrades to an equality condition.
func (p *planner) tryExpr(l Literal, bodyIdx int) bool {
	if be, ok := l.Expr.(BinE); ok && be.Op == "=" {
		if lv, ok := be.L.(VarE); ok && !p.bound[lv.Name] {
			if !allBound(exprVars(be.R), p.bound) {
				return false
			}
			ce, err := p.compileExpr(be.R)
			if err != nil {
				return false
			}
			s := p.slot(lv.Name)
			p.bound[lv.Name] = true
			p.plan.Steps = append(p.plan.Steps, Step{
				Kind: StepAssign, BodyIdx: bodyIdx, Var: lv.Name, Slot: s, Expr: ce,
			})
			p.plan.Order = append(p.plan.Order, bodyIdx)
			return true
		}
	}
	if !allBound(exprVars(l.Expr), p.bound) {
		return false
	}
	ce, err := p.compileExpr(l.Expr)
	if err != nil {
		return false
	}
	p.plan.Steps = append(p.plan.Steps, Step{Kind: StepFilter, BodyIdx: bodyIdx, Slot: -1, Expr: ce})
	p.plan.Order = append(p.plan.Order, bodyIdx)
	return true
}

// compileExpr resolves an expression against the current bindings.
func (p *planner) compileExpr(e Expr) (CExpr, error) {
	switch x := e.(type) {
	case LitE:
		return cLit{x.Val}, nil
	case VarE:
		s, ok := p.plan.SlotOf[x.Name]
		if !ok || !p.bound[x.Name] {
			return nil, fmt.Errorf("ndlog: rule %s: unbound variable %s", p.r.Label, x.Name)
		}
		return cSlot{s, x.Name}, nil
	case CallE:
		args := make([]CExpr, len(x.Args))
		for i, a := range x.Args {
			ce, err := p.compileExpr(a)
			if err != nil {
				return nil, err
			}
			args[i] = ce
		}
		buf := len(p.plan.CallArities)
		p.plan.CallArities = append(p.plan.CallArities, len(x.Args))
		return cCall{fn: x.Fn, args: args, buf: buf}, nil
	case BinE:
		op := x.Op
		if op == "=" {
			op = "=="
		}
		l, err := p.compileExpr(x.L)
		if err != nil {
			return nil, err
		}
		r, err := p.compileExpr(x.R)
		if err != nil {
			return nil, err
		}
		return cBin{op: op, l: l, r: r}, nil
	case AggE:
		return nil, fmt.Errorf("ndlog: rule %s: aggregate %s evaluated as expression", p.r.Label, x)
	}
	return nil, fmt.Errorf("ndlog: rule %s: unknown expression", p.r.Label)
}

// compileHead compiles the head arguments and aggregate metadata.
func (p *planner) compileHead() error {
	r := p.r
	for i, arg := range r.Head.Args {
		if agg, isAgg := arg.(AggE); isAgg {
			p.plan.AggKind = agg.Kind
			p.plan.AggIdx = i
			if agg.Arg != "" {
				s, ok := p.plan.SlotOf[agg.Arg]
				if !ok {
					return fmt.Errorf("ndlog: rule %s: aggregate variable %s is unbound", r.Label, agg.Arg)
				}
				p.plan.AggSlot = s
			}
			p.plan.HeadExprs = append(p.plan.HeadExprs, nil)
			continue
		}
		ce, err := p.compileExpr(arg)
		if err != nil {
			return err
		}
		p.plan.HeadExprs = append(p.plan.HeadExprs, ce)
	}
	return nil
}

// BuildHead evaluates the compiled head expressions into dst (length =
// head arity). The aggregate column, if any, is left untouched for the
// caller to fill.
func (p *Plan) BuildHead(env *EvalEnv, dst value.Tuple) error {
	for i, ce := range p.HeadExprs {
		if ce == nil {
			continue
		}
		v, err := ce.Eval(env)
		if err != nil {
			return err
		}
		dst[i] = v
	}
	return nil
}

// Describe renders the executed order compactly for EXPLAIN: scanned
// atoms show their binding pattern per column (b = index key, f = free
// bind, c = duplicate check); Δ marks the semi-naive delta input; !p is a
// negation probe; assignments and conditions appear inline.
func (p *Plan) Describe() string {
	var b strings.Builder
	for i := range p.Steps {
		st := &p.Steps[i]
		if i > 0 {
			b.WriteString(" -> ")
		}
		switch st.Kind {
		case StepScan, StepDelta:
			if st.Kind == StepDelta {
				b.WriteString("Δ")
			}
			pat := make([]byte, len(st.KeyCols)+len(st.Ops))
			for _, c := range st.KeyCols {
				pat[c] = 'b'
			}
			for _, op := range st.Ops {
				if op.Slot >= 0 {
					pat[op.Col] = 'f'
				} else {
					pat[op.Col] = 'c'
				}
			}
			b.WriteString(st.Pred)
			b.WriteByte('(')
			b.Write(pat)
			b.WriteByte(')')
		case StepNotExists:
			b.WriteString("!" + st.Pred)
		case StepAssign:
			b.WriteString(st.Var + ":=" + st.Expr.String())
		case StepFilter:
			b.WriteString("σ(" + st.Expr.String() + ")")
		}
	}
	return b.String()
}
