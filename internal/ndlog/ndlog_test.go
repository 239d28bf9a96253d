package ndlog

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/value"
)

// pathVectorSrc is the path-vector protocol of §2.2 of the paper, verbatim
// apart from whitespace.
const pathVectorSrc = `
materialize(link, infinity, infinity, keys(1,2)).
materialize(path, infinity, infinity, keys(1,2,3)).

r1 path(@S,D,P,C) :- link(@S,D,C), P=f_init(S,D).
r2 path(@S,D,P,C) :- link(@S,Z,C1), path(@Z,D,P2,C2),
   C=C1+C2, P=f_concatPath(S,P2),
   f_inPath(P2,S)=false.
r3 bestPathCost(@S,D,min<C>) :- path(@S,D,P,C).
r4 bestPath(@S,D,P,C) :- bestPathCost(@S,D,C), path(@S,D,P,C).

link(@a,b,1).
link(@b,a,1).
`

func TestParsePathVector(t *testing.T) {
	prog, err := Parse("pathvector", pathVectorSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Rules) != 4 {
		t.Fatalf("parsed %d rules, want 4", len(prog.Rules))
	}
	if len(prog.Materialized) != 2 {
		t.Fatalf("parsed %d materialize, want 2", len(prog.Materialized))
	}
	if len(prog.Facts) != 2 {
		t.Fatalf("parsed %d facts, want 2", len(prog.Facts))
	}

	r1 := prog.Rules[0]
	if r1.Label != "r1" || r1.Head.Pred != "path" || len(r1.Head.Args) != 4 {
		t.Errorf("r1 head parsed wrong: %s", r1)
	}
	if r1.Head.Loc != 0 {
		t.Errorf("r1 head location index = %d, want 0", r1.Head.Loc)
	}
	if len(r1.Body) != 2 {
		t.Errorf("r1 body has %d literals, want 2", len(r1.Body))
	}

	r3 := prog.Rules[2]
	agg, idx := r3.Head.HeadAgg()
	if agg == nil || agg.Kind != "min" || agg.Arg != "C" || idx != 2 {
		t.Errorf("r3 aggregate parsed wrong: %v at %d", agg, idx)
	}

	f := prog.Facts[0]
	if f.Pred != "link" || f.Loc != 0 {
		t.Errorf("fact parsed wrong: %+v", f)
	}
	if f.Args[0].K != value.KindAddr || f.Args[0].S != "a" {
		t.Errorf("fact location arg = %v", f.Args[0])
	}
	if f.Args[2].I != 1 {
		t.Errorf("fact cost arg = %v", f.Args[2])
	}

	m := prog.Materialized[0]
	if m.Pred != "link" || !m.Lifetime.Infinite || len(m.Keys) != 2 {
		t.Errorf("materialize parsed wrong: %+v", m)
	}
}

func TestParseRoundTrip(t *testing.T) {
	prog, err := Parse("pv", pathVectorSrc)
	if err != nil {
		t.Fatal(err)
	}
	// The pretty-printed program must re-parse to the same shape.
	printed := prog.String()
	prog2, err := Parse("pv2", printed)
	if err != nil {
		t.Fatalf("reparse failed: %v\nprinted:\n%s", err, printed)
	}
	if len(prog2.Rules) != len(prog.Rules) || len(prog2.Facts) != len(prog.Facts) {
		t.Errorf("round trip lost statements:\n%s", printed)
	}
}

func TestParseSoftState(t *testing.T) {
	src := `
materialize(neighbor, 10, infinity, keys(1,2)).
n1 neighbor(@N,M) :- ping(@N,M).
`
	prog, err := Parse("soft", src)
	if err != nil {
		t.Fatal(err)
	}
	m := prog.Materialized[0]
	if m.Lifetime.Infinite || m.Lifetime.Seconds != 10 {
		t.Errorf("lifetime = %+v, want 10s", m.Lifetime)
	}
}

func TestParseNegation(t *testing.T) {
	for _, src := range []string{
		`r1 lonely(@N) :- node(@N), !link(@N,M).`,
		`r1 lonely(@N) :- node(@N), not link(@N,M).`,
	} {
		prog, err := Parse("neg", src)
		if err != nil {
			t.Fatal(err)
		}
		var neg *Literal
		for i := range prog.Rules[0].Body {
			if prog.Rules[0].Body[i].Neg {
				neg = &prog.Rules[0].Body[i]
			}
		}
		if neg == nil || neg.Atom.Pred != "link" {
			t.Errorf("negation not parsed in %q", src)
		}
	}
}

func TestParseDeleteRule(t *testing.T) {
	prog, err := Parse("del", `rd delete link(@S,D,C) :- linkDown(@S,D), link(@S,D,C).`)
	if err != nil {
		t.Fatal(err)
	}
	if !prog.Rules[0].Delete {
		t.Error("delete flag not set")
	}
	prog2, err := Parse("del2", `delete link(@S,D,C) :- linkDown(@S,D), link(@S,D,C).`)
	if err != nil {
		t.Fatal(err)
	}
	if !prog2.Rules[0].Delete {
		t.Error("unlabeled delete flag not set")
	}
}

func TestParseComments(t *testing.T) {
	src := `
% percent comment
// slash comment
/* block
   comment */
r1 a(@X) :- b(@X).
`
	prog, err := Parse("c", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Rules) != 1 {
		t.Errorf("rules = %d, want 1", len(prog.Rules))
	}
}

func TestParseAnonymousVar(t *testing.T) {
	prog, err := Parse("anon", `r1 hasLink(@S) :- link(@S,_,_).`)
	if err != nil {
		t.Fatal(err)
	}
	vars := AtomVars(prog.Rules[0].Body[0].Atom)
	if len(vars) != 3 { // S plus two distinct anonymous variables
		t.Errorf("anonymous vars not distinct: %v", vars)
	}
}

func TestParseStringAndBoolLiterals(t *testing.T) {
	prog, err := Parse("lit", `r1 p(@X, "hello\n", true, -5) :- q(@X).`)
	if err != nil {
		t.Fatal(err)
	}
	args := prog.Rules[0].Head.Args
	if lit := args[1].(LitE); lit.Val.S != "hello\n" {
		t.Errorf("string literal = %q", lit.Val.S)
	}
	if lit := args[2].(LitE); !lit.Val.True() {
		t.Errorf("bool literal = %v", lit.Val)
	}
	if lit := args[3].(LitE); lit.Val.I != -5 {
		t.Errorf("negative int literal = %v", lit.Val)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`r1 path(@S,@D) :- link(@S,D).`,                   // two location specifiers
		`r1 p(@S) :- q(@S)`,                               // missing period
		`r1 p(@S) : q(@S).`,                               // bad define token
		`materialize(link, -1, infinity, keys(1)).`,       // bad lifetime
		`materialize(link, infinity, infinity, keys(0)).`, // 0-based key
		`p(@a, X).`,                         // non-ground fact
		`r1 p(@S) :- q(@S), .`,              // stray period
		`r1 p(@"x") :- q(@S).`,              // loc on string — actually allowed? no: on Str converts
		`r1 p(@1) :- q(@1).`,                // loc on int
		"r1 p(@S) :- /* unterminated",       // unterminated comment
		`r1 p(@S) :- q(@S), "unterminated.`, // unterminated string
	}
	for _, src := range cases {
		if _, err := Parse("bad", src); err == nil {
			// The @"x" case legitimately parses (strings can be addresses).
			if strings.Contains(src, `@"x"`) {
				continue
			}
			t.Errorf("Parse accepted %q", src)
		}
	}
}

func TestAnalyzePathVector(t *testing.T) {
	prog := MustParse("pv", pathVectorSrc)
	an, err := Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	if an.Arity["path"] != 4 || an.Arity["link"] != 3 {
		t.Errorf("arities wrong: %v", an.Arity)
	}
	if !an.Base["link"] || an.Base["path"] {
		t.Errorf("base/derived classification wrong: base=%v", an.Base)
	}
	// Stratification: bestPathCost must be strictly above path (aggregate).
	if an.StratumOf["bestPathCost"] <= an.StratumOf["path"] {
		t.Errorf("strata: bestPathCost=%d path=%d", an.StratumOf["bestPathCost"], an.StratumOf["path"])
	}
	if an.StratumOf["bestPath"] < an.StratumOf["bestPathCost"] {
		t.Errorf("strata: bestPath=%d bestPathCost=%d", an.StratumOf["bestPath"], an.StratumOf["bestPathCost"])
	}
	// Location analysis: r2 spans S and Z, linked by the link atom.
	r2, _ := prog.RuleByLabel("r2")
	if got := an.LocVars[r2]; len(got) != 2 {
		t.Errorf("r2 location variables = %v, want 2", got)
	}
}

func TestAnalyzeAssignmentResolution(t *testing.T) {
	prog := MustParse("pv", pathVectorSrc)
	if _, err := Analyze(prog); err != nil {
		t.Fatal(err)
	}
	r1, _ := prog.RuleByLabel("r1")
	// After normalization, P=f_init(S,D) must be an assignment placed
	// after the link atom.
	var foundAssign bool
	for _, l := range r1.Body {
		if l.Assign {
			foundAssign = true
			be := l.Expr.(BinE)
			if be.L.(VarE).Name != "P" {
				t.Errorf("assignment target = %s, want P", be.L)
			}
		}
	}
	if !foundAssign {
		t.Error("P=f_init(S,D) not resolved to an assignment")
	}
	// f_inPath(P2,S)=false in r2 must stay a condition.
	r2, _ := prog.RuleByLabel("r2")
	for _, l := range r2.Body {
		if l.Assign {
			if be := l.Expr.(BinE); be.L.(VarE).Name == "P2" {
				t.Errorf("condition misread as assignment: %s", l)
			}
		}
	}
}

func TestAnalyzeFlippedAssignment(t *testing.T) {
	prog := MustParse("flip", `r1 p(@S,C) :- q(@S,A), A+1=C.`)
	if _, err := Analyze(prog); err != nil {
		t.Fatalf("flipped assignment rejected: %v", err)
	}
	var ok bool
	for _, l := range prog.Rules[0].Body {
		if l.Assign && l.Expr.(BinE).L.(VarE).Name == "C" {
			ok = true
		}
	}
	if !ok {
		t.Error("A+1=C not normalized to C=A+1 assignment")
	}
}

func TestAnalyzeUnsafeRules(t *testing.T) {
	cases := []string{
		`r1 p(@S,X) :- q(@S).`,                // head var X unbound
		`r1 p(@S) :- q(@S), X < 3.`,           // condition on unbound var
		`r1 p(@S) :- q(@S), !r(@S,X), s(@S).`, // negated atom with unbound X... X never bound
	}
	for _, src := range cases {
		prog, err := Parse("unsafe", src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Analyze(prog); err == nil {
			t.Errorf("Analyze accepted unsafe rule %q", src)
		}
	}
}

func TestAnalyzeArityMismatch(t *testing.T) {
	prog := MustParse("bad", `
r1 p(@S) :- q(@S,X).
r2 p(@S,X) :- q(@S,X).
`)
	if _, err := Analyze(prog); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestAnalyzeNonStratifiable(t *testing.T) {
	prog := MustParse("ns", `
r1 p(@S) :- q(@S), !r(@S).
r2 r(@S) :- p(@S).
`)
	if _, err := Analyze(prog); err == nil {
		t.Error("recursion through negation accepted")
	}
}

func TestAnalyzeAggInCycleFlagged(t *testing.T) {
	// Recursion through aggregation (BGP's selection-feeds-advertisement
	// shape) is accepted but flagged: only the event-driven distributed
	// runtime executes such programs.
	prog := MustParse("agg", `
r1 total(@S,sum<C>) :- part(@S,C).
r2 part(@S,C) :- total(@S,C).
`)
	an, err := Analyze(prog)
	if err != nil {
		t.Fatalf("agg-in-cycle rejected: %v", err)
	}
	if !an.AggInCycle {
		t.Error("AggInCycle not flagged")
	}
	// A stratified program must not be flagged.
	pv := MustParse("pv", pathVectorSrc)
	an2, err := Analyze(pv)
	if err != nil {
		t.Fatal(err)
	}
	if an2.AggInCycle {
		t.Error("stratified program flagged AggInCycle")
	}
}

func TestAnalyzeThreeLocationsRejected(t *testing.T) {
	prog := MustParse("loc3", `r1 p(@S) :- a(@S,X,Y), b(@X,S,Y), c(@Y,S,X).`)
	if _, err := Analyze(prog); err == nil {
		t.Error("rule spanning three locations accepted")
	}
}

func TestAnalyzeUnlinkedLocationsRejected(t *testing.T) {
	prog := MustParse("nolink", `r1 p(@S) :- a(@S,V), b(@Z,V).`)
	if _, err := Analyze(prog); err == nil {
		t.Error("rule with unlinked locations accepted")
	}
}

func TestAnalyzeMultipleAggregatesRejected(t *testing.T) {
	prog := MustParse("agg2", `r1 p(@S,min<C>,max<C>) :- q(@S,C).`)
	if _, err := Analyze(prog); err == nil {
		t.Error("two aggregates in a head accepted")
	}
}

func TestAnalyzeKeyExceedsArity(t *testing.T) {
	prog := MustParse("keys", `
materialize(q, infinity, infinity, keys(5)).
r1 p(@S) :- q(@S).
`)
	if _, err := Analyze(prog); err == nil {
		t.Error("key column beyond arity accepted")
	}
}

func TestEvalExpr(t *testing.T) {
	env := map[string]value.V{"X": value.Int(3), "P": value.List(value.Addr("a"))}
	e := BinE{Op: "+", L: VarE{Name: "X"}, R: LitE{Val: value.Int(4)}}
	v, err := EvalExpr(e, env)
	if err != nil || v.I != 7 {
		t.Errorf("EvalExpr = %v, %v", v, err)
	}
	call := CallE{Fn: "f_concatPath", Args: []Expr{LitE{Val: value.Addr("b")}, VarE{Name: "P"}}}
	v, err = EvalExpr(call, env)
	if err != nil || len(v.L) != 2 {
		t.Errorf("EvalExpr call = %v, %v", v, err)
	}
	if _, err := EvalExpr(VarE{Name: "Zzz"}, env); err == nil {
		t.Error("unbound variable evaluated")
	}
	if _, err := EvalExpr(AggE{Kind: "min", Arg: "C"}, env); err == nil {
		t.Error("aggregate evaluated as expression")
	}
}

func TestProgramAccessors(t *testing.T) {
	prog := MustParse("pv", pathVectorSrc)
	if _, ok := prog.RuleByLabel("r3"); !ok {
		t.Error("RuleByLabel failed")
	}
	if _, ok := prog.RuleByLabel("zzz"); ok {
		t.Error("RuleByLabel found ghost rule")
	}
	if m, ok := prog.MaterializedPred("link"); !ok || m.Pred != "link" {
		t.Error("MaterializedPred failed")
	}
	if _, ok := prog.MaterializedPred("zzz"); ok {
		t.Error("MaterializedPred found ghost declaration")
	}
}

func TestMatchAtom(t *testing.T) {
	X, Y := VarE{Name: "X"}, VarE{Name: "Y"}
	lit := func(i int64) Expr { return LitE{Val: value.Int(i)} }
	plus1 := func(v VarE) Expr { return BinE{Op: "+", L: v, R: lit(1)} }
	tup := func(is ...int64) value.Tuple {
		out := make(value.Tuple, len(is))
		for i, x := range is {
			out[i] = value.Int(x)
		}
		return out
	}
	cases := []struct {
		name  string
		args  []Expr
		tup   value.Tuple
		env   map[string]value.V // bindings before the match
		wild  bool
		ok    bool
		bound string // names MatchAtom bound, comma-joined
	}{
		{"binds variables", []Expr{X, Y}, tup(1, 2), nil, false, true, "X,Y"},
		{"repeated variable agrees", []Expr{X, X}, tup(1, 1), nil, false, true, "X"},
		{"repeated variable conflicts", []Expr{X, X}, tup(1, 2), nil, false, false, ""},
		{"bound variable conflicts", []Expr{Y, X}, tup(1, 2), map[string]value.V{"X": value.Int(3)}, false, false, ""},
		{"literal matches", []Expr{X, lit(7)}, tup(1, 7), nil, false, true, "X"},
		{"literal mismatch", []Expr{X, lit(7)}, tup(1, 8), nil, false, false, ""},
		{"computed argument matches", []Expr{X, plus1(X)}, tup(1, 2), nil, false, true, "X"},
		{"computed argument mismatch", []Expr{X, plus1(X)}, tup(1, 3), nil, false, false, ""},
		{"computed argument mismatch, wild", []Expr{X, plus1(X)}, tup(1, 3), nil, true, false, ""},
		{"unevaluable computed argument fails", []Expr{X, plus1(Y)}, tup(1, 2), nil, false, false, ""},
		{"unevaluable computed argument, wild", []Expr{X, plus1(Y)}, tup(1, 2), nil, true, true, "X"},
		{"arity mismatch", []Expr{X}, tup(1, 2), nil, true, false, ""},
	}
	for _, tc := range cases {
		env := map[string]value.V{}
		for k, v := range tc.env {
			env[k] = v
		}
		bound, ok := MatchAtom(&Atom{Pred: "p", Args: tc.args}, tc.tup, env, tc.wild)
		if ok != tc.ok || strings.Join(bound, ",") != tc.bound {
			t.Errorf("%s: got ok=%v bound=%v, want ok=%v bound=%s", tc.name, ok, bound, tc.ok, tc.bound)
		}
		// A failed match leaves env exactly as it was; a successful one
		// adds exactly the bound names.
		if len(env) != len(tc.env)+len(bound) {
			t.Errorf("%s: env %v after match (before %v, bound %v)", tc.name, env, tc.env, bound)
		}
		for k, v := range tc.env {
			if !env[k].Equal(v) {
				t.Errorf("%s: pre-bound %s changed to %v", tc.name, k, env[k])
			}
		}
	}
}

func TestAggGroups(t *testing.T) {
	an, err := Analyze(MustParse("agg", `
r1 b(@N,min<C>) :- x(@N,Y), y(@N,Y+1,C).
r2 c(@N,Z,min<C>) :- x(@N,Z), y(@N,Y,C).
r3 d(@N,min<C>) :- y(@N,1+1,C).
r4 e(@N,min<C>) :- y(@N,A,C), y(@N,C,A).
r5 f(@N,min<C>) :- x(@N,C), y(@N,C,A).
`))
	if err != nil {
		t.Fatal(err)
	}
	n0 := value.Addr("n0")
	y := func(a, b int64) value.Tuple { return value.Tuple{n0, value.Int(a), value.Int(b)} }
	plans := func(label string) *RulePlans {
		r, _ := an.Prog.RuleByLabel(label)
		return an.Plans[r]
	}
	cases := []struct {
		name string
		rule string
		tup  value.Tuple
		keep func(value.Tuple, map[string]value.V) bool
		keys string // Key() of each group, space-separated
		all  bool
	}{
		{"unevaluable computed argument is a wildcard", "r1", y(2, 5), nil, "a2:n0", false},
		{"unbound seed variable recomputes all", "r2", y(2, 5), nil, "", true},
		{"evaluable computed argument mismatch", "r3", y(3, 5), nil, "", false},
		{"evaluable computed argument match", "r3", y(2, 5), nil, "a2:n0", false},
		{"groups deduplicated", "r4", y(1, 1), nil, "a2:n0", false},
		{"keep vetoes a match", "r5", y(1, 2), func(key value.Tuple, env map[string]value.V) bool { return env["A"].I != 2 }, "", false},
	}
	for _, tc := range cases {
		keys, all := plans(tc.rule).AggGroups("y", tc.tup, tc.keep)
		var got []string
		for _, k := range keys {
			got = append(got, k.Key())
		}
		if strings.Join(got, " ") != tc.keys || all != tc.all {
			t.Errorf("%s: keys %v all=%v, want %q all=%v", tc.name, got, all, tc.keys, tc.all)
		}
	}
}

// TestReaders pins the reader index Analyze builds for both evaluators.
func TestReaders(t *testing.T) {
	show := func(rds []Reader) string {
		var parts []string
		for _, rd := range rds {
			parts = append(parts, fmt.Sprintf("%s%v", rd.Rule.Label, rd.Pos))
		}
		return strings.Join(parts, " ")
	}
	labels := func(rs []*Rule) string {
		var parts []string
		for _, r := range rs {
			parts = append(parts, r.Label)
		}
		return strings.Join(parts, " ")
	}
	readers := func(src string) Readers {
		t.Helper()
		an, err := Analyze(MustParse("readers", src))
		if err != nil {
			t.Fatal(err)
		}
		return an.Readers
	}
	check := func(what, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("%s = %q, want %q", what, got, want)
		}
	}

	pv := readers(pathVectorSrc)
	for pred, want := range map[string]bool{"path": true, "bestPathCost": false, "bestPath": false, "link": false} {
		if pv.Rec[pred] != want {
			t.Errorf("path-vector Rec[%s] = %v, want %v", pred, pv.Rec[pred], want)
		}
	}
	check("path-vector Agg[path]", labels(pv.Agg["path"]), "r3")

	sj := readers(`j1 j(@A,X,Y) :- e(@A,X,C), e(@A,Y,C).`)
	check("self-join Pos[e]", show(sj.Pos["e"]), "j1[0 1]")

	neg := readers(`n1 nq(@A,X) :- e(@A,X,C), !q(@A,X).
c1 cnt(@A,count<X>) :- e(@A,X,C), !q(@A,X).`)
	check("negation Neg[q]", show(neg.Neg["q"]), "n1[1]")
	check("negation Pos[q]", show(neg.Pos["q"]), "")
	check("negation Pos[e]", show(neg.Pos["e"]), "n1[0]")
	check("negation Agg[q]", labels(neg.Agg["q"]), "c1")

	del := readers(`u1 dr(@A,X) :- e(@A,X,C).
ud delete dr(@A,X) :- q(@A,X), e(@A,X,C).`)
	check("delete Pos[e]", show(del.Pos["e"]), "u1[0] ud[1]")
	check("delete Pos[q]", show(del.Pos["q"]), "ud[0]")
	check("delete Head[dr]", labels(del.Head["dr"]), "u1")
}
