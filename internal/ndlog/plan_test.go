package ndlog_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ndlog"
	"repro/internal/value"
)

func analyze(t *testing.T, src string) *ndlog.Analysis {
	t.Helper()
	an, err := ndlog.Analyze(ndlog.MustParse("plan", src))
	if err != nil {
		t.Fatal(err)
	}
	return an
}

func rulePlans(t *testing.T, an *ndlog.Analysis, label string) *ndlog.RulePlans {
	t.Helper()
	r, ok := an.Prog.RuleByLabel(label)
	if !ok {
		t.Fatalf("no rule %s", label)
	}
	return an.Plans[r]
}

// TestPlannerPlacesFiltersBeforeAssignments pins the planner's order of
// expression literals: a ready condition or negation probe goes before
// any ready assignment, and a filter that reads an assigned variable
// still follows its assignment.
func TestPlannerPlacesFiltersBeforeAssignments(t *testing.T) {
	pv := rulePlans(t, analyze(t, core.PathVectorSrc), "r2")
	for name, p := range map[string]*ndlog.Plan{"full": pv.Full, "delta link": pv.Delta[0], "delta path": pv.Delta[1]} {
		d := p.Describe()
		filter, concat := strings.Index(d, "σ(f_inPath(P2,S)==false)"), strings.Index(d, "P:=f_concatPath(S,P2)")
		if filter < 0 || concat < 0 || filter > concat {
			t.Errorf("r2 %s plan %q: want the f_inPath filter before the f_concatPath assignment", name, d)
		}
	}

	cases := []struct{ src, label, want string }{
		// The filter reads C, so it waits for C's assignment; the probe
		// of r reads only X and goes first.
		{`t1 q(@A,C) :- e(@A,X), C=X+1, C>2, !r(@A,X).`, "t1",
			"e(ff) -> !r -> C:=X+1 -> σ(C>2)"},
		// Each assignment is followed at once by the filters it readies.
		{`t2 q(@A,D) :- e(@A,X), C=X+1, D=X*2, C>2, D>2.`, "t2",
			"e(ff) -> C:=X+1 -> σ(C>2) -> D:=X*2 -> σ(D>2)"},
	}
	for _, tc := range cases {
		if got := rulePlans(t, analyze(t, tc.src), tc.label).Full.Describe(); got != tc.want {
			t.Errorf("%s full plan = %q, want %q", tc.label, got, tc.want)
		}
	}

	// The negated delta literal of a NegDelta plan is the input, not a
	// filter: it is enumerated, and the assignment it readies still gets
	// placed.
	for _, tc := range []struct{ src, want string }{
		{`n1 q(@A,Y) :- e(@A,X), !r(@A,X), Y=X+1.`, "Δr(ff) -> Y:=X+1 -> e(bb)"},
		{`n1 q(@A,Y) :- e(@A,X), Y=X+1, !r(@A,Y).`, "Δr(ff) -> e(bf) -> σ(Y==X+1)"},
	} {
		rp := rulePlans(t, analyze(t, tc.src), "n1")
		var got []string
		for _, p := range rp.NegDelta {
			if p != nil {
				got = append(got, p.Describe())
			}
		}
		if len(got) != 1 || got[0] != tc.want {
			t.Errorf("%s: NegDelta plans %q, want [%q]", tc.src, got, tc.want)
		}
	}
}

// aggGroupsOracle is RulePlans.AggGroups as first written: MatchAtom in
// wild mode over a fresh map environment per body atom. The compiled
// matcher must return the same keys, the same all, and hand keep the
// same contributions.
func aggGroupsOracle(rp *ndlog.RulePlans, pred string, tup value.Tuple, keep func(key value.Tuple, contrib value.V, ok bool) bool) (keys []value.Tuple, all bool) {
	agg, _ := rp.Full.Rule.Head.HeadAgg()
	for _, l := range rp.Full.Rule.Body {
		if l.Atom == nil || l.Atom.Pred != pred {
			continue
		}
		env := map[string]value.V{}
		if _, ok := ndlog.MatchAtom(l.Atom, tup, env, true); !ok {
			continue
		}
		if rp.Seeded == nil {
			return nil, true
		}
		key := make(value.Tuple, len(rp.Seeded.SeedVars))
		for i, v := range rp.Seeded.SeedVars {
			val, ok := env[v]
			if !ok {
				return nil, true
			}
			key[i] = val
		}
		contrib, ok := env[agg.Arg]
		if (keep == nil || keep(key, contrib, ok)) && !slices.ContainsFunc(keys, key.Equal) {
			keys = append(keys, key)
		}
	}
	return keys, false
}

func TestAggGroupsMatchesMatchAtomOracle(t *testing.T) {
	an := analyze(t, `
a1 b(@N,min<C>) :- y(@N,A,C).
a2 b2(@N,A,max<C>) :- y(@N,A,A), y(@N,A,C).
a3 b3(@N,count<*>) :- y(@N,2,C).
a4 b4(@N,min<C>) :- y(@N,A+1,C), y(@N,C,A).
a5 b5(@N,Z,min<C>) :- x(@N,Z), y(@N,Y,C).
a6 b6(@N,Y+1,min<C>) :- y(@N,Y,C).
a7 b7(@N,sum<C>) :- x(@N,C), !y(@N,C,C).
a8 b8(@N,min<C>) :- y(@N,"s",C).
a9 b9(@N,min<C>) :- x(@N,A), y(@N,A,A+1), y(@N,C,D).
a10 b10(@N,min<C>) :- x(@N,A), y(@N,A,f_max(A,2)), y(@N,C,f_min(A,1)).
`)
	// A small domain with a string, so that computed arguments also fail
	// to evaluate (a wildcard, in both matchers).
	dom := []value.V{value.Int(0), value.Int(1), value.Int(2), value.Int(3), value.Int(4), value.Str("s")}
	var tups []value.Tuple
	for _, n := range []value.V{value.Addr("n0"), value.Addr("n1")} {
		for _, a := range dom {
			for _, b := range dom {
				tups = append(tups, value.Tuple{n, a, b})
			}
		}
	}
	tups = append(tups, value.Tuple{value.Addr("n0"), value.Int(1)}) // arity mismatch
	record := func(log *[]string) func(value.Tuple, value.V, bool) bool {
		return func(key value.Tuple, contrib value.V, ok bool) bool {
			*log = append(*log, fmt.Sprintf("%s/%v/%v", key, contrib, ok))
			return !ok || contrib.I%2 == 0 // veto odd contributions
		}
	}
	show := func(keys []value.Tuple, all bool) string {
		var parts []string
		for _, k := range keys {
			parts = append(parts, k.String())
		}
		return fmt.Sprintf("%s all=%v", strings.Join(parts, " "), all)
	}
	var s ndlog.AggScratch
	checked := 0
	for _, r := range an.Prog.Rules {
		rp := an.Plans[r]
		for _, pred := range []string{"x", "y"} {
			for _, tup := range tups {
				if pred == "x" {
					tup = tup[:2]
				}
				want := show(aggGroupsOracle(rp, pred, tup, nil))
				if got := show(rp.AggGroups(&s, pred, tup, nil)); got != want {
					t.Errorf("%s: %s%v: got %s, want %s", r.Label, pred, tup, got, want)
				}
				var wantLog, gotLog []string
				want = show(aggGroupsOracle(rp, pred, tup, record(&wantLog)))
				got := show(rp.AggGroups(&s, pred, tup, record(&gotLog)))
				if got != want || !slices.Equal(gotLog, wantLog) {
					t.Errorf("%s: %s%v with keep: got %s %v, want %s %v", r.Label, pred, tup, got, gotLog, want, wantLog)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no cases checked")
	}
}
