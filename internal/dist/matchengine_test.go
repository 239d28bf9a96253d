package dist

import (
	"strings"
	"testing"

	"repro/internal/datalog"
	"repro/internal/ndlog"
	"repro/internal/netgraph"
	"repro/internal/prov"
	"repro/internal/value"
)

// TestDistMatchesEngine pins programs on which the distributed runtime
// must compute what the centralized engine computes: both read the
// reader index of ndlog.Analysis, run the delta pass (store.DeltaPass),
// the aggregate kernel (store.Aggregate) and the group lookup
// (ndlog.RulePlans.AggGroups). Each case injects its facts into a
// single-node network at the given times and compares the final state
// with an engine run over all of them (or both errors).
func TestDistMatchesEngine(t *testing.T) {
	n0 := value.Addr("n0")
	type fact struct {
		at   float64
		pred string
		tup  value.Tuple
	}
	lateNegFacts := []fact{
		{1, "e", value.Tuple{n0, value.Int(1), value.Int(5)}},
		{1, "e", value.Tuple{n0, value.Int(2), value.Int(5)}},
		{2, "q", value.Tuple{n0, value.Int(1)}},
	}
	cases := []struct {
		name    string
		src     string
		facts   []fact
		pred    string
		wantErr string // both evaluators must fail with this
	}{
		{
			// sum folds integers only, in both evaluators.
			name:  "sum over strings",
			src:   `t1 tot(@N,sum<V>) :- item(@N,V).`,
			facts: []fact{{1, "item", value.Tuple{n0, value.Str("a")}}, {1, "item", value.Tuple{n0, value.Str("b")}}},
			pred:  "tot", wantErr: "rule t1: sum over non-integer",
		},
		{
			// y's computed argument Y+1 cannot be evaluated from y alone:
			// it must act as a wildcard, so y arriving after x still
			// recomputes group n0.
			name:  "computed body argument",
			src:   `r1 b(@N,min<C>) :- x(@N,Y), y(@N,Y+1,C).`,
			facts: []fact{{0, "x", value.Tuple{n0, value.Int(1)}}, {1, "y", value.Tuple{n0, value.Int(2), value.Int(5)}}},
			pred:  "b",
		},
		{
			// With no materialize for emin, the head is keyed by its group
			// columns: the better min replaces the superseded one.
			name: "undeclared aggregate head",
			src: `materialize(e, infinity, infinity, keys(1,2,3)).
m1 emin(@A,X,min<C>) :- e(@A,X,C).`,
			facts: []fact{{1, "e", value.Tuple{n0, value.Int(1), value.Int(5)}}, {2, "e", value.Tuple{n0, value.Int(1), value.Int(3)}}},
			pred:  "emin",
		},
		{
			// q(n0,1) arriving after nq(n0,1) was derived kills that
			// derivation through the negated read.
			name:  "late negation, plain rule",
			src:   `n1 nq(@A,X) :- e(@A,X,C), !q(@A,X).`,
			facts: lateNegFacts,
			pred:  "nq",
		},
		{
			// The same late q recomputes an aggregate that reads q under
			// negation.
			name:  "late negation, aggregate",
			src:   `c1 cnt(@A,count<X>) :- e(@A,X,C), !q(@A,X).`,
			facts: lateNegFacts,
			pred:  "cnt",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := datalog.New(ndlog.MustParse("agg", tc.src))
			if err != nil {
				t.Fatal(err)
			}
			net, err := NewNetwork(ndlog.MustParse("agg", tc.src), netgraph.Line(1), Options{MaxTime: 100, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range tc.facts {
				if err := eng.Insert(f.pred, f.tup); err != nil {
					t.Fatal(err)
				}
				net.Inject(f.at, "n0", f.pred, f.tup)
			}
			engErr := eng.Run()
			_, netErr := net.Run()
			if tc.wantErr != "" {
				for who, err := range map[string]error{"engine": engErr, "dist": netErr} {
					if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
						t.Errorf("%s: error %v, want %q", who, err, tc.wantErr)
					}
				}
				return
			}
			if engErr != nil || netErr != nil {
				t.Fatalf("engine error %v, dist error %v", engErr, netErr)
			}
			want, got := eng.Query(tc.pred), net.Query("n0", tc.pred)
			if len(want) == 0 {
				t.Fatalf("engine derived no %s: the case tests nothing", tc.pred)
			}
			if len(want) != len(got) {
				t.Fatalf("%s: engine %v, dist %v", tc.pred, want, got)
			}
			for i := range want {
				if !want[i].Equal(got[i]) {
					t.Fatalf("%s: engine %v, dist %v", tc.pred, want, got)
				}
			}
		})
	}
}

// TestSelfJoinCountsDerivationOnce: a rule that reads the changed
// predicate at two body positions sees one derivation from both delta
// plans; the delta pass deduplicates the frame, so the runtime counts
// one derivation and records one firing, as the engine does.
func TestSelfJoinCountsDerivationOnce(t *testing.T) {
	rec := prov.New()
	net, err := NewNetwork(ndlog.MustParse("selfjoin", `j1 j(@A,X,Y) :- e(@A,X,C), e(@A,Y,C).`),
		netgraph.Line(1), Options{MaxTime: 100, Seed: 1, Prov: rec})
	if err != nil {
		t.Fatal(err)
	}
	net.Inject(1, "n0", "e", value.Tuple{value.Addr("n0"), value.Int(1), value.Int(5)})
	res, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Stats.Derivations; got != 1 {
		t.Errorf("derivations = %d, want 1", got)
	}
	firings := 0
	for id := prov.ID(1); int(id) <= rec.Len(); id++ {
		if e := rec.Get(id); e.Kind == prov.KindRule && rec.Str(e.Lbl) == "j1" {
			firings++
		}
	}
	if firings != 1 {
		t.Errorf("j1 firings recorded = %d, want 1", firings)
	}
}

// TestAggregateKeyColumnRejected: an aggregate head declared with its
// aggregate column in the primary key cannot be maintained (the key
// would keep every superseded value), so NewNetwork refuses it.
func TestAggregateKeyColumnRejected(t *testing.T) {
	src := `materialize(emin, infinity, infinity, keys(1,2,3)).
m1 emin(@A,X,min<C>) :- e(@A,X,C).`
	_, err := NewNetwork(ndlog.MustParse("agg", src), netgraph.Line(1), Options{MaxTime: 10})
	if err == nil || !strings.Contains(err.Error(), "key column 3 is the aggregate") {
		t.Fatalf("NewNetwork error %v, want the aggregate key column rejected", err)
	}
}
