package dist

import (
	"strings"
	"testing"

	"repro/internal/datalog"
	"repro/internal/ndlog"
	"repro/internal/netgraph"
	"repro/internal/value"
)

// TestAggregatesMatchEngine pins aggregate programs on which the
// distributed runtime must compute what the centralized engine computes:
// both run the aggregate kernel (store.Aggregate) and the group lookup
// (ndlog.RulePlans.AggGroups). Each case injects its facts into a
// single-node network at the given times and compares the final state
// with an engine run over all of them (or both errors).
func TestAggregatesMatchEngine(t *testing.T) {
	n0 := value.Addr("n0")
	type fact struct {
		at   float64
		pred string
		tup  value.Tuple
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
