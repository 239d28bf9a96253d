package datalog

import (
	"fmt"
	"testing"

	"repro/internal/ndlog"
)

// differential test programs: each exercises a different plan shape —
// recursion with functions, aggregates, negation, and delete rules.
var diffPrograms = []struct {
	name  string
	src   string
	facts []string
}{
	{"pathvector", pathVectorSrc, []string{
		"link(@a,b,1)", "link(@b,a,1)", "link(@b,c,1)", "link(@c,b,1)",
		"link(@c,d,1)", "link(@d,c,1)", "link(@a,d,5)", "link(@d,a,5)",
	}},
	{"aggregates", `
materialize(e, infinity, infinity, keys(1,2,3)).
materialize(lo, infinity, infinity, keys(1,2)).
materialize(hi, infinity, infinity, keys(1,2)).
materialize(n, infinity, infinity, keys(1,2)).
a1 lo(@S,min<C>) :- e(@S,D,C).
a2 hi(@S,max<C>) :- e(@S,D,C).
a3 n(@S,count<D>) :- e(@S,D,C).
`, []string{
		"e(@a,b,3)", "e(@a,c,1)", "e(@a,d,7)", "e(@b,a,2)", "e(@b,d,2)",
	}},
	{"negation", `
materialize(e, infinity, infinity, keys(1,2)).
materialize(block, infinity, infinity, keys(1,2)).
materialize(two, infinity, infinity, keys(1,2)).
materialize(only, infinity, infinity, keys(1,2)).
r1 two(@A,C) :- e(@A,B), e(@B,C).
r2 only(@A,C) :- two(@A,C), !block(@A,C).
`, []string{
		"e(@a,b)", "e(@b,c)", "e(@b,d)", "e(@c,d)", "block(@a,c)",
	}},
	{"deletes", `
materialize(e, infinity, infinity, keys(1,2)).
materialize(down, infinity, infinity, keys(1,2)).
materialize(route, infinity, infinity, keys(1,2)).
materialize(pair, infinity, infinity, keys(1,2)).
r1 route(@A,B) :- e(@A,B).
rd delete route(@A,B) :- down(@A,B), e(@A,B).
r2 pair(@A,C) :- route(@A,B), route(@B,C).
`, []string{
		"e(@a,b)", "e(@b,c)", "e(@c,d)", "down(@b,c)",
	}},
}

func buildDiffEngine(t *testing.T, src string, facts []string, parallel bool) *Engine {
	t.Helper()
	full := src + "\n"
	for _, f := range facts {
		full += f + ".\n"
	}
	prog, err := ndlog.Parse("diff", full)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(prog)
	if err != nil {
		t.Fatal(err)
	}
	e.Parallel = parallel
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return e
}

func snapshot(e *Engine) map[string]string {
	out := map[string]string{}
	for pred := range e.An.Derived {
		s := ""
		for _, tp := range e.Query(pred) {
			s += tp.String() + " "
		}
		out[pred] = s
	}
	return out
}

// TestParallelMatchesSequential: parallel evaluation of independent
// rule components must reach the same relations and do the same work
// (Derivations, NewTuples, JoinProbes). Iterations is excluded — each
// component counts its own fixpoint rounds, so the merged sum
// legitimately differs from the sequential round count.
func TestParallelMatchesSequential(t *testing.T) {
	for _, p := range diffPrograms {
		t.Run(p.name, func(t *testing.T) {
			seq := buildDiffEngine(t, p.src, p.facts, false)
			par := buildDiffEngine(t, p.src, p.facts, true)
			sSnap, pSnap := snapshot(seq), snapshot(par)
			for pred, want := range sSnap {
				if pSnap[pred] != want {
					t.Errorf("%s: sequential %q, parallel %q", pred, want, pSnap[pred])
				}
			}
			if seq.Stats.Derivations != par.Stats.Derivations ||
				seq.Stats.NewTuples != par.Stats.NewTuples ||
				seq.Stats.JoinProbes != par.Stats.JoinProbes {
				t.Errorf("work differs: sequential %+v, parallel %+v", seq.Stats, par.Stats)
			}
		})
	}
}

// TestDifferentialRandomTopologies stresses the path-vector program on
// randomized directed graphs: every bestPathCost tuple must equal the
// shortest-path cost over the same link facts, computed independently
// here (Floyd-Warshall), and every reachable pair must have one.
func TestDifferentialRandomTopologies(t *testing.T) {
	nodes := []string{"a", "b", "c", "d", "e"}
	const inf = int64(1) << 40
	pairs := 0
	for seed := uint64(1); seed <= 12; seed++ {
		state := seed * 0x9e3779b97f4a7c15
		next := func(n uint64) uint64 {
			state = state*6364136223846793005 + 1442695040888963407
			return (state >> 33) % n
		}
		// The engine's relations have set semantics, so parallel links
		// with different costs coexist; the cheapest one counts.
		dist := make([][]int64, len(nodes))
		for i := range dist {
			dist[i] = make([]int64, len(nodes))
			for j := range dist[i] {
				dist[i][j] = inf
			}
		}
		var facts []string
		for i := 0; i < 8; i++ {
			s := next(uint64(len(nodes)))
			d := next(uint64(len(nodes)))
			if s == d {
				continue
			}
			c := next(9) + 1
			facts = append(facts, fmt.Sprintf("link(@%s,%s,%d)", nodes[s], nodes[d], c))
			dist[s][d] = min(dist[s][d], int64(c))
		}
		for k := range nodes {
			for i := range nodes {
				for j := range nodes {
					if dist[i][k]+dist[k][j] < dist[i][j] {
						dist[i][j] = dist[i][k] + dist[k][j]
					}
				}
			}
		}
		want := map[string]int64{}
		for i, s := range nodes {
			for j, d := range nodes {
				if i != j && dist[i][j] < inf {
					want[s+">"+d] = dist[i][j]
				}
			}
		}

		e := buildDiffEngine(t, pathVectorSrc, facts, true)
		got := map[string]int64{}
		for _, tp := range e.Query("bestPathCost") {
			got[tp[0].S+">"+tp[1].S] = tp[2].I
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d bestPathCost tuples, shortest paths give %d\n links %v\n got %v\n want %v",
				seed, len(got), len(want), facts, got, want)
		}
		for k, c := range want {
			if got[k] != c {
				t.Fatalf("seed %d: bestPathCost %s = %d, shortest path %d\n links %v", seed, k, got[k], c, facts)
			}
		}
		pairs += len(want)
	}
	if pairs == 0 {
		t.Fatal("degenerate test vector: no reachable pairs")
	}
}
