package datalog

import (
	"testing"

	"repro/internal/ndlog"
	"repro/internal/netgraph"
	"repro/internal/value"
)

// maxAllocsPerLinkDelete bounds the allocations of one link-delete
// Update of the path-vector program on ring:16: measured 2,925, plus a 6%
// margin. Allocation counts of a fixed workload repeat run to run where
// wall-clock times on a shared host do not, so this gate pins the
// engine's per-update allocation diet as a count. Raise it only with a
// recorded reason.
const maxAllocsPerLinkDelete = 3100

// ringEngine returns the path-vector engine at its fixpoint on ring:16,
// warmed by one delete/reinsert of link so that the lazily built
// maintenance state (support counts, executors, indexes) exists.
func ringEngine(t *testing.T, link value.Tuple) *Engine {
	t.Helper()
	e, err := New(ndlog.MustParse("pv", pvSrcProbe))
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range netgraph.Ring(16).LinkTuples() {
		if err := e.Insert("link", l); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for _, del := range []bool{true, false} {
		if err := e.Update([]Change{{Pred: "link", Tup: link, Del: del}}); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func TestLinkDeleteAllocations(t *testing.T) {
	link := netgraph.Ring(16).LinkTuples()[0]
	// AllocsPerRun calls f once to warm up and then runs times; each call
	// deletes the link from its own identically prepared engine, so every
	// measured call is the same single link-delete Update.
	const runs = 3
	engines := make([]*Engine, runs+1)
	for i := range engines {
		engines[i] = ringEngine(t, link)
	}
	next := 0
	var err error
	allocs := testing.AllocsPerRun(runs, func() {
		if e := engines[next].Update([]Change{{Pred: "link", Tup: link, Del: true}}); e != nil && err == nil {
			err = e
		}
		next++
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("allocations per link-delete Update: %.0f", allocs)
	if allocs > maxAllocsPerLinkDelete {
		t.Errorf("one link-delete Update allocated %.0f times, bound %d", allocs, maxAllocsPerLinkDelete)
	}
}

// TestAggGroupsAllocatesNothing: the aggregate-group lookup of a plain
// variable atom (r3's path(@S,D,P,C)) runs on the caller's scratch.
func TestAggGroupsAllocatesNothing(t *testing.T) {
	an, err := ndlog.Analyze(ndlog.MustParse("pv", pvSrcProbe))
	if err != nil {
		t.Fatal(err)
	}
	r3, _ := an.Prog.RuleByLabel("r3")
	rp := an.Plans[r3]
	path := value.Tuple{value.Addr("n0"), value.Addr("n2"), value.List(value.Addr("n0"), value.Addr("n1"), value.Addr("n2")), value.Int(2)}
	var s ndlog.AggScratch
	keep := func(key value.Tuple, contrib value.V, ok bool) bool { return ok }
	allocs := testing.AllocsPerRun(100, func() {
		if keys, all := rp.AggGroups(&s, "path", path, keep); len(keys) != 1 || all {
			t.Fatalf("AggGroups = %v, %v", keys, all)
		}
	})
	if allocs != 0 {
		t.Errorf("AggGroups allocated %.1f times per call, want 0", allocs)
	}
}
