package netgraph

import (
	"maps"
	"sync"
	"testing"
	"testing/quick"
)

func TestGeneratorShapes(t *testing.T) {
	cases := []struct {
		topo      *Topology
		nodes     int
		links     int // directed
		connected bool
	}{
		{Line(4), 4, 6, true},
		{Ring(4), 4, 8, true},
		{Ring(2), 2, 2, true}, // degenerate ring = line
		{Star(5), 5, 8, true},
		{Clique(4), 4, 12, true},
		{Grid(2, 3), 6, 14, true},
		{Tree(7), 7, 12, true},
		{Line(1), 1, 0, true},
	}
	for _, tc := range cases {
		if got := len(tc.topo.Nodes); got != tc.nodes {
			t.Errorf("%s: nodes = %d, want %d", tc.topo.Name, got, tc.nodes)
		}
		if got := len(tc.topo.Links); got != tc.links {
			t.Errorf("%s: links = %d, want %d", tc.topo.Name, got, tc.links)
		}
		if got := tc.topo.Connected(); got != tc.connected {
			t.Errorf("%s: connected = %v, want %v", tc.topo.Name, got, tc.connected)
		}
	}
}

func TestRandomConnectedProperties(t *testing.T) {
	f := func(seed uint16, p8 uint8) bool {
		n := 8
		p := float64(p8%50) / 100
		topo := RandomConnected(n, p, 4, uint64(seed))
		if len(topo.Nodes) != n {
			return false
		}
		if !topo.Connected() {
			return false
		}
		// Symmetric links with equal costs, no duplicates.
		seen := map[[2]string]int64{}
		for _, l := range topo.Links {
			if _, dup := seen[[2]string{l.Src, l.Dst}]; dup {
				return false
			}
			seen[[2]string{l.Src, l.Dst}] = l.Cost
		}
		for k, c := range seen {
			if rc, ok := seen[[2]string{k[1], k[0]}]; !ok || rc != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestRandomConnectedDeterministic(t *testing.T) {
	a := RandomConnected(10, 0.3, 4, 7)
	b := RandomConnected(10, 0.3, 4, 7)
	if len(a.Links) != len(b.Links) {
		t.Fatal("same seed produced different graphs")
	}
	for i := range a.Links {
		if a.Links[i] != b.Links[i] {
			t.Fatal("same seed produced different links")
		}
	}
}

func TestShortestCostsAgainstLine(t *testing.T) {
	topo := Line(5)
	d := topo.ShortestCosts()
	if d["n0"]["n4"] != 4 || d["n4"]["n0"] != 4 || d["n1"]["n3"] != 2 {
		t.Errorf("line distances wrong: %v", d["n0"])
	}
	// Ring halves the distance around the far side.
	ring := Ring(6)
	dr := ring.ShortestCosts()
	if dr["n0"]["n5"] != 1 || dr["n0"]["n3"] != 3 {
		t.Errorf("ring distances wrong: %v", dr["n0"])
	}
}

func TestShortestCostsRespectWeights(t *testing.T) {
	topo := &Topology{Nodes: []string{"a", "b", "c"}}
	topo.addBoth("a", "b", 10)
	topo.addBoth("b", "c", 10)
	topo.addBoth("a", "c", 1)
	d := topo.ShortestCosts()
	if d["a"]["b"] != 10 {
		t.Errorf("a->b = %d, want 10 (direct)", d["a"]["b"])
	}
	if d["a"]["c"] != 1 {
		t.Errorf("a->c = %d, want 1", d["a"]["c"])
	}
	if d["b"]["c"] != 10 {
		t.Errorf("b->c = %d, want 10 (direct beats 11 via a)", d["b"]["c"])
	}
}

// bellmanFord is an independent single-source oracle: relax every link
// until nothing changes.
func bellmanFord(t *Topology, src string) map[string]int64 {
	d := map[string]int64{src: 0}
	for changed := true; changed; {
		changed = false
		for _, l := range t.Links {
			du, ok := d[l.Src]
			if !ok {
				continue
			}
			if dv, ok := d[l.Dst]; !ok || du+l.Cost < dv {
				d[l.Dst] = du + l.Cost
				changed = true
			}
		}
	}
	return d
}

// TestShortestFromAcrossTopologies runs ShortestFrom over topologies of
// different sizes, and over one topology before and after a link
// removal, in one sequence: the working storage the calls share must
// carry nothing from one call into the next.
func TestShortestFromAcrossTopologies(t *testing.T) {
	big := RandomConnected(60, 0.1, 9, 3)
	cut := RandomConnected(60, 0.1, 9, 3)
	cut.RemoveLink(cut.Links[0].Src, cut.Links[0].Dst)
	stray := Line(3)
	stray.Links = append(stray.Links, Link{Src: "n2", Dst: "elsewhere", Cost: 1})
	for i, topo := range []*Topology{big, Ring(5), cut, stray, big} {
		got := topo.ShortestFrom(topo.Nodes[0])
		want := bellmanFord(topo, topo.Nodes[0])
		delete(want, "elsewhere") // not a node of the topology
		if len(got) != len(want) {
			t.Fatalf("call %d: %d nodes reached, want %d", i, len(got), len(want))
		}
		for n, w := range want {
			if got[n] != w {
				t.Errorf("call %d: cost to %s = %d, want %d", i, n, got[n], w)
			}
		}
	}
	if got := Ring(4).ShortestFrom("nowhere"); got != nil {
		t.Errorf("unknown source: got %v, want nil", got)
	}
}

// TestShortestFromConcurrent calls ShortestFrom and ShortestCosts from
// several goroutines at once: each call must own its working storage.
func TestShortestFromConcurrent(t *testing.T) {
	topos := []*Topology{RandomConnected(40, 0.1, 9, 1), Ring(7), Grid(4, 5), PreferentialAttachment(80, 2, 5)}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		topo := topos[g%len(topos)]
		want := bellmanFord(topo, topo.Nodes[0])
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got := topo.ShortestFrom(topo.Nodes[0])
				if !maps.Equal(got, want) {
					t.Errorf("%s: ShortestFrom differs from Bellman-Ford", topo.Name)
					return
				}
				if row := topo.ShortestCosts()[topo.Nodes[0]]; len(row) != len(want)-1 {
					t.Errorf("%s: ShortestCosts reaches %d nodes, want %d", topo.Name, len(row), len(want)-1)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestShortestFromAllocations bounds the allocations of one ShortestFrom
// call once its working storage is warm: the result map and nothing
// that grows with the graph. Rebuilding the index per call cost one
// allocation per node.
func TestShortestFromAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops objects at random under the race detector")
	}
	topo := PreferentialAttachment(500, 2, 7)
	topo.ShortestFrom("n0")
	allocs := testing.AllocsPerRun(50, func() { topo.ShortestFrom("n0") })
	if allocs > 10 {
		t.Errorf("ShortestFrom made %.0f allocations per call on 500 nodes, want <= 10", allocs)
	}
}

func TestRemoveLinkAndHasLink(t *testing.T) {
	topo := Ring(4)
	if !topo.HasLink("n0", "n1") {
		t.Fatal("missing expected link")
	}
	if n := topo.RemoveLink("n0", "n1"); n != 2 {
		t.Errorf("removed %d links, want 2", n)
	}
	if topo.HasLink("n0", "n1") || topo.HasLink("n1", "n0") {
		t.Error("link survived removal")
	}
	if topo.RemoveLink("n0", "n1") != 0 {
		t.Error("second removal removed something")
	}
	// Still connected the long way.
	if !topo.Connected() {
		t.Error("ring minus one edge must stay connected")
	}
}

func TestNeighbors(t *testing.T) {
	topo := Star(4)
	hub := topo.Neighbors("n0")
	if len(hub) != 3 {
		t.Errorf("hub neighbors = %v", hub)
	}
	spoke := topo.Neighbors("n1")
	if len(spoke) != 1 || spoke[0] != "n0" {
		t.Errorf("spoke neighbors = %v", spoke)
	}
}

func TestLinkTuples(t *testing.T) {
	topo := Line(2)
	ts := topo.LinkTuples()
	if len(ts) != 2 {
		t.Fatalf("tuples = %d", len(ts))
	}
	if ts[0][0].S != "n0" || ts[0][1].S != "n1" || ts[0][2].I != 1 {
		t.Errorf("tuple = %v", ts[0])
	}
}

func TestDisconnectedDetected(t *testing.T) {
	topo := &Topology{Nodes: []string{"a", "b"}}
	if topo.Connected() {
		t.Error("two isolated nodes reported connected")
	}
	empty := &Topology{}
	if !empty.Connected() {
		t.Error("empty topology should be trivially connected")
	}
}
