package dist

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"repro/internal/ndlog"
	"repro/internal/netgraph"
	"repro/internal/value"
)

// rebuiltIndex is the topology index computed from scratch over the live
// topo.Links — the oracle the maintained index must always equal.
type rebuiltIndex struct {
	link map[linkKey]netgraph.Link
	out  map[string][]netgraph.Link
	nbrs map[string][]string
	comp map[string]int
}

func rebuildTopoIndex(topo *netgraph.Topology) rebuiltIndex {
	ri := rebuiltIndex{
		link: map[linkKey]netgraph.Link{},
		out:  map[string][]netgraph.Link{},
		nbrs: map[string][]string{},
		comp: map[string]int{},
	}
	ids := append([]string(nil), topo.Nodes...)
	seen := map[[2]string]bool{}
	for _, l := range topo.Links {
		ri.link[linkKey{l.Src, l.Dst}] = l
		ri.out[l.Src] = append(ri.out[l.Src], l)
		for _, p := range [][2]string{{l.Src, l.Dst}, {l.Dst, l.Src}} {
			if !seen[p] {
				seen[p] = true
				ri.nbrs[p[0]] = append(ri.nbrs[p[0]], p[1])
			}
		}
		ids = append(ids, l.Src, l.Dst)
	}
	for _, v := range ri.nbrs {
		sort.Strings(v)
	}
	label := 0
	for _, start := range ids {
		if _, ok := ri.comp[start]; ok {
			continue
		}
		ri.comp[start] = label
		stack := []string{start}
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, next := range ri.nbrs[cur] {
				if _, ok := ri.comp[next]; !ok {
					ri.comp[next] = label
					stack = append(stack, next)
				}
			}
		}
		label++
	}
	return ri
}

// checkTopoIndex fails the test unless the network's maintained index
// equals a from-scratch build over its live topology: link map,
// out-link order, neighbors, and the component partition (labels may
// differ, the partition may not; label sizes must count members).
func checkTopoIndex(t *testing.T, net *Network, when string) {
	t.Helper()
	ti, want := net.topoIdx(), rebuildTopoIndex(net.topo)
	if !maps.Equal(ti.link, want.link) {
		t.Fatalf("%s: link map has %d entries, rebuild has %d (or values differ)", when, len(ti.link), len(want.link))
	}
	if len(ti.ids) != len(want.comp) {
		t.Fatalf("%s: index has %d nodes, rebuild has %d", when, len(ti.ids), len(want.comp))
	}
	fwd, back := map[int32]int{}, map[int]int32{}
	members := map[int32]int32{}
	for s, id := range ti.ids {
		if got := ti.outLinks(id); !slices.Equal(got, want.out[id]) {
			t.Fatalf("%s: out-links of %s = %v, rebuild %v", when, id, got, want.out[id])
		}
		if got := ti.neighbors(id); !slices.Equal(got, want.nbrs[id]) {
			t.Fatalf("%s: neighbors of %s = %v, rebuild %v", when, id, got, want.nbrs[id])
		}
		l, wl := ti.comp[s], want.comp[id]
		if f, ok := fwd[l]; ok && f != wl {
			t.Fatalf("%s: label %d spans rebuild components %d and %d", when, l, f, wl)
		}
		if b, ok := back[wl]; ok && b != l {
			t.Fatalf("%s: rebuild component %d split across labels %d and %d", when, wl, b, l)
		}
		fwd[l], back[wl] = wl, l
		members[l]++
	}
	for l, n := range members {
		if ti.size[l] != n {
			t.Fatalf("%s: label %d sized %d, has %d members", when, l, ti.size[l], n)
		}
	}
}

// nbrSrc sends each link's reverse adjacency across it, so link churn
// drives inserts and retractions over the links being flapped.
const nbrSrc = `
materialize(link, infinity, infinity, keys(1,2)).
materialize(nbr, infinity, infinity, keys(1,2)).
r1 nbr(@Z,N) :- link(@N,Z,C).
`

func TestTopoIndexMatchesRebuildUnderChurn(t *testing.T) {
	for _, tc := range []struct {
		name string
		topo func() *netgraph.Topology
	}{
		{"pa60", func() *netgraph.Topology { return netgraph.PreferentialAttachment(60, 2, 3) }},
		{"grid4x4", func() *netgraph.Topology { return netgraph.Grid(4, 4) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net, err := NewNetwork(ndlog.MustParse("nbr", nbrSrc), tc.topo(), Options{
				MaxTime:           1e9,
				LoadTopologyLinks: true,
				Seed:              5,
			})
			if err != nil {
				t.Fatal(err)
			}
			run := func(what string) {
				t.Helper()
				if _, err := net.Run(); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				checkTopoIndex(t, net, what)
			}
			run("initial")
			r := rand.New(rand.NewPCG(11, 0))
			nodes := net.topo.Nodes
			var failed []netgraph.Link
			var crashed []string
			var parts []int
			for step := 0; step < 300; step++ {
				at := net.Now() + 1
				switch op := r.IntN(6); {
				case op == 0 && len(net.topo.Links) > 0:
					l := net.topo.Links[r.IntN(len(net.topo.Links))]
					net.FailLink(at, l.Src, l.Dst)
					failed = append(failed, l)
				case op == 1 && len(failed) > 0:
					i := r.IntN(len(failed))
					l := failed[i]
					failed = slices.Delete(failed, i, i+1)
					net.RestoreLink(at, l.Src, l.Dst, l.Cost)
				case op == 2:
					id := nodes[r.IntN(len(nodes))]
					net.CrashNode(at, id)
					crashed = append(crashed, id)
				case op == 3 && len(crashed) > 0:
					i := r.IntN(len(crashed))
					net.RestartNode(at, crashed[i])
					crashed = slices.Delete(crashed, i, i+1)
				case op == 4:
					group := []string{nodes[r.IntN(len(nodes))], nodes[r.IntN(len(nodes))]}
					parts = append(parts, net.Partition(at, group))
				case op == 5 && len(parts) > 0:
					i := r.IntN(len(parts))
					net.HealPartition(at, parts[i])
					parts = slices.Delete(parts, i, i+1)
				default:
					continue
				}
				run(fmt.Sprintf("step %d", step))
			}
		})
	}
}

// TestRestoreLinkIndexesBothDirections pins that a restore indexes both
// directions of the link before either endpoint's insert cascade runs:
// a stale index missing b→a would silently discard every retraction b
// queues to a (as if the link were dead) until the next topology change.
func TestRestoreLinkIndexesBothDirections(t *testing.T) {
	topo := netgraph.PreferentialAttachment(200, 2, 7)
	net, err := NewNetwork(ndlog.MustParse("dv", distVectorSrc), topo, Options{
		MaxTime:           1e9,
		LoadTopologyLinks: true,
		Seed:              1,
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Inject(0, "n0", "self", value.Tuple{value.Addr("n0")})
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	// Flap candidates are drawn from the original links and must keep
	// the graph connected, or the distance vector counts to infinity.
	links := append([]netgraph.Link(nil), topo.Links...)
	connectedWithout := func(l netgraph.Link) bool {
		c := &netgraph.Topology{Nodes: topo.Nodes, Links: append([]netgraph.Link(nil), links...)}
		c.RemoveLink(l.Src, l.Dst)
		return c.Connected()
	}
	r := rand.New(rand.NewPCG(2, 0))
	for flaps := 0; flaps < 60; {
		l := links[r.IntN(len(links))]
		if !connectedWithout(l) {
			continue
		}
		flaps++
		a, b := l.Src, l.Dst
		net.FailLink(net.Now()+1, a, b)
		if _, err := net.Run(); err != nil {
			t.Fatal(err)
		}
		net.RestoreLink(net.Now()+1, a, b, l.Cost)
		res, err := net.Run()
		if err != nil || !res.Converged {
			t.Fatalf("restore %s-%s: converged=%v err=%v", a, b, res.Converged, err)
		}
		for _, d := range [][2]string{{a, b}, {b, a}} {
			if !net.topoIdx().hasLink(d[0], d[1]) {
				t.Fatalf("flap %d: restored link %s→%s missing from the topology index", flaps, d[0], d[1])
			}
			// A retraction over the restored link must become a message.
			sent := net.Stats().MessagesSent
			net.queueRemote(d[0], d[1], msgEntry{pred: "nbrb", tup: value.Tuple{value.Addr(d[1]), value.Addr(d[0]), value.Addr("nX"), value.Int(-1)}, del: true})
			net.flushOutbox()
			if got := net.Stats().MessagesSent; got != sent+1 {
				t.Fatalf("flap %d: retraction %s→%s sent %d messages, want 1", flaps, d[0], d[1], got-sent)
			}
		}
	}
}
