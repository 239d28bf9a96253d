package dist

import (
	"math"
	"slices"
	"sort"

	"repro/internal/netgraph"
)

// linkKey names one directed link.
type linkKey struct{ src, dst string }

// topoIndex holds the per-link and per-node lookups over the live
// topology, plus its connected-component labels. It is built once per
// network, on first use, and linkDown and linkUp keep it current in
// O(degree) per change (component relabelling aside, which touches only
// the smaller side of a merge or split). At 10^5 nodes and 10^6 links
// the linear scans it replaces (the per-transmit latency lookup, the
// per-wave out-link enumeration, the per-arrival reachability check)
// would dominate the whole run, and so would rebuilding it per flap.
//
// Nodes get dense int32 slots so the adjacency and labels are slices;
// slot order is topo.Nodes order, with any link endpoint outside
// topo.Nodes appended when first seen.
type topoIndex struct {
	slot map[string]int32 // node id -> slot
	ids  []string         // slot -> node id

	link map[linkKey]netgraph.Link // live directed link
	out  [][]netgraph.Link         // slot -> out-links, in topo.Links order
	nbrs [][]int32                 // slot -> neighbors either way, sorted

	// comp labels each slot with its connected component of the
	// undirected topology; size counts each label's members and free
	// holds labels emptied by merges, reused by splits.
	comp []int32
	size []int32
	free []int32

	// Search scratch for split detection: mark[s] is stamp or stamp+1
	// when the current search reached s from one endpoint or the other.
	mark   []uint32
	stamp  uint32
	qa, qb []int32
}

// newTopoIndex indexes topo's links and labels its components.
func newTopoIndex(topo *netgraph.Topology) *topoIndex {
	ti := &topoIndex{
		slot: make(map[string]int32, len(topo.Nodes)),
		link: make(map[linkKey]netgraph.Link, len(topo.Links)),
	}
	for _, id := range topo.Nodes {
		ti.slotOf(id)
	}
	for _, l := range topo.Links {
		s, d := ti.slotOf(l.Src), ti.slotOf(l.Dst)
		ti.link[linkKey{l.Src, l.Dst}] = l
		ti.out[s] = append(ti.out[s], l)
		ti.nbrs[s] = append(ti.nbrs[s], d)
		ti.nbrs[d] = append(ti.nbrs[d], s)
	}
	for s, v := range ti.nbrs {
		slices.Sort(v)
		ti.nbrs[s] = slices.Compact(v)
	}
	// Every slot starts as its own singleton component; merging along
	// each neighbor pair then yields the labelling.
	for s := range ti.nbrs {
		for _, d := range ti.nbrs[s] {
			ti.merge(int32(s), d)
		}
	}
	return ti
}

// slotOf returns id's slot, assigning a fresh singleton one if id is new.
func (ti *topoIndex) slotOf(id string) int32 {
	if s, ok := ti.slot[id]; ok {
		return s
	}
	s := int32(len(ti.ids))
	ti.slot[id] = s
	ti.ids = append(ti.ids, id)
	ti.out = append(ti.out, nil)
	ti.nbrs = append(ti.nbrs, nil)
	ti.mark = append(ti.mark, 0)
	ti.comp = append(ti.comp, ti.newLabel(1))
	return s
}

// newLabel returns an unused component label with the given size.
func (ti *topoIndex) newLabel(size int32) int32 {
	if k := len(ti.free); k > 0 {
		l := ti.free[k-1]
		ti.free = ti.free[:k-1]
		ti.size[l] = size
		return l
	}
	ti.size = append(ti.size, size)
	return int32(len(ti.size) - 1)
}

// hasLink reports whether the directed src→dst link is live.
func (ti *topoIndex) hasLink(src, dst string) bool {
	_, ok := ti.link[linkKey{src, dst}]
	return ok
}

// outLinks returns id's live out-links in topo.Links order.
func (ti *topoIndex) outLinks(id string) []netgraph.Link {
	if s, ok := ti.slot[id]; ok {
		return ti.out[s]
	}
	return nil
}

// neighbors returns the nodes adjacent to id either way, sorted by id.
func (ti *topoIndex) neighbors(id string) []string {
	s, ok := ti.slot[id]
	if !ok || len(ti.nbrs[s]) == 0 {
		return nil
	}
	out := make([]string, len(ti.nbrs[s]))
	for i, d := range ti.nbrs[s] {
		out[i] = ti.ids[d]
	}
	sort.Strings(out)
	return out
}

// connected reports whether a and b lie in the same component.
func (ti *topoIndex) connected(a, b string) bool {
	sa, ok1 := ti.slot[a]
	sb, ok2 := ti.slot[b]
	return ok1 && ok2 && ti.comp[sa] == ti.comp[sb]
}

func (ti *topoIndex) addNbr(s, d int32) {
	if i, ok := slices.BinarySearch(ti.nbrs[s], d); !ok {
		ti.nbrs[s] = slices.Insert(ti.nbrs[s], i, d)
	}
}

func (ti *topoIndex) dropNbr(s, d int32) bool {
	i, ok := slices.BinarySearch(ti.nbrs[s], d)
	if ok {
		ti.nbrs[s] = slices.Delete(ti.nbrs[s], i, i+1)
	}
	return ok
}

// addLink records the directed link l, reporting false (and changing
// nothing) when src→dst is already live. The caller appends l to
// topo.Links in the same step, so out-link order stays topo.Links order.
func (ti *topoIndex) addLink(l netgraph.Link) bool {
	k := linkKey{l.Src, l.Dst}
	if _, ok := ti.link[k]; ok {
		return false
	}
	s, d := ti.slotOf(l.Src), ti.slotOf(l.Dst)
	ti.link[k] = l
	ti.out[s] = append(ti.out[s], l)
	ti.addNbr(s, d)
	ti.addNbr(d, s)
	ti.merge(s, d)
	return true
}

// removeLink drops every directed link between a and b, matching
// netgraph.Topology.RemoveLink, and splits their component if that was
// its last connection.
func (ti *topoIndex) removeLink(a, b string) {
	sa, ok1 := ti.slot[a]
	sb, ok2 := ti.slot[b]
	if !ok1 || !ok2 || !ti.dropNbr(sa, sb) {
		return
	}
	ti.dropNbr(sb, sa)
	delete(ti.link, linkKey{a, b})
	delete(ti.link, linkKey{b, a})
	ti.out[sa] = dropOut(ti.out[sa], b)
	ti.out[sb] = dropOut(ti.out[sb], a)
	if sa != sb {
		ti.split(sa, sb)
	}
}

// dropOut filters the links to dst out of ls in place, keeping order.
func dropOut(ls []netgraph.Link, dst string) []netgraph.Link {
	w := ls[:0]
	for _, l := range ls {
		if l.Dst != dst {
			w = append(w, l)
		}
	}
	clear(ls[len(w):])
	return w
}

// merge joins the components of a and b, relabelling the smaller one.
func (ti *topoIndex) merge(a, b int32) {
	la, lb := ti.comp[a], ti.comp[b]
	if la == lb {
		return
	}
	if ti.size[la] > ti.size[lb] {
		a, la, lb = b, lb, la
	}
	q := append(ti.qa[:0], a)
	ti.comp[a] = lb
	for h := 0; h < len(q); h++ {
		for _, v := range ti.nbrs[q[h]] {
			if ti.comp[v] == la {
				ti.comp[v] = lb
				q = append(q, v)
			}
		}
	}
	ti.size[lb] += ti.size[la]
	ti.size[la] = 0
	ti.free = append(ti.free, la)
	ti.qa = q
}

// split runs after the last a–b link went away. Two breadth-first
// searches, one from each endpoint, advance a node at a time: if they
// meet, a and b are still connected and nothing changes; if one runs
// dry, it has enumerated a whole component, which gets a fresh label.
// Either way the work is bounded by twice the smaller side.
func (ti *topoIndex) split(a, b int32) {
	if ti.stamp >= math.MaxUint32-2 {
		clear(ti.mark)
		ti.stamp = 0
	}
	ti.stamp += 2
	ma, mb := ti.stamp, ti.stamp+1
	qa, qb := append(ti.qa[:0], a), append(ti.qb[:0], b)
	ti.mark[a], ti.mark[b] = ma, mb
	defer func() { ti.qa, ti.qb = qa, qb }()
	for ha, hb := 0, 0; ; ha, hb = ha+1, hb+1 {
		if ha == len(qa) {
			ti.relabel(qa)
			return
		}
		if hb == len(qb) {
			ti.relabel(qb)
			return
		}
		var met bool
		if qa, met = ti.expand(qa, qa[ha], ma, mb); met {
			return
		}
		if qb, met = ti.expand(qb, qb[hb], mb, ma); met {
			return
		}
	}
}

// expand appends u's unvisited neighbors to q under mark own, reporting
// whether it touched a node the other search (mark other) already holds.
func (ti *topoIndex) expand(q []int32, u int32, own, other uint32) ([]int32, bool) {
	for _, v := range ti.nbrs[u] {
		switch ti.mark[v] {
		case other:
			return q, true
		case own:
			continue
		}
		ti.mark[v] = own
		q = append(q, v)
	}
	return q, false
}

// relabel moves the complete component side (a split-off part of its
// old component) to a fresh label.
func (ti *topoIndex) relabel(side []int32) {
	old := ti.comp[side[0]]
	n := int32(len(side))
	l := ti.newLabel(n)
	ti.size[old] -= n
	for _, s := range side {
		ti.comp[s] = l
	}
}
