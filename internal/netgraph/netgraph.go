// Package netgraph generates network topologies and link workloads for the
// FVN experiments: lines, rings, stars, grids, trees, cliques, and seeded
// random graphs. Topologies feed the Datalog engine (as link facts), the
// distributed runtime (as nodes and channels), and the BGP gadgets.
package netgraph

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/value"
)

// Link is a directed edge with a routing cost and a propagation latency
// (in simulated time units) used by the distributed runtime.
type Link struct {
	Src, Dst string
	Cost     int64
	Latency  float64
}

// Topology is a set of named nodes and directed links.
type Topology struct {
	Name  string
	Nodes []string
	Links []Link
}

// node returns the canonical name of node i.
func node(i int) string { return fmt.Sprintf("n%d", i) }

// addBoth appends the symmetric pair of links.
func (t *Topology) addBoth(a, b string, cost int64) {
	t.Links = append(t.Links,
		Link{Src: a, Dst: b, Cost: cost, Latency: 1},
		Link{Src: b, Dst: a, Cost: cost, Latency: 1},
	)
}

// Line builds a path topology n0-n1-...-n{n-1} with unit costs.
func Line(n int) *Topology {
	t := &Topology{Name: fmt.Sprintf("line%d", n)}
	for i := 0; i < n; i++ {
		t.Nodes = append(t.Nodes, node(i))
	}
	for i := 0; i+1 < n; i++ {
		t.addBoth(node(i), node(i+1), 1)
	}
	return t
}

// Ring builds a cycle topology with unit costs.
func Ring(n int) *Topology {
	t := Line(n)
	t.Name = fmt.Sprintf("ring%d", n)
	if n > 2 {
		t.addBoth(node(n-1), node(0), 1)
	}
	return t
}

// Star builds a hub-and-spoke topology with n0 as the hub.
func Star(n int) *Topology {
	t := &Topology{Name: fmt.Sprintf("star%d", n)}
	for i := 0; i < n; i++ {
		t.Nodes = append(t.Nodes, node(i))
	}
	for i := 1; i < n; i++ {
		t.addBoth(node(0), node(i), 1)
	}
	return t
}

// Clique builds a complete graph with unit costs.
func Clique(n int) *Topology {
	t := &Topology{Name: fmt.Sprintf("clique%d", n)}
	for i := 0; i < n; i++ {
		t.Nodes = append(t.Nodes, node(i))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			t.addBoth(node(i), node(j), 1)
		}
	}
	return t
}

// Grid builds a rows×cols mesh with unit costs.
func Grid(rows, cols int) *Topology {
	t := &Topology{Name: fmt.Sprintf("grid%dx%d", rows, cols)}
	id := func(r, c int) string { return fmt.Sprintf("n%d_%d", r, c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			t.Nodes = append(t.Nodes, id(r, c))
		}
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				t.addBoth(id(r, c), id(r, c+1), 1)
			}
			if r+1 < rows {
				t.addBoth(id(r, c), id(r+1, c), 1)
			}
		}
	}
	return t
}

// Tree builds a complete binary tree with n nodes and unit costs.
func Tree(n int) *Topology {
	t := &Topology{Name: fmt.Sprintf("tree%d", n)}
	for i := 0; i < n; i++ {
		t.Nodes = append(t.Nodes, node(i))
	}
	for i := 1; i < n; i++ {
		t.addBoth(node((i-1)/2), node(i), 1)
	}
	return t
}

// rng is a small deterministic linear congruential generator, so random
// topologies are reproducible without math/rand seeding ceremony.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s = r.s*6364136223846793005 + 1442695040888963407
	return r.s >> 33
}

// intn returns a pseudo-random int in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// RandomConnected builds a random connected graph: a random spanning tree
// plus extra edges with probability p (per node pair), unit to maxCost
// costs. Deterministic for a given seed.
func RandomConnected(n int, p float64, maxCost int64, seed uint64) *Topology {
	t := &Topology{Name: fmt.Sprintf("rand%d_%d", n, seed)}
	r := &rng{s: seed ^ 0x9e3779b97f4a7c15}
	for i := 0; i < n; i++ {
		t.Nodes = append(t.Nodes, node(i))
	}
	cost := func() int64 {
		if maxCost <= 1 {
			return 1
		}
		return 1 + int64(r.intn(int(maxCost)))
	}
	seen := map[[2]int]bool{}
	add := func(i, j int) {
		if i > j {
			i, j = j, i
		}
		if seen[[2]int{i, j}] {
			return
		}
		seen[[2]int{i, j}] = true
		t.addBoth(node(i), node(j), cost())
	}
	// Random spanning tree: connect each node to a random earlier node.
	for i := 1; i < n; i++ {
		add(i, r.intn(i))
	}
	// Extra edges.
	threshold := uint64(p * float64(1<<32))
	for i := 0; i < n; i++ {
		for j := i + 2; j < n; j++ {
			if r.next()&0xffffffff < threshold {
				add(i, j)
			}
		}
	}
	return t
}

// PreferentialAttachment builds a Barabási–Albert scale-free graph: nodes
// arrive one at a time and attach m distinct links to earlier nodes with
// probability proportional to degree. The heavy-tailed degree distribution
// approximates ISP/AS-level topologies at 10^4..10^6 nodes. Deterministic
// for a given seed.
func PreferentialAttachment(n, m int, seed uint64) *Topology {
	if m < 1 {
		m = 1
	}
	t := &Topology{Name: fmt.Sprintf("pa%d_%d", n, seed)}
	r := &rng{s: seed ^ 0xda942042e4dd58b5}
	for i := 0; i < n; i++ {
		t.Nodes = append(t.Nodes, node(i))
	}
	// endpoints holds one entry per link endpoint, so a uniform draw from
	// it is degree-proportional.
	endpoints := make([]int, 0, 2*m*n)
	chosen := map[int]bool{}
	for i := 1; i < n; i++ {
		k := m
		if i < k {
			k = i
		}
		for c := range chosen {
			delete(chosen, c)
		}
		picks := make([]int, 0, k)
		for len(picks) < k {
			c := -1
			if len(endpoints) > 0 {
				c = endpoints[r.intn(len(endpoints))]
			}
			if c < 0 || chosen[c] {
				c = r.intn(i) // duplicate draw: fall back to uniform
			}
			if chosen[c] {
				continue
			}
			chosen[c] = true
			picks = append(picks, c)
		}
		for _, c := range picks {
			t.addBoth(node(i), node(c), 1)
			endpoints = append(endpoints, i, c)
		}
	}
	return t
}

// FatTree builds the standard k-ary fat-tree datacenter topology: (k/2)^2
// core switches, k pods of k/2 aggregation and k/2 edge switches, and k/2
// hosts per edge switch (k^3/4 hosts total). k is rounded up to even.
func FatTree(k int) *Topology {
	if k < 2 {
		k = 2
	}
	if k%2 == 1 {
		k++
	}
	h := k / 2
	t := &Topology{Name: fmt.Sprintf("fattree%d", k)}
	core := func(i int) string { return fmt.Sprintf("c%d", i) }
	agg := func(p, i int) string { return fmt.Sprintf("a%d_%d", p, i) }
	edge := func(p, i int) string { return fmt.Sprintf("e%d_%d", p, i) }
	host := func(p, i, j int) string { return fmt.Sprintf("h%d_%d_%d", p, i, j) }
	for i := 0; i < h*h; i++ {
		t.Nodes = append(t.Nodes, core(i))
	}
	for p := 0; p < k; p++ {
		for i := 0; i < h; i++ {
			t.Nodes = append(t.Nodes, agg(p, i), edge(p, i))
			for j := 0; j < h; j++ {
				t.Nodes = append(t.Nodes, host(p, i, j))
			}
		}
	}
	for p := 0; p < k; p++ {
		for i := 0; i < h; i++ {
			// Aggregation switch i of every pod uplinks to core group i.
			for j := 0; j < h; j++ {
				t.addBoth(agg(p, i), core(i*h+j), 1)
			}
			for j := 0; j < h; j++ {
				t.addBoth(agg(p, i), edge(p, j), 1)
			}
			for j := 0; j < h; j++ {
				t.addBoth(edge(p, i), host(p, i, j), 1)
			}
		}
	}
	return t
}

// LinkTuples renders the links as NDlog link(@src, dst, cost) tuples.
func (t *Topology) LinkTuples() []value.Tuple {
	out := make([]value.Tuple, 0, len(t.Links))
	for _, l := range t.Links {
		out = append(out, value.Tuple{value.Addr(l.Src), value.Addr(l.Dst), value.Int(l.Cost)})
	}
	return out
}

// Neighbors returns the out-neighbors of a node.
func (t *Topology) Neighbors(n string) []string {
	var out []string
	for _, l := range t.Links {
		if l.Src == n {
			out = append(out, l.Dst)
		}
	}
	return out
}

// HasLink reports whether the directed link src->dst exists.
func (t *Topology) HasLink(src, dst string) bool {
	for _, l := range t.Links {
		if l.Src == src && l.Dst == dst {
			return true
		}
	}
	return false
}

// RemoveLink deletes the directed links between a and b in both directions,
// returning how many were removed (used for failure injection).
func (t *Topology) RemoveLink(a, b string) int {
	removed := 0
	out := t.Links[:0]
	for _, l := range t.Links {
		if (l.Src == a && l.Dst == b) || (l.Src == b && l.Dst == a) {
			removed++
			continue
		}
		out = append(out, l)
	}
	t.Links = out
	return removed
}

// Connected reports whether the topology is (strongly) connected.
func (t *Topology) Connected() bool {
	if len(t.Nodes) == 0 {
		return true
	}
	adj := map[string][]string{}
	for _, l := range t.Links {
		adj[l.Src] = append(adj[l.Src], l.Dst)
	}
	for _, start := range t.Nodes {
		seen := map[string]bool{start: true}
		stack := []string{start}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range adj[u] {
				if !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
		if len(seen) != len(t.Nodes) {
			return false
		}
	}
	return true
}

// arc is a compact index-based edge used by the Dijkstra routines.
type arc struct {
	to   int
	cost int64
}

// heapItem is a (node, tentative distance) pair on the Dijkstra heap.
type heapItem struct {
	n int
	d int64
}

// pathScratch is the working storage of the Dijkstra routines: the
// name→index map, the index-based adjacency list, the distances and the
// heap. Every call refills it from the topology, so only the storage
// carries over between calls.
type pathScratch struct {
	idx  map[string]int
	adj  [][]arc
	dist []int64
	heap []heapItem
}

// scratchPool lets a caller that checks routes after every update of a
// churn run reuse one pathScratch instead of allocating about a megabyte
// per call on a 10^4-node graph.
var scratchPool = sync.Pool{New: func() any { return &pathScratch{idx: map[string]int{}} }}

// index refills the name→index map and the adjacency list from t.
func (s *pathScratch) index(t *Topology) {
	clear(s.idx)
	for i, n := range t.Nodes {
		s.idx[n] = i
	}
	s.adj = slices.Grow(s.adj[:0], len(t.Nodes))[:len(t.Nodes)]
	for i := range s.adj {
		s.adj[i] = s.adj[i][:0]
	}
	for _, l := range t.Links {
		si, ok1 := s.idx[l.Src]
		di, ok2 := s.idx[l.Dst]
		if ok1 && ok2 {
			s.adj[si] = append(s.adj[si], arc{di, l.Cost})
		}
	}
}

// dijkstra runs a binary-heap Dijkstra (lazy deletion) over the indexed
// adjacency, returning -1 for unreachable nodes. O((V+E) log V), which is
// what lets the 10^5-node generated topologies validate in-process. The
// result aliases s.dist, valid until the next call.
func (s *pathScratch) dijkstra(src int) []int64 {
	dist := slices.Grow(s.dist[:0], len(s.adj))[:len(s.adj)]
	for i := range dist {
		dist[i] = -1
	}
	heap := append(s.heap[:0], heapItem{src, 0})
	dist[src] = 0
	pop := func() heapItem {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < len(heap) && heap[l].d < heap[m].d {
				m = l
			}
			if r < len(heap) && heap[r].d < heap[m].d {
				m = r
			}
			if m == i {
				break
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
		return top
	}
	push := func(it heapItem) {
		heap = append(heap, it)
		i := len(heap) - 1
		for i > 0 {
			p := (i - 1) / 2
			if heap[p].d <= heap[i].d {
				break
			}
			heap[i], heap[p] = heap[p], heap[i]
			i = p
		}
	}
	for len(heap) > 0 {
		it := pop()
		if it.d != dist[it.n] {
			continue // stale entry
		}
		for _, a := range s.adj[it.n] {
			nd := it.d + a.cost
			if dist[a.to] < 0 || nd < dist[a.to] {
				dist[a.to] = nd
				push(heapItem{a.to, nd})
			}
		}
	}
	s.dist, s.heap = dist, heap
	return dist
}

// ShortestFrom computes single-source shortest path costs from src to
// every reachable node, including src itself at cost 0.
func (t *Topology) ShortestFrom(src string) map[string]int64 {
	s := scratchPool.Get().(*pathScratch)
	defer scratchPool.Put(s)
	s.index(t)
	si, ok := s.idx[src]
	if !ok {
		return nil
	}
	dist := s.dijkstra(si)
	out := make(map[string]int64, len(dist))
	for i, d := range dist {
		if d >= 0 {
			out[t.Nodes[i]] = d
		}
	}
	return out
}

// ShortestCosts computes all-pairs shortest path costs by Dijkstra from
// each node (the imperative ground truth the declarative engine is checked
// against). The source itself is omitted from each row.
func (t *Topology) ShortestCosts() map[string]map[string]int64 {
	s := scratchPool.Get().(*pathScratch)
	defer scratchPool.Put(s)
	s.index(t)
	out := map[string]map[string]int64{}
	for si, src := range t.Nodes {
		dist := s.dijkstra(si)
		row := map[string]int64{}
		for i, d := range dist {
			if d >= 0 && i != si {
				row[t.Nodes[i]] = d
			}
		}
		out[src] = row
	}
	return out
}
