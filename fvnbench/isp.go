package main

import (
	"fmt"
	"maps"
	"time"

	"repro/internal/dist"
	"repro/internal/ndlog"
	"repro/internal/netgraph"
	"repro/internal/obs"
	"repro/internal/value"
)

// distVectorSrc is the single-destination distance-vector program of
// internal/dist's scale test: nbrb copies a neighbor's best cost across
// the link and s2 joins it with the node's own link tuple, so a failed
// link's routes retract over live links only and per-node state stays
// O(degree).
const distVectorSrc = `
materialize(link, infinity, infinity, keys(1,2)).
materialize(self, infinity, infinity, keys(1)).
materialize(nbrb, infinity, infinity, keys(1,2,3)).
materialize(c, infinity, infinity, keys(1,2,3)).
materialize(b, infinity, infinity, keys(1,2)).

a1 nbrb(@N,Z,D,C) :- link(@Z,N,LC), b(@Z,D,C).
s1 c(@N,N,0) :- self(@N).
s2 c(@N,D,C) :- link(@N,Z,LC), nbrb(@N,Z,D,CB), C=LC+CB.
b1 b(@N,D,min<C>) :- c(@N,D,C).
`

const (
	ispRoot = "n0"
	// ispGraphSeed fixes the graph: the workload seed varies only the
	// flap sequence, so runs on different seeds measure the same network.
	ispGraphSeed = 7
	// ispMaxTime bounds simulated time over the whole run, far beyond
	// what any number of flaps in one run reaches.
	ispMaxTime = 1e12
)

// ispConfig sizes isp-churn. truth is the routing oracle (each node's
// shortest cost to the root over the live topology); tests substitute a
// corrupted one.
type ispConfig struct {
	nodes int
	truth func(t *netgraph.Topology, root string) map[string]int64
}

var defaultISP = ispConfig{
	nodes: 10_000,
	truth: func(t *netgraph.Topology, root string) map[string]int64 { return t.ShortestFrom(root) },
}

// ulink is one undirected link of the generated graph.
type ulink struct {
	a, b int
	cost int64
}

// ispInput is the generated graph in index form: the flap candidates are
// checked against it, never against the topology the network mutates.
type ispInput struct {
	topo  *netgraph.Topology
	names []string
	links []ulink
	adj   [][]int
}

func genISP(nodes int) ispInput {
	topo := netgraph.PreferentialAttachment(nodes, 2, ispGraphSeed)
	in := ispInput{topo: topo, names: append([]string(nil), topo.Nodes...), adj: make([][]int, len(topo.Nodes))}
	idx := make(map[string]int, len(topo.Nodes))
	for i, n := range topo.Nodes {
		idx[n] = i
	}
	for _, l := range topo.Links {
		a, b := idx[l.Src], idx[l.Dst]
		in.adj[a] = append(in.adj[a], b)
		if a < b {
			in.links = append(in.links, ulink{a, b, l.Cost})
		}
	}
	return in
}

// connectedWithout reports whether the graph stays connected with link l
// removed — a flap must never partition the network, or the distance
// vector would count to infinity.
func (in ispInput) connectedWithout(l ulink) bool {
	seen := make([]bool, len(in.adj))
	seen[0] = true
	stack, n := []int{0}, 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range in.adj[u] {
			if seen[v] || (u == l.a && v == l.b) || (u == l.b && v == l.a) {
				continue
			}
			seen[v] = true
			n++
			stack = append(stack, v)
		}
	}
	return n == len(in.adj)
}

// pickFlap draws links from r until one's removal keeps the graph
// connected.
func (in ispInput) pickFlap(r *rng) ulink {
	for {
		l := in.links[r.intn(len(in.links))]
		if in.connectedWithout(l) {
			return l
		}
	}
}

// ispCheck compares every node's b(·,root) with the oracle. It returns
// the oracle's answer and the number of nodes whose route is wrong.
func ispCheck(rec *recorder, parent int, net *dist.Network, cfg ispConfig) (map[string]int64, int, time.Duration) {
	sp := rec.begin("netgraph.truth", parent)
	t0 := time.Now()
	truth := cfg.truth(net.Topology(), ispRoot)
	truthDur := time.Since(t0)
	rec.end(sp)
	sp = rec.begin("dist.query", parent)
	got := make(map[string]int64, len(truth))
	for _, node := range net.Topology().Nodes {
		for _, tup := range net.Query(node, "b") {
			if tup[1].S == ispRoot {
				got[node] = tup[2].I
			}
		}
	}
	rec.end(sp)
	return truth, routeErrors(got, truth, net.Topology().Nodes), truthDur
}

// routeErrors counts the nodes whose route cost differs from the oracle,
// a missing route on either side counting as wrong.
func routeErrors(got, truth map[string]int64, nodes []string) int {
	bad := 0
	for _, n := range nodes {
		g, gok := got[n]
		w, wok := truth[n]
		if gok != wok || g != w {
			bad++
		}
	}
	return bad
}

// runISP is the isp-churn workload: the distributed runtime converges the
// distance vector on a preferential-attachment graph, then a seeded
// sequence of link flaps runs — each fails a link whose removal keeps the
// graph connected, and the next update restores it. Each FailLink or
// RestoreLink plus Run is one update, checked against Dijkstra outside
// its timing.
func runISP(p params, cfg ispConfig) (*report, error) {
	rep := newReport()
	rec := p.rec
	wl := rec.begin("bench.workload", 0)
	defer rec.end(wl)

	var (
		col                                          *obs.Collector
		net                                          *dist.Network
		in                                           ispInput
		setups, converges, builds, compiles, newNets []float64
	)
	if rec != nil {
		col = obs.NewCollector()
	}
	for round := 0; round < p.rounds; round++ {
		net, in = nil, ispInput{}
		liveHeapMB() // start every round from a collected heap
		if col != nil {
			col.Reset()
		}
		sp := rec.begin("bench.setup", wl)
		s0 := now()
		t0 := s0.wall
		c := rec.begin("netgraph.build", sp)
		in = genISP(cfg.nodes)
		rec.end(c)
		t1 := time.Now()
		c = rec.begin("ndlog.compile", sp)
		prog, err := ndlog.Parse("dv", distVectorSrc)
		rec.end(c)
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		c = rec.begin("dist.new_network", sp)
		net, err = dist.NewNetwork(prog, in.topo, dist.Options{
			MaxTime:           ispMaxTime,
			LoadTopologyLinks: true,
			Seed:              1,
			Obs:               col,
		})
		if err != nil {
			return nil, err
		}
		net.Inject(0, ispRoot, "self", value.Tuple{value.Addr(ispRoot)})
		rec.end(c)
		t3 := time.Now()
		_, setupCPU := s0.since()
		rec.end(sp)
		builds = append(builds, ms(t1.Sub(t0)))
		compiles = append(compiles, ms(t2.Sub(t1)))
		newNets = append(newNets, ms(t3.Sub(t2)))
		setups = append(setups, setupCPU.Seconds())

		sp = rec.begin("bench.converge", wl)
		c = rec.begin("dist.run", sp)
		s0 = now()
		res, err := net.Run()
		_, d := s0.since()
		rec.end(c)
		if err != nil {
			return nil, err
		}
		converges = append(converges, d.Seconds())
		rep.attempted++
		_, bad, _ := ispCheck(rec, sp, net, cfg)
		rec.end(sp)
		if !res.Converged || bad > 0 {
			rep.fail("isp-churn: initial convergence: converged=%v, %d wrong routes", res.Converged, bad)
		}
	}
	st := net.Stats()
	rep.metrics["netgraph.build_ms"] = median(builds)
	rep.metrics["ndlog.compile_ms"] = median(compiles)
	rep.metrics["dist.new_network_ms"] = median(newNets)
	rep.metrics["dist.converge_msgs"] = float64(st.MessagesSent)
	rep.metrics["dist.converge_rule_eval_ms"] = ms(histSum(col, "dist", obs.MRuleEval))
	rep.metrics["setup_s"] = median(setups)
	rep.metrics["converge_cpu_s"] = median(converges)
	rep.metrics["heap_mb"] = liveHeapMB()

	prevTruth := cfg.truth(net.Topology(), ispRoot)
	var (
		r                                  = rng{p.seed}
		flap                               ulink
		down, up, all, truths              []float64
		msgs, retr, routes, probes, derivs float64
		evalNs, allocs                     float64
		useful, downs                      int
	)
	gc := readGC()
	phase := time.Now()
	for i := 0; time.Since(phase) < p.dur; i++ {
		isDown := i%2 == 0
		if isDown {
			flap = in.pickFlap(&r)
		}
		a, b := in.names[flap.a], in.names[flap.b]
		op := rec.beginOp("bench.update", wl)
		before, eval0, alloc0 := net.Stats(), histSum(col, "dist", obs.MRuleEval), readGC()
		c := rec.begin("dist.update", op)
		s0 := now()
		if isDown {
			net.FailLink(net.Now()+1, a, b)
		} else {
			net.RestoreLink(net.Now()+1, a, b, flap.cost)
		}
		res, err := net.Run()
		_, d := s0.since()
		rec.end(c)
		_, _, alloc := alloc0.since()
		rep.attempted++
		rep.ops++
		rep.opCPU += d
		if err != nil {
			rec.end(op)
			rep.fail("isp-churn: update %d (%s-%s): %v", i, a, b, err)
			break
		}
		after := net.Stats()
		allocs += alloc
		evalNs += float64(histSum(col, "dist", obs.MRuleEval) - eval0)
		msgs += float64(after.MessagesSent - before.MessagesSent)
		routes += float64(after.RouteChanges - before.RouteChanges)
		probes += float64(after.JoinProbes - before.JoinProbes)
		derivs += float64(after.Derivations - before.Derivations)
		if isDown {
			downs++
			retr += float64(after.Retractions - before.Retractions)
		}
		truth, bad, truthDur := ispCheck(rec, op, net, cfg)
		rec.end(op)
		truths = append(truths, ms(truthDur))
		if !res.Converged || bad > 0 {
			rep.fail("isp-churn: update %d (down=%v %s-%s): converged=%v, %d wrong routes", i, isDown, a, b, res.Converged, bad)
			continue
		}
		if !maps.Equal(truth, prevTruth) {
			useful++
		}
		prevTruth = truth
		all = append(all, ms(d))
		if isDown {
			down = append(down, ms(d))
		} else {
			up = append(up, ms(d))
		}
	}
	cycles, gcShare, _ := gc.since()
	n := float64(rep.ops)
	rep.metrics["op_a_cpu_p50_ms"] = median(down)
	rep.metrics["op_b_cpu_p50_ms"] = median(up)
	rep.metrics["op_cpu_p90_ms"] = quantile(all, 0.9)
	rep.metrics["ops_per_cpu_s"] = share(float64(len(all)), rep.opCPU.Seconds())
	rep.metrics["netgraph.truth_ms"] = median(truths)
	rep.metrics["dist.msgs_per_update"] = share(msgs, n)
	rep.metrics["dist.retractions_per_down"] = share(retr, float64(downs))
	rep.metrics["dist.route_changes_per_update"] = share(routes, n)
	rep.metrics["dist.join_probes_per_update"] = share(probes, n)
	rep.metrics["dist.useful_update_share"] = share(float64(useful), n)
	rep.metrics["store.probes_per_derivation"] = share(probes, derivs)
	rep.metrics["gc.alloc_mb_per_update"] = share(allocs/(1<<20), n)
	rep.metrics["gc.cycles"] = cycles
	rep.metrics["gc.cpu_share"] = gcShare
	if col != nil {
		evalMs := share(evalNs/1e6, n)
		rep.metrics["dist.rule_eval_ms_per_update"] = evalMs
		rep.metrics["dist.other_ms_per_update"] = share(ms(rep.opCPU), n) - evalMs
	}
	if rep.ops == 0 {
		return nil, fmt.Errorf("isp-churn: no update ran in %v", p.dur)
	}
	return rep, nil
}
