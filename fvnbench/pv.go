package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/ndlog"
	"repro/internal/netgraph"
	"repro/internal/obs"
	"repro/internal/value"
)

// pvConfig sizes pv-engine-churn. truth is the all-pairs oracle over the
// current link set; tests substitute a corrupted one.
type pvConfig struct {
	ring  int
	truth func(t *netgraph.Topology) map[string]map[string]int64
}

var defaultPV = pvConfig{
	ring:  32,
	truth: func(t *netgraph.Topology) map[string]map[string]int64 { return t.ShortestCosts() },
}

// pvErrors counts bestPathCost(S,D,C) tuples that disagree with the
// oracle, plus oracle pairs with no tuple at all.
func pvErrors(best []value.Tuple, truth map[string]map[string]int64) int {
	bad, want := 0, 0
	for _, row := range truth {
		want += len(row)
	}
	for _, t := range best {
		if c, ok := truth[t[0].S][t[1].S]; !ok || c != t[2].I {
			bad++
		}
	}
	if len(best) < want {
		bad += want - len(best)
	}
	return bad
}

func linkChanges(l netgraph.Link, del bool) []datalog.Change {
	return []datalog.Change{
		{Pred: "link", Tup: value.Tuple{value.Addr(l.Src), value.Addr(l.Dst), value.Int(l.Cost)}, Del: del},
		{Pred: "link", Tup: value.Tuple{value.Addr(l.Dst), value.Addr(l.Src), value.Int(l.Cost)}, Del: del},
	}
}

// runPV is the pv-engine-churn workload: the centralized engine runs the
// paper's path-vector program on a ring, then a seeded sequence of
// updates deletes both directions of one ring link and the next update
// reinserts them, each one Engine.Update batch checked against Dijkstra
// over the current link set outside its timing.
func runPV(p params, cfg pvConfig) (*report, error) {
	rep := newReport()
	rec := p.rec
	wl := rec.begin("bench.workload", 0)
	defer rec.end(wl)

	var (
		col                                 *obs.Collector
		eng                                 *datalog.Engine
		topo                                *netgraph.Topology
		setups, converges, compiles, builds []float64
		iterations                          int
		runEval                             time.Duration
	)
	if rec != nil {
		col = obs.NewCollector()
	}
	var truths []float64
	check := func(parent int) int {
		sp := rec.begin("netgraph.truth", parent)
		t0 := time.Now()
		truth := cfg.truth(topo)
		truths = append(truths, ms(time.Since(t0)))
		rec.end(sp)
		sp = rec.begin("datalog.query", parent)
		best := eng.Query("bestPathCost")
		rec.end(sp)
		return pvErrors(best, truth)
	}
	for round := 0; round < p.rounds; round++ {
		eng = nil
		liveHeapMB()
		if col != nil {
			col.Reset()
		}
		sp := rec.begin("bench.setup", wl)
		s0 := now()
		t0 := s0.wall
		c := rec.begin("netgraph.build", sp)
		topo = netgraph.Ring(cfg.ring)
		rec.end(c)
		t1 := time.Now()
		c = rec.begin("ndlog.compile", sp)
		prog, err := ndlog.Parse("pv", core.PathVectorSrc)
		if err != nil {
			return nil, err
		}
		an, err := ndlog.Analyze(prog)
		rec.end(c)
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		c = rec.begin("datalog.load", sp)
		eng, err = datalog.NewFromAnalysis(an)
		if err != nil {
			return nil, err
		}
		for _, l := range topo.LinkTuples() {
			if err := eng.Insert("link", l); err != nil {
				return nil, err
			}
		}
		if col != nil {
			eng.Attach(col, nil)
		}
		rec.end(c)
		_, setupCPU := s0.since()
		rec.end(sp)
		builds = append(builds, ms(t1.Sub(t0)))
		compiles = append(compiles, ms(t2.Sub(t1)))
		setups = append(setups, setupCPU.Seconds())

		sp = rec.begin("bench.converge", wl)
		c = rec.begin("datalog.run", sp)
		it0 := eng.Stats.Iterations
		s0 = now()
		err = eng.Run()
		_, d := s0.since()
		rec.end(c)
		if err != nil {
			return nil, err
		}
		iterations = eng.Stats.Iterations - it0
		runEval = histSum(col, "datalog", obs.MRuleEval)
		converges = append(converges, d.Seconds())
		rep.attempted++
		bad := check(sp)
		rec.end(sp)
		if bad > 0 {
			rep.fail("pv-engine-churn: initial run: %d wrong bestPathCost tuples", bad)
		}
	}
	rep.metrics["netgraph.build_ms"] = median(builds)
	rep.metrics["ndlog.compile_ms"] = median(compiles)
	rep.metrics["datalog.run_iterations"] = float64(iterations)
	rep.metrics["datalog.converge_rule_eval_ms"] = ms(runEval)
	rep.metrics["setup_s"] = median(setups)
	rep.metrics["converge_cpu_s"] = median(converges)
	rep.metrics["heap_mb"] = liveHeapMB()

	ring := append([]netgraph.Link(nil), topo.Links...) // both directions, in order
	var (
		r                                 = rng{p.seed}
		flap                              netgraph.Link
		down, up, all                     []float64
		derivs, newTuples, probes, allocs float64
		retracted                         float64
		downs                             int
	)
	gc := readGC()
	phase := time.Now()
	for i := 0; time.Since(phase) < p.dur; i++ {
		isDown := i%2 == 0
		if isDown {
			flap = ring[2*r.intn(len(ring)/2)]
			topo.RemoveLink(flap.Src, flap.Dst)
		} else {
			topo.Links = append(topo.Links, flap, netgraph.Link{Src: flap.Dst, Dst: flap.Src, Cost: flap.Cost, Latency: flap.Latency})
		}
		op := rec.beginOp("bench.update", wl)
		before, paths0, alloc0 := eng.Stats, eng.Count("path"), readGC()
		c := rec.begin("datalog.update", op)
		s0 := now()
		err := eng.Update(linkChanges(flap, isDown))
		_, d := s0.since()
		rec.end(c)
		_, _, alloc := alloc0.since()
		rep.attempted++
		rep.ops++
		rep.opCPU += d
		if err != nil {
			rec.end(op)
			rep.fail("pv-engine-churn: update %d: %v", i, err)
			break
		}
		allocs += alloc
		derivs += float64(eng.Stats.Derivations - before.Derivations)
		newTuples += float64(eng.Stats.NewTuples - before.NewTuples)
		probes += float64(eng.Stats.JoinProbes - before.JoinProbes)
		if isDown {
			downs++
			retracted += float64(paths0 - eng.Count("path"))
		}
		bad := check(op)
		rec.end(op)
		if bad > 0 {
			rep.fail("pv-engine-churn: update %d (down=%v %s-%s): %d wrong bestPathCost tuples", i, isDown, flap.Src, flap.Dst, bad)
			continue
		}
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
	rep.metrics["datalog.derivations_per_update"] = share(derivs, n)
	rep.metrics["datalog.new_tuples_per_update"] = share(newTuples, n)
	rep.metrics["datalog.useful_share"] = share(newTuples, derivs)
	rep.metrics["datalog.paths_retracted_per_down"] = share(retracted, float64(downs))
	rep.metrics["store.probes_per_derivation"] = share(probes, derivs)
	rep.metrics["gc.alloc_mb_per_update"] = share(allocs/(1<<20), n)
	rep.metrics["gc.cycles"] = cycles
	rep.metrics["gc.cpu_share"] = gcShare
	if rep.ops == 0 {
		return nil, fmt.Errorf("pv-engine-churn: no update ran in %v", p.dur)
	}
	return rep, nil
}
