package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/netgraph"
	"repro/internal/value"
)

// Tiny sizes: a 200-node graph, ring:8, and about a second of serve-mix
// traffic (a few dozen jobs).
var (
	tinyISP = ispConfig{nodes: 200, truth: defaultISP.truth}
	tinyPV  = pvConfig{ring: 8, truth: defaultPV.truth}
)

func tinyWorkloads() []workload {
	return []workload{
		{"isp-churn", 2, func(p params) (*report, error) { return runISP(p, tinyISP) }},
		{"pv-engine-churn", 2, func(p params) (*report, error) { return runPV(p, tinyPV) }},
		{"serve-mix", 2, func(p params) (*report, error) { return runMix(p, defaultMix) }},
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []metric, want []metricDef) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", what, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s [%s], the benchmark prints %s [%s]", what, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the benchmark %s", i, spec.Workloads[i].Name, w.name)
		}
	}
}

// TestTinyWorkloads runs every workload untraced and traced at tiny size:
// no operation may fail, and the result must carry exactly the declared
// metric set.
func TestTinyWorkloads(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	for _, w := range tinyWorkloads() {
		for _, traced := range []bool{false, true} {
			out, err := measure(w, 3, time.Second, traced, &bytes.Buffer{})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 2 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, out.Correct, out.Attempted, out.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(out.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := out.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s missing or with unit %q", w.name, traced, d.name, m.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, m.Value)
				}
			}
		}
	}
}

func TestRunPrintsOneJSONLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "pv-engine-churn", "--seed", "2", "--seconds", "0.3", "--trace", "0"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
		t.Fatalf("result keys: %s", lines[len(lines)-1])
	}
	for _, args := range [][]string{{"--workload", "nope"}, {"--workload", "serve-mix", "--trace", "2"}, {"--workload", "serve-mix", "--seconds", "0"}} {
		stdout.Reset()
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d with output %q, want exit 2 and no output", args, code, stdout.String())
		}
	}
}

// The negative controls: a wrong route or a wrong expected count must be
// counted as a failed operation, and its latency must not be reported as
// a timing.

func TestRouteCheckersCountCorruption(t *testing.T) {
	truth := map[string]int64{"n0": 0, "n1": 1, "n2": 2}
	nodes := []string{"n0", "n1", "n2"}
	if bad := routeErrors(map[string]int64{"n0": 0, "n1": 1, "n2": 2}, truth, nodes); bad != 0 {
		t.Errorf("correct routes: %d errors", bad)
	}
	if bad := routeErrors(map[string]int64{"n0": 0, "n1": 3, "n2": 2}, truth, nodes); bad != 1 {
		t.Errorf("one corrupted route: %d errors, want 1", bad)
	}
	if bad := routeErrors(map[string]int64{"n0": 0, "n1": 1}, truth, nodes); bad != 1 {
		t.Errorf("one missing route: %d errors, want 1", bad)
	}
	all := map[string]map[string]int64{"n0": {"n1": 1}, "n1": {"n0": 1}}
	best := func(c int64) []value.Tuple {
		return []value.Tuple{
			{value.Addr("n0"), value.Addr("n1"), value.Int(1)},
			{value.Addr("n1"), value.Addr("n0"), value.Int(c)},
		}
	}
	if bad := pvErrors(best(1), all); bad != 0 {
		t.Errorf("correct bestPathCost: %d errors", bad)
	}
	if bad := pvErrors(best(5), all); bad != 1 {
		t.Errorf("one corrupted bestPathCost: %d errors, want 1", bad)
	}
	if bad := pvErrors(best(1)[:1], all); bad != 1 {
		t.Errorf("one missing bestPathCost: %d errors, want 1", bad)
	}
}

// TestCorruptedOracleIsAFailureNotATiming corrupts the isp-churn oracle
// while a link is down: every link-failure update then fails, none of
// them lands in the latency sample, and the restores still count.
func TestCorruptedOracleIsAFailureNotATiming(t *testing.T) {
	full := len(netgraph.PreferentialAttachment(tinyISP.nodes, 2, ispGraphSeed).Links)
	cfg := tinyISP
	cfg.truth = func(topo *netgraph.Topology, root string) map[string]int64 {
		truth := topo.ShortestFrom(root)
		if len(topo.Links) < full {
			truth[topo.Nodes[len(topo.Nodes)-1]]++
		}
		return truth
	}
	rep, err := runISP(params{seed: 1, dur: 300 * time.Millisecond, rounds: 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	downs := (rep.ops + 1) / 2
	if rep.failed != downs || rep.attempted != rep.ops+1 {
		t.Errorf("failed=%d attempted=%d over %d updates, want every one of %d link failures failed", rep.failed, rep.attempted, rep.ops, downs)
	}
	if v := rep.metrics["op_a_cpu_p50_ms"]; !math.IsNaN(v) {
		t.Errorf("failed link-failure updates were timed: op_a_cpu_p50_ms = %v", v)
	}
	if v := rep.metrics["op_b_cpu_p50_ms"]; !(v > 0) {
		t.Errorf("restores not timed: op_b_cpu_p50_ms = %v", v)
	}
	if _, err := shape(rep, rep.attempted, rep.failed, endToEnd, true); err == nil {
		t.Error("a metric without a valid sample was printed")
	}
}

// TestWrongExpectedCountIsAFailure expects the wrong number of
// model-checker states: every /mc job fails and is left out of the mc
// latency, while the other kinds still succeed.
func TestWrongExpectedCountIsAFailure(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	cfg := defaultMix
	cfg.mcStates = 35
	rep, err := runMix(params{seed: 1, dur: time.Second, rounds: 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed == 0 || rep.failed >= rep.attempted {
		t.Fatalf("failed=%d of %d, want only the mc jobs failed", rep.failed, rep.attempted)
	}
	if v := rep.metrics["serve.mc_p50_ms"]; !math.IsNaN(v) {
		t.Errorf("failed mc jobs were timed: serve.mc_p50_ms = %v", v)
	}
	if v := rep.metrics["op_a_cpu_p50_ms"]; !(v > 0) {
		t.Errorf("warm verify not timed: op_a_cpu_p50_ms = %v", v)
	}
}

func TestSeedFixesSequences(t *testing.T) {
	seq := func(seed uint64) string {
		s := &jobSeq{r: rng{seed}}
		var b strings.Builder
		for i := 0; i < 30; i++ {
			b.WriteString(s.next().name + " ")
		}
		return b.String()
	}
	if seq(1) != seq(1) {
		t.Error("same seed, different job sequences")
	}
	if seq(1) == seq(2) {
		t.Error("seeds 1 and 2 gave the same job sequence")
	}
	in := genISP(tinyISP.nodes)
	flaps := func(seed uint64) []ulink {
		r := rng{seed}
		return []ulink{in.pickFlap(&r), in.pickFlap(&r), in.pickFlap(&r)}
	}
	a, b := flaps(5), flaps(5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different flap sequences")
		}
		if !in.connectedWithout(a[i]) {
			t.Errorf("flap %v partitions the graph", a[i])
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// A root [0,100] with children [10,40] and [50,60], and a grandchild
	// [10,20] under the first child.
	spans := []span{
		{ID: 1, Name: "bench.job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "serve.http", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "netgraph.truth", Start: 50, End: 60},
		{ID: 4, Parent: 2, Name: "dist.run", Start: 10, End: 20},
	}
	got := selfTimes(spans)
	want := []time.Duration{60, 20, 10, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self time %v, want %v", i+1, got[i], want[i])
		}
	}
}
