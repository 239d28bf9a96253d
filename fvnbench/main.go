// Command fvnbench is the repository's end-to-end benchmark. It runs one
// named workload against the FVN pipeline from outside — timing calls
// into the public functions of netgraph, ndlog, dist, datalog and serve
// (over loopback HTTP) and reading the counters those layers already
// export — checks every answer against an independent oracle, and prints
// one JSON result line.
//
//	fvnbench --workload isp-churn --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a separate traced pass
// (collectors, stream mode and the benchmark's own spans attached),
// preceded by an untraced pass whose mean operation time gives the
// tracing overhead. See README.md for every metric's definition.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// params is what every workload receives: the workload seed, the length
// of its timed phase, how many fresh set-ups it makes (set-up and
// convergence times are medians over them), and the span recorder, which
// is nil in untraced passes.
type params struct {
	seed   uint64
	dur    time.Duration
	rounds int
	rec    *recorder
}

// report is one pass's outcome. ops and opCPU (the summed process CPU
// time of the timed operations, oracle checks excluded) give the mean
// operation cost the tracing overhead compares.
type report struct {
	attempted, failed int
	ops               int
	opCPU             time.Duration
	metrics           map[string]float64
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

// fail records one failed operation with its reason on stderr.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 5 {
		fmt.Fprintf(os.Stderr, "fvnbench: FAIL "+format+"\n", args...)
	}
}

type workload struct {
	name   string
	rounds int // fresh set-ups in an untraced run
	run    func(p params) (*report, error)
}

var workloads = []workload{
	{"isp-churn", 5, func(p params) (*report, error) { return runISP(p, defaultISP) }},
	{"pv-engine-churn", 41, func(p params) (*report, error) { return runPV(p, defaultPV) }},
	{"serve-mix", 25, func(p params) (*report, error) { return runMix(p, defaultMix) }},
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports every one of them. Their times are process CPU time, not wall
// time (see cpuTime). op_a and op_b are each workload's two main
// operation kinds (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"converge_cpu_s", "s"},
	{"heap_mb", "MB"},
	{"op_a_cpu_p50_ms", "ms"},
	{"op_b_cpu_p50_ms", "ms"},
	{"op_cpu_p90_ms", "ms"},
	{"ops_per_cpu_s", "1/s"},
}

// perLayer are the traced run's metrics. A workload that does not
// exercise a layer reports its metrics as 0.
var perLayer = []metricDef{
	{"netgraph.build_ms", "ms"},
	{"netgraph.truth_ms", "ms"},
	{"ndlog.compile_ms", "ms"},
	{"dist.new_network_ms", "ms"},
	{"dist.converge_msgs", "count"},
	{"dist.converge_rule_eval_ms", "ms"},
	{"dist.msgs_per_update", "count"},
	{"dist.retractions_per_down", "count"},
	{"dist.route_changes_per_update", "count"},
	{"dist.join_probes_per_update", "count"},
	{"dist.useful_update_share", "ratio"},
	{"dist.rule_eval_ms_per_update", "ms"},
	{"dist.other_ms_per_update", "ms"},
	{"datalog.run_iterations", "count"},
	{"datalog.derivations_per_update", "count"},
	{"datalog.new_tuples_per_update", "count"},
	{"datalog.useful_share", "ratio"},
	{"datalog.paths_retracted_per_down", "count"},
	{"datalog.converge_rule_eval_ms", "ms"},
	{"store.probes_per_derivation", "ratio"},
	{"gc.alloc_mb_per_update", "MB"},
	{"gc.alloc_kb_per_job", "KB"},
	{"gc.cycles", "count"},
	{"gc.cpu_share", "ratio"},
	{"serve.run_p50_ms", "ms"},
	{"serve.mc_p50_ms", "ms"},
	{"serve.overhead_p50_ms", "ms"},
	{"serve.rejected", "count"},
	{"verify.warm_cached_share", "ratio"},
	{"verify.cold_cached_share", "ratio"},
	{"cache.hits", "count"},
	{"cache.misses", "count"},
	{"prover.self_ms_per_cold_job", "ms"},
	{"prover.steps_per_cold_job", "count"},
	{"prover.prims_per_cold_job", "count"},
	{"verify.other_ms_per_cold_job", "ms"},
	{"modelcheck.states_per_job", "count"},
	{"modelcheck.level_ms_per_job", "ms"},
	{"obs.trace_overhead_share", "ratio"},
	{"bench.self_ms_per_op", "ms"},
	{"netgraph.self_ms_per_op", "ms"},
	{"dist.self_ms_per_op", "ms"},
	{"datalog.self_ms_per_op", "ms"},
	{"serve.self_ms_per_op", "ms"},
}

// spanLayers are the layers whose self time per operation the traced run
// reports as <layer>.self_ms_per_op.
var spanLayers = []string{"bench", "netgraph", "dist", "datalog", "serve"}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fvnbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: isp-churn, pv-engine-churn or serve-mix")
	seed := fs.Uint64("seed", 1, "workload seed: drives the flap, link-update and job sequences")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "fvnbench: need --workload (isp-churn, pv-engine-churn, serve-mix), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	dur := time.Duration(*seconds * float64(time.Second))
	out, err := measure(*w, *seed, dur, *trace == 1, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "fvnbench: %s: %v\n", w.name, err)
		return 1
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "fvnbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}

// measure runs the workload and shapes its result. An untraced run
// reports the end-to-end metrics. A traced run first makes an untraced
// pass and then a traced one, each for half the time, and reports the
// traced pass's per-layer metrics plus the overhead between the two.
func measure(w workload, seed uint64, dur time.Duration, traced bool, stderr io.Writer) (*resultOut, error) {
	if !traced {
		rep, err := w.run(params{seed: seed, dur: dur, rounds: w.rounds})
		if err != nil {
			return nil, err
		}
		return shape(rep, rep.attempted, rep.failed, endToEnd, true)
	}
	plain, err := w.run(params{seed: seed, dur: dur / 2, rounds: 1})
	if err != nil {
		return nil, err
	}
	rec := newRecorder(filepath.Join(os.TempDir(), fmt.Sprintf("fvnbench-spans-%s-seed%d.jsonl", w.name, seed)))
	rep, err := w.run(params{seed: seed, dur: dur / 2, rounds: 1, rec: rec})
	if err != nil {
		return nil, err
	}
	if err := rec.finish(rep, stderr); err != nil {
		return nil, err
	}
	base := plain.opCPU.Seconds() / float64(plain.ops)
	rep.metrics["obs.trace_overhead_share"] = rep.opCPU.Seconds()/float64(rep.ops)/base - 1
	return shape(rep, plain.attempted+rep.attempted, plain.failed+rep.failed, perLayer, false)
}

// shape keeps exactly the defined metrics. required makes a missing one
// an error (every workload must report every end-to-end metric); for the
// per-layer set a layer the workload never exercised reads 0.
func shape(rep *report, attempted, failed int, defs []metricDef, required bool) (*resultOut, error) {
	out := &resultOut{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metricOut, len(defs)),
	}
	if attempted < 1 {
		return nil, fmt.Errorf("no operation completed in the timed phase")
	}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok && required {
			return nil, fmt.Errorf("workload did not report %s", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s has no valid sample (%d of %d operations failed)", d.name, failed, attempted)
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	var extra []string
	for name := range rep.metrics {
		if !declared(name) {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("undeclared metrics %v", extra)
	}
	return out, nil
}

// declared reports whether name is an end-to-end or a per-layer metric
// (workloads compute both sets in every pass).
func declared(name string) bool {
	for _, d := range append(endToEnd[:len(endToEnd):len(endToEnd)], perLayer...) {
		if d.name == name {
			return true
		}
	}
	return false
}
