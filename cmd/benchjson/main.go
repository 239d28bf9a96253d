// Command benchjson converts `go test -bench` output on stdin into a
// JSON document on stdout (or -o file). It exists so `make bench` can
// emit machine-readable benchmark snapshots (BENCH_PR2.json) without any
// dependency beyond the standard library. Under `go test -count=N` each
// benchmark prints N lines; benchjson records one entry per benchmark
// with the median of every metric over its samples and the min and max
// of ns/op, so one noisy sample does not become the record.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
)

// result is one benchmark: a single parsed line, or the summary of all
// the lines of one name.
type result struct {
	Name string `json:"name"`
	// Samples counts the lines summarized; Iterations is their total.
	Samples    int   `json:"samples"`
	Iterations int64 `json:"iterations"`
	// NsPerOp is the median sample, NsPerOpMin/Max the extremes.
	NsPerOp     float64 `json:"ns_per_op"`
	NsPerOpMin  float64 `json:"ns_per_op_min"`
	NsPerOpMax  float64 `json:"ns_per_op_max"`
	BytesPerOp  *int64  `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64  `json:"allocs_per_op,omitempty"`
	// Extra holds custom ReportMetric units, e.g. "steps/op".
	Extra map[string]float64 `json:"extra,omitempty"`
}

type doc struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	Pkg        string   `json:"pkg,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []result `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	d, err := read(os.Stdin, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// read parses `go test -bench` output from r, copying every line to tee
// so the human-readable stream stays visible, and summarizes the samples
// of each benchmark in first-seen order.
func read(r io.Reader, tee io.Writer) (*doc, error) {
	d := &doc{}
	samples := map[string][]result{}
	var names []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(tee, line)
		switch {
		case strings.HasPrefix(line, "goos: "):
			d.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			d.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			d.Pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			d.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			if res, ok := parseLine(line); ok {
				if _, seen := samples[res.Name]; !seen {
					names = append(names, res.Name)
				}
				samples[res.Name] = append(samples[res.Name], res)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, name := range names {
		d.Benchmarks = append(d.Benchmarks, summarize(samples[name]))
	}
	return d, nil
}

// summarize folds the samples of one benchmark: the median of each
// metric (a metric missing from some samples is the median of those
// that report it) and the range of ns/op.
func summarize(rs []result) result {
	s := result{Name: rs[0].Name, Samples: len(rs)}
	var ns, bytes, allocs []float64
	extra := map[string][]float64{}
	for _, r := range rs {
		s.Iterations += r.Iterations
		ns = append(ns, r.NsPerOp)
		if r.BytesPerOp != nil {
			bytes = append(bytes, float64(*r.BytesPerOp))
		}
		if r.AllocsPerOp != nil {
			allocs = append(allocs, float64(*r.AllocsPerOp))
		}
		for unit, v := range r.Extra {
			extra[unit] = append(extra[unit], v)
		}
	}
	s.NsPerOp, s.NsPerOpMin, s.NsPerOpMax = median(ns), slices.Min(ns), slices.Max(ns)
	if len(bytes) > 0 {
		n := int64(median(bytes))
		s.BytesPerOp = &n
	}
	if len(allocs) > 0 {
		n := int64(median(allocs))
		s.AllocsPerOp = &n
	}
	for unit, vs := range extra {
		if s.Extra == nil {
			s.Extra = map[string]float64{}
		}
		s.Extra[unit] = median(vs)
	}
	return s
}

// median returns the middle value of vs, the mean of the two middle
// values for an even count. It sorts vs in place.
func median(vs []float64) float64 {
	slices.Sort(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// parseLine parses one benchmark result line, e.g.
//
//	BenchmarkX/sub-8   1234   5678 ns/op   90 B/op   1 allocs/op
func parseLine(line string) (result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return result{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	r := result{Name: f[0], Iterations: iters}
	seen := false
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return result{}, false
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
			seen = true
		case "B/op":
			n := int64(v)
			r.BytesPerOp = &n
		case "allocs/op":
			n := int64(v)
			r.AllocsPerOp = &n
		default:
			if r.Extra == nil {
				r.Extra = map[string]float64{}
			}
			r.Extra[unit] = v
		}
	}
	return r, seen
}
