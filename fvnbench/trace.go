package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call at a benchmark boundary: workload → operation
// (an update or a job) → layer call. Its layer is the name's prefix
// before the first dot. All spans of one operation share op.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Op     int    `json:"op,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// recorder keeps spans in memory until the run ends. A nil recorder is
// the untraced pass: every method is a no-op. Workloads call it from one
// goroutine only.
type recorder struct {
	t0    time.Time
	spans []span
	ops   int
	path  string // where finish writes the spans as JSONL
}

func newRecorder(path string) *recorder { return &recorder{t0: time.Now(), path: path} }

// begin opens a span under parent (0 for a root) in parent's operation
// and returns its id.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return 0
	}
	op := 0
	if parent > 0 {
		op = r.spans[parent-1].Op
	}
	return r.open(name, parent, op)
}

// beginOp opens the root span of a new operation under parent.
func (r *recorder) beginOp(name string, parent int) int {
	if r == nil {
		return 0
	}
	r.ops++
	return r.open(name, parent, r.ops)
}

func (r *recorder) open(name string, parent, op int) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: int64(time.Since(r.t0))})
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id-1].End = int64(time.Since(r.t0))
}

// selfTimes returns each span's self time: its duration minus the time
// its children cover. The workloads are sequential, so a span's children
// never overlap and cover exactly the sum of their durations.
func selfTimes(spans []span) []time.Duration {
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] += time.Duration(s.End - s.Start)
		if s.Parent > 0 {
			out[s.Parent-1] -= time.Duration(s.End - s.Start)
		}
	}
	return out
}

// finish turns the spans into per-layer self times: the set-up table
// (spans outside operations) and the per-operation table, whose rows
// become <layer>.self_ms_per_op. Both tables go to w; the spans are
// written to r.path as JSONL.
func (r *recorder) finish(rep *report, w io.Writer) error {
	self := selfTimes(r.spans)
	setup, inOps := map[string]time.Duration{}, map[string]time.Duration{}
	for i, s := range r.spans {
		if s.Op > 0 {
			inOps[s.layer()] += self[i]
		} else {
			setup[s.layer()] += self[i]
		}
	}
	printTable(w, "set-up and convergence self time", setup, 0)
	printTable(w, fmt.Sprintf("self time over %d operations", r.ops), inOps, r.ops)
	for _, layer := range spanLayers {
		rep.metrics[layer+".self_ms_per_op"] = share(ms(inOps[layer]), float64(r.ops))
	}
	if err := os.MkdirAll(filepath.Dir(r.path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	f, err := os.Create(r.path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

func printTable(w io.Writer, title string, byLayer map[string]time.Duration, ops int) {
	var total time.Duration
	layers := make([]string, 0, len(byLayer))
	for l, d := range byLayer {
		layers = append(layers, l)
		total += d
	}
	sort.Slice(layers, func(i, j int) bool { return byLayer[layers[i]] > byLayer[layers[j]] })
	fmt.Fprintf(w, "%s (total %.1f ms)\n", title, ms(total))
	for _, l := range layers {
		fmt.Fprintf(w, "  %-10s %10.2f ms %6.1f%%", l, ms(byLayer[l]), 100*share(float64(byLayer[l]), float64(total)))
		if ops > 0 {
			fmt.Fprintf(w, " %9.3f ms/op", ms(byLayer[l])/float64(ops))
		}
		fmt.Fprintln(w)
	}
}
