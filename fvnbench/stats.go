package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"repro/internal/obs"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean returns the arithmetic mean of xs (0 for an empty sample).
func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return share(sum, float64(len(xs)))
}

// cpuTime returns the CPU time of the whole process (user + system, all
// threads, the GC's included). The kernel does not charge a process for
// time the hypervisor steals from its virtual CPUs, so on a shared host
// CPU time repeats where wall time does not.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF into a valid struct cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stamp is a reading of both clocks: wall time for the per-layer
// timings and spans, process CPU time for the end-to-end metrics.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

func now() stamp { return stamp{time.Now(), cpuTime()} }

// since returns the wall and CPU time elapsed since s.
func (s stamp) since() (wall, cpu time.Duration) {
	return time.Since(s.wall), cpuTime() - s.cpu
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rng is a splitmix64 stream: the workload seed's only consumer, so the
// same seed gives the same flap, link-update and job sequences.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// liveHeapMB collects garbage and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// gcMeter reads the Go runtime's own GC accounting at the start and end
// of a timed phase.
type gcMeter struct{ samples []metrics.Sample }

func readGC() gcMeter {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return gcMeter{s}
}

// since returns the GC cycles, the GC share of CPU time and the bytes
// allocated between m and now.
func (m gcMeter) since() (cycles, cpuShare, allocBytes float64) {
	now := readGC()
	cycles = float64(now.samples[0].Value.Uint64() - m.samples[0].Value.Uint64())
	gc := now.samples[1].Value.Float64() - m.samples[1].Value.Float64()
	total := now.samples[2].Value.Float64() - m.samples[2].Value.Float64()
	if total > 0 {
		cpuShare = gc / total
	}
	allocBytes = float64(now.samples[3].Value.Uint64() - m.samples[3].Value.Uint64())
	return cycles, cpuShare, allocBytes
}

// histSum totals a histogram metric of one component over all labels —
// e.g. the per-rule rule_eval time of dist or datalog.
func histSum(c *obs.Collector, component, name string) time.Duration {
	var sum time.Duration
	for _, m := range c.Snapshot() {
		if m.Component == component && m.Name == name && m.Kind == "histogram" {
			sum += time.Duration(m.SumNs)
		}
	}
	return sum
}

// share is num/den, or 0 when den is 0.
func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
