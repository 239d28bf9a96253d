package main

import (
	"io"
	"strings"
	"testing"
)

func TestReadSummarizesRepeatedSamples(t *testing.T) {
	in := `goos: linux
pkg: repro
BenchmarkA-2   	     100	     3000 ns/op	     64 B/op	       2 allocs/op
BenchmarkB-2   	      10	    50000 ns/op	         7.000 steps/op
BenchmarkA-2   	     100	     1000 ns/op	     64 B/op	       2 allocs/op
BenchmarkA-2   	     120	     2000 ns/op	     96 B/op	       3 allocs/op
BenchmarkB-2   	      10	    70000 ns/op	         9.000 steps/op
PASS
`
	d, err := read(strings.NewReader(in), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if d.Goos != "linux" || d.Pkg != "repro" || len(d.Benchmarks) != 2 {
		t.Fatalf("doc = %+v", d)
	}
	a, b := d.Benchmarks[0], d.Benchmarks[1]
	if a.Name != "BenchmarkA-2" || a.Samples != 3 || a.Iterations != 320 ||
		a.NsPerOp != 2000 || a.NsPerOpMin != 1000 || a.NsPerOpMax != 3000 ||
		*a.BytesPerOp != 64 || *a.AllocsPerOp != 2 {
		t.Errorf("A = %+v", a)
	}
	// An even sample count takes the mean of the middle two.
	if b.Name != "BenchmarkB-2" || b.Samples != 2 || b.NsPerOp != 60000 ||
		b.NsPerOpMin != 50000 || b.NsPerOpMax != 70000 || b.Extra["steps/op"] != 8 || b.BytesPerOp != nil {
		t.Errorf("B = %+v", b)
	}
}
