package store

import (
	"testing"

	"repro/internal/ndlog"
	"repro/internal/value"
)

func tup(vs ...int64) value.Tuple {
	t := make(value.Tuple, len(vs))
	for i, v := range vs {
		t[i] = value.Int(v)
	}
	return t
}

func TestPutReplaceNoop(t *testing.T) {
	tb := New("r", 2, []int{0}, 0) // keyed on column 0
	if res, _, _ := tb.Put(tup(1, 10), 0); res != PutNew {
		t.Fatalf("first put = %v, want PutNew", res)
	}
	res, old, _ := tb.Put(tup(1, 20), 0)
	if res != PutReplace || !old.Equal(tup(1, 10)) {
		t.Fatalf("replace = %v old=%v", res, old)
	}
	if res, _, _ := tb.Put(tup(1, 20), 0); res != PutNoop {
		t.Fatalf("identical re-put = %v, want PutNoop", res)
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (key replacement)", tb.Len())
	}
	got, _ := tb.Get(tb.KeyOf(tup(1, 20)))
	if !got.Equal(tup(1, 20)) {
		t.Fatalf("Get after replace = %v", got)
	}
	if _, _, err := tb.Put(tup(1), 0); err == nil {
		t.Fatal("arity mismatch not rejected")
	}
}

// TestDigest pins the relation-fingerprint semantics the anti-entropy
// digest exchange relies on: a pure content hash — insertion order,
// tombstones, and pinned-iteration state must never leak into it.
func TestDigest(t *testing.T) {
	if d := New("d", 2, nil, 0).Digest(); d != 0 {
		t.Fatalf("empty table digest = %#x, want 0", d)
	}

	// Order independence: the same tuple set inserted in opposite orders
	// digests identically.
	a, b := New("d", 2, nil, 0), New("d", 2, nil, 0)
	tups := []value.Tuple{tup(1, 10), tup(2, 20), tup(3, 30)}
	for _, x := range tups {
		a.Insert(x)
	}
	for i := len(tups) - 1; i >= 0; i-- {
		b.Insert(tups[i])
	}
	if a.Digest() != b.Digest() {
		t.Fatalf("insertion order leaks into digest: %#x vs %#x", a.Digest(), b.Digest())
	}

	// Content sensitivity and delete round-trip: removing a tuple changes
	// the digest, re-adding it restores the original — even while a pin
	// holds compaction back, so the tombstone is still physically present.
	orig := a.Digest()
	a.Pin()
	defer a.Unpin()
	if !a.Delete(tup(2, 20)) {
		t.Fatal("delete failed")
	}
	if a.Digest() == orig {
		t.Fatal("digest unchanged by delete")
	}
	a.Insert(tup(2, 20))
	if got := a.Digest(); got != orig {
		t.Fatalf("delete+reinsert digest = %#x, want original %#x", got, orig)
	}
}

func TestDeleteTombstonesAndCompaction(t *testing.T) {
	tb := New("s", 1, nil, 0)
	for i := int64(0); i < 100; i++ {
		if _, err := tb.Insert(tup(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Delete every other tuple: O(1) per delete, tombstones accumulate
	// (never more than the live tuples) until the next scan compacts them.
	for i := int64(0); i < 100; i += 2 {
		if !tb.Delete(tup(i)) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if tb.Delete(tup(0)) {
		t.Fatal("double delete succeeded")
	}
	if tb.Len() != 50 {
		t.Fatalf("Len = %d, want 50", tb.Len())
	}
	all := tb.All()
	if len(all) != 50 {
		t.Fatalf("All after compaction = %d tuples, want 50", len(all))
	}
	// Insertion order survives compaction, and lookups still work.
	for i, tp := range all {
		if want := int64(2*i + 1); tp[0].I != want {
			t.Fatalf("All[%d] = %v, want (%d)", i, tp, want)
		}
	}
	if !tb.Contains(tup(51)) || tb.Contains(tup(50)) {
		t.Fatal("Contains wrong after compaction")
	}
	// Delete-then-reinsert round-trips.
	if _, err := tb.Insert(tup(0)); err != nil {
		t.Fatal(err)
	}
	if !tb.Contains(tup(0)) || tb.Len() != 51 {
		t.Fatal("reinsert after delete failed")
	}
}

// TestDeleteCompactsWithoutScan pins the tombstone bound: deletes alone,
// with no All or Snapshot call, keep the insertion-order storage within
// twice the live count, and a pinned table defers the compaction.
func TestDeleteCompactsWithoutScan(t *testing.T) {
	const n = 1000
	tb := New("c", 2, []int{0}, 0)
	for i := int64(0); i < n; i++ {
		tb.Put(tup(i, i%7), 0)
	}
	ix := tb.IndexOn([]int{1})
	// Deletes run in a scrambled order, so an index bucket loses members
	// from its middle, and each passes a fresh copy: the index must still
	// drop exactly the stored tuple.
	for k := int64(0); k < n-1; k++ {
		i := k * 37 % n
		if !tb.Delete(tup(i, i%7)) {
			t.Fatalf("delete %d failed", i)
		}
		if slots := len(tb.order); slots > 2*tb.Len()+1 {
			t.Fatalf("after %d deletes: %d slots for %d live tuples", k+1, slots, tb.Len())
		}
	}
	lastI := int64((n - 1) * 37 % n)
	last := tup(lastI, lastI%7)
	if tb.Len() != 1 || !tb.Contains(last) {
		t.Fatalf("Len = %d, Contains(last) = %v", tb.Len(), tb.Contains(last))
	}
	if got, ok := tb.Get(tb.KeyOf(last)); !ok || !got.Equal(last) {
		t.Fatalf("Get(last) = %v, %v", got, ok)
	}
	for v := int64(0); v < 7; v++ {
		b := ix.Bucket([]byte(value.Int(v).Key()))
		if v == lastI%7 && (len(b) != 1 || !b[0].Equal(last)) || v != lastI%7 && len(b) != 0 {
			t.Fatalf("index bucket %d = %v, want only %v", v, b, last)
		}
	}
	// Positions survive the remap: insertion order and keyed access.
	for i := int64(0); i < 4; i++ {
		tb.Put(tup(i, 0), 0)
	}
	all := tb.All()
	if len(all) != 5 || !all[0].Equal(last) || !all[4].Equal(tup(3, 0)) {
		t.Fatalf("All = %v", all)
	}
	if old, ok := tb.DeleteByKey(tb.KeyOf(tup(2, 0))); !ok || !old.Equal(tup(2, 0)) {
		t.Fatalf("DeleteByKey = %v, %v", old, ok)
	}

	// Pinned: deletes and scans leave tombstones in place, however many.
	tb.Pin()
	slots := len(tb.order)
	for i := int64(0); i < 4; i++ {
		tb.Delete(tup(i, 0))
	}
	if len(tb.All()) != slots || tb.Len() != 1 {
		t.Fatalf("pinned: %d slots (want %d), Len %d", len(tb.order), slots, tb.Len())
	}
	tb.Unpin()
	tb.Delete(last)
	if len(tb.order) != 0 || tb.Len() != 0 {
		t.Fatalf("after unpinned delete: %d slots, Len %d", len(tb.order), tb.Len())
	}
}

func TestDeleteByKeyAndRefresh(t *testing.T) {
	tb := New("soft", 2, []int{0}, 5.0)
	tb.Put(tup(1, 10), 3.0)
	if at, ok := tb.RefreshAt(tb.KeyOf(tup(1, 10))); !ok || at != 3.0 {
		t.Fatalf("RefreshAt = %v,%v want 3,true", at, ok)
	}
	// An identical re-insert is a PutNoop but still refreshes soft state.
	if res, _, _ := tb.Put(tup(1, 10), 7.0); res != PutNoop {
		t.Fatal("expected noop")
	}
	if at, _ := tb.RefreshAt(tb.KeyOf(tup(1, 10))); at != 7.0 {
		t.Fatalf("noop re-insert did not refresh: %v", at)
	}
	old, ok := tb.DeleteByKey(tb.KeyOf(tup(1, 99))) // key = col 0 only
	if !ok || !old.Equal(tup(1, 10)) {
		t.Fatalf("DeleteByKey = %v,%v", old, ok)
	}
	if _, ok := tb.RefreshAt(tb.KeyOf(tup(1, 10))); ok {
		t.Fatal("refresh entry survived delete")
	}
}

func TestIndexesMaintainedAcrossMutations(t *testing.T) {
	tb := New("ix", 2, []int{0}, 0)
	tb.Put(tup(1, 7), 0)
	tb.Put(tup(2, 7), 0)
	tb.Put(tup(3, 8), 0)
	if got := len(tb.Lookup([]int{1}, []value.V{value.Int(7)})); got != 2 {
		t.Fatalf("lookup col1=7: %d, want 2", got)
	}
	tb.Put(tup(1, 8), 0) // replace moves 1 from bucket 7 to bucket 8
	if got := len(tb.Lookup([]int{1}, []value.V{value.Int(7)})); got != 1 {
		t.Fatalf("after replace, col1=7: %d, want 1", got)
	}
	if got := len(tb.Lookup([]int{1}, []value.V{value.Int(8)})); got != 2 {
		t.Fatalf("after replace, col1=8: %d, want 2", got)
	}
	tb.Delete(tup(3, 8))
	if got := len(tb.Lookup([]int{1}, []value.V{value.Int(8)})); got != 1 {
		t.Fatalf("after delete, col1=8: %d, want 1", got)
	}
	// Clear keeps previously handed-out Index handles valid.
	ix := tb.IndexOn([]int{1})
	tb.Clear()
	if tb.Len() != 0 {
		t.Fatal("Clear left tuples")
	}
	tb.Put(tup(5, 9), 0)
	if got := len(ix.Bucket([]byte(value.Int(9).Key()))); got != 1 {
		t.Fatalf("stale index handle after Clear: %d, want 1", got)
	}
}

func TestSnapshotIsStable(t *testing.T) {
	tb := New("snap", 1, nil, 0)
	tb.Insert(tup(1))
	tb.Insert(tup(2))
	snap := tb.Snapshot()
	tb.Delete(tup(1))
	tb.Insert(tup(3))
	if len(snap) != 2 || !snap[0].Equal(tup(1)) || !snap[1].Equal(tup(2)) {
		t.Fatalf("snapshot mutated: %v", snap)
	}
}

func TestShufflerDeterministic(t *testing.T) {
	ts := make([]value.Tuple, 20)
	for i := range ts {
		ts[i] = tup(int64(i))
	}
	perm := func(seed uint64) []value.Tuple {
		var buf []value.Tuple
		return append([]value.Tuple(nil), NewShuffler(seed).Shuffle(ts, &buf)...)
	}
	a, b := perm(7), perm(7)
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("same seed, different permutation at %d", i)
		}
	}
	c := perm(8)
	same := true
	for i := range a {
		if !a[i].Equal(c[i]) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical permutations")
	}
	// The input slice itself must not be mutated (scans iterate it live).
	for i := range ts {
		if ts[i][0].I != int64(i) {
			t.Fatal("Shuffle mutated its input")
		}
	}
}

// execSource adapts a map to the executor's TableSource.
type execSource map[string]*Table

func (s execSource) Table(pred string) *Table { return s[pred] }

// TestExecRunsCompiledPlan drives the executor directly over a compiled
// plan: a two-atom join with an assignment, a filter, and a negation.
func TestExecRunsCompiledPlan(t *testing.T) {
	prog := ndlog.MustParse("x", `
materialize(e, infinity, infinity, keys(1,2)).
materialize(block, infinity, infinity, keys(1,2)).
materialize(two, infinity, infinity, keys(1,2,3)).
r1 two(@A,C,S) :- e(@A,B), e(@B,C), S=1+1, A != C, !block(@A,C).
`)
	an, err := ndlog.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	e := New("e", 2, nil, 0)
	for _, pair := range [][2]string{{"a", "b"}, {"b", "c"}, {"b", "a"}, {"c", "d"}} {
		e.Insert(value.Tuple{value.Addr(pair[0]), value.Addr(pair[1])})
	}
	block := New("block", 2, nil, 0)
	block.Insert(value.Tuple{value.Addr("b"), value.Addr("d")})
	src := execSource{"e": e, "block": block}

	r := prog.Rules[0]
	plan := an.Plans[r].Full
	x := NewExec(plan)
	var got []string
	emit := func([]value.V) error {
		out := make(value.Tuple, len(plan.HeadExprs))
		if err := plan.BuildHead(x.Env(), out); err != nil {
			return err
		}
		got = append(got, out.String())
		return nil
	}
	probes, err := x.Run(src, nil, nil, emit)
	if err != nil {
		t.Fatal(err)
	}
	if probes == 0 {
		t.Fatal("no probes counted")
	}
	// a->b->c yes; b->c->d blocked; c->d nothing; a->b->a fails A != C;
	// b->a->b fails A != C.
	want := []string{"(a,c,2)"}
	if len(got) != len(want) || got[0] != want[0] {
		t.Fatalf("emissions = %v, want %v", got, want)
	}

	// The same rule through its delta plan: only joins seeded by the
	// delta tuple fire.
	dplan := an.Plans[r].Delta[0]
	dx := NewExec(dplan)
	got = nil
	demit := func([]value.V) error {
		out := make(value.Tuple, len(dplan.HeadExprs))
		if err := dplan.BuildHead(dx.Env(), out); err != nil {
			return err
		}
		got = append(got, out.String())
		return nil
	}
	if _, err := dx.Run(src, []value.Tuple{{value.Addr("a"), value.Addr("b")}}, nil, demit); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "(a,c,2)" {
		t.Fatalf("delta emissions = %v, want [(a,c,2)]", got)
	}
}

// runPlan drives an executor over a compiled plan and returns the head
// tuples in emission order.
func runPlan(t *testing.T, x *Exec, plan *ndlog.Plan, src TableSource) []string {
	t.Helper()
	var got []string
	_, err := x.Run(src, nil, nil, func([]value.V) error {
		out := make(value.Tuple, len(plan.HeadExprs))
		if err := plan.BuildHead(x.Env(), out); err != nil {
			return err
		}
		got = append(got, out.String())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestDeltaArityMismatchRejected: a delta tuple whose arity does not
// match the plan's delta predicate must be a hard error from the
// executor, not a silently skipped tuple.
func TestDeltaArityMismatchRejected(t *testing.T) {
	prog := ndlog.MustParse("x", `
materialize(e, infinity, infinity, keys(1,2)).
materialize(two, infinity, infinity, keys(1,2)).
r1 two(@A,C) :- e(@A,B), e(@B,C).
`)
	an, err := ndlog.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	e := New("e", 2, nil, 0)
	e.Insert(value.Tuple{value.Addr("a"), value.Addr("b")})
	src := execSource{"e": e}
	dplan := an.Plans[prog.Rules[0]].Delta[0]
	bad := []value.Tuple{{value.Addr("a"), value.Addr("b"), value.Int(3)}}
	if _, err := NewExec(dplan).Run(src, bad, nil, func([]value.V) error { return nil }); err == nil {
		t.Error("accepted arity-3 delta tuple for arity-2 plan")
	}
}

// TestStepKeyErrorResetsBuffer: when a key expression errors mid-build
// (here: string + int), the reusable key buffer must come back empty,
// and a subsequent clean Run on the same executor must succeed.
func TestStepKeyErrorResetsBuffer(t *testing.T) {
	prog := ndlog.MustParse("x", `
materialize(in, infinity, infinity, keys(1,2)).
materialize(e, infinity, infinity, keys(1,2,3)).
materialize(out, infinity, infinity, keys(1,2)).
rk out(@A,B) :- in(@A,X), e(@A,X+1,B).
`)
	an, err := ndlog.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	in := New("in", 2, nil, 0)
	in.Insert(value.Tuple{value.Addr("a"), value.Str("s")}) // X+1 will error
	e := New("e", 3, nil, 0)
	e.Insert(value.Tuple{value.Addr("a"), value.Int(2), value.Addr("b")})
	src := execSource{"in": in, "e": e}
	plan := an.Plans[prog.Rules[0]].Full

	x := NewExec(plan)
	if _, err := x.Run(src, nil, nil, func([]value.V) error { return nil }); err == nil {
		t.Fatal("string + int key expression did not error")
	}
	if len(x.keyBuf) != 0 {
		t.Fatalf("keyBuf not reset after key error: %q", x.keyBuf)
	}

	// Fix the data; the same executor must recover cleanly.
	in.Delete(value.Tuple{value.Addr("a"), value.Str("s")})
	in.Insert(value.Tuple{value.Addr("a"), value.Int(1)})
	if got := runPlan(t, x, plan, src); len(got) != 1 || got[0] != "(a,b)" {
		t.Fatalf("after recovery: %v, want [(a,b)]", got)
	}
}

// TestLookupNestedKeysStayIndependent: Lookup builds its key in a local
// buffer, so a nested Lookup on the same index (or a mutation between
// lookups) cannot corrupt an outer lookup's bucket.
func TestLookupNestedKeysStayIndependent(t *testing.T) {
	tb := New("lk", 2, []int{0}, 0)
	tb.Put(tup(1, 7), 0)
	tb.Put(tup(2, 7), 0)
	tb.Put(tup(3, 8), 0)
	outer := tb.Lookup([]int{1}, []value.V{value.Int(7)})
	if len(outer) != 2 {
		t.Fatalf("outer bucket = %d tuples, want 2", len(outer))
	}
	for _, o := range outer {
		inner := tb.Lookup([]int{1}, []value.V{value.Int(8)})
		if len(inner) != 1 || inner[0][0].I != 3 {
			t.Fatalf("nested lookup inside iteration = %v", inner)
		}
		if o[1].I != 7 {
			t.Fatalf("outer tuple corrupted by nested lookup: %v", o)
		}
	}
	// A Put between lookups must not invalidate key state either.
	tb.Put(tup(4, 7), 0)
	if got := len(tb.Lookup([]int{1}, []value.V{value.Int(7)})); got != 3 {
		t.Fatalf("after put, bucket 7 = %d, want 3", got)
	}
}

// TestNestedScanDeleteRegression is the Table.All aliasing regression:
// a self-join scans p at two nesting depths while the emit callback
// deletes a p tuple that both the outer and inner scans have yet to
// reach. The delete must tombstone in place — never compact and shift
// tuples under the live iterations — so the executor emits exactly the
// joins visible at their probe time.
func TestNestedScanDeleteRegression(t *testing.T) {
	prog := ndlog.MustParse("x", `
materialize(p, infinity, infinity, keys(1,2)).
materialize(q, infinity, infinity, keys(1,2)).
rq q(@A,C) :- p(@A,B), p(@B,C).
`)
	an, err := ndlog.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	plan := an.Plans[prog.Rules[0]].Full

	p := New("p", 2, nil, 0)
	for _, pair := range [][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}} {
		p.Insert(value.Tuple{value.Addr(pair[0]), value.Addr(pair[1])})
	}
	src := execSource{"p": p}
	x := NewExec(plan)
	var got []string
	_, err = x.Run(src, nil, nil, func([]value.V) error {
		out := make(value.Tuple, len(plan.HeadExprs))
		if err := plan.BuildHead(x.Env(), out); err != nil {
			return err
		}
		got = append(got, out.String())
		// The first emission (a,c) retracts p(c,d) mid-scan. The pending
		// join (b,c)+(c,d) must no longer fire, and the outer scan must
		// skip the tombstone rather than walk shifted memory.
		p.Delete(value.Tuple{value.Addr("c"), value.Addr("d")})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "(a,c)" {
		t.Errorf("emissions = %v, want [(a,c)]", got)
	}
	if p.Len() != 2 {
		t.Errorf("p.Len = %d, want 2", p.Len())
	}
	if all := p.All(); len(all) != 2 {
		t.Errorf("All after run = %d tuples, want 2", len(all))
	}
}
