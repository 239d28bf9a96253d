package store

import (
	"errors"
	"fmt"

	"repro/internal/ndlog"
	"repro/internal/value"
)

// This file is the storage side of incremental view maintenance: per-tuple
// support counts on Table (the counting algorithm for non-recursive
// strata), the delta pass that runs a reader's plans for one changed
// tuple, and the DRed re-derivation check (for recursive strata, where a
// cycle gives a tuple unboundedly many derivation trees and counts are
// unsound).

// ErrStop aborts an Exec.Run from inside its emit callback without
// reporting a failure — the early-exit signal of existence checks such as
// Rederivable. Run's other results are undefined after a stop; callers
// must treat the run as a boolean probe.
var ErrStop = errors.New("store: stop scan")

// AddSupport increments the derivation-support count of tup, returning
// the new count. Support counts identify tuples by full content (not by
// primary key): counting maintenance applies to set-semantics derived
// relations, where the two coincide.
func (t *Table) AddSupport(tup value.Tuple) int {
	if t.support == nil {
		t.support = map[string]int32{}
	}
	t.keyBuf = tup.AppendKey(t.keyBuf[:0])
	n := t.support[string(t.keyBuf)] + 1
	t.support[string(t.keyBuf)] = n
	return int(n)
}

// DropSupport decrements the support count of tup, returning the new
// count. A count never goes below zero; zero-count entries are removed.
func (t *Table) DropSupport(tup value.Tuple) int {
	if t.support == nil {
		return 0
	}
	t.keyBuf = tup.AppendKey(t.keyBuf[:0])
	n := t.support[string(t.keyBuf)]
	if n <= 1 {
		delete(t.support, string(t.keyBuf))
		return 0
	}
	t.support[string(t.keyBuf)] = n - 1
	return int(n - 1)
}

// SupportCount returns the current support count of tup.
func (t *Table) SupportCount(tup value.Tuple) int {
	if t.support == nil {
		return 0
	}
	t.keyBuf = tup.AppendKey(t.keyBuf[:0])
	return int(t.support[string(t.keyBuf)])
}

// ResetSupport discards all support counts (the table's contents are
// untouched). The next maintenance pass re-initializes them from a full
// evaluation.
func (t *Table) ResetSupport() { t.support = nil }

// HasSupport reports whether any support counts are currently tracked.
func (t *Table) HasSupport() bool { return t.support != nil }

// FrameSet deduplicates derivation frames across the plan variants of one
// rule. A rule with k body occurrences of a changed predicate emits the
// same derivation up to k times (once per delta position); hashing the
// frame through the plan's CanonSlots identifies the derivation
// independently of the emitting variant. Like every fingerprint dedup in
// this codebase, distinct frames collide with probability ~2^-64.
type FrameSet struct {
	seen map[uint64]struct{}
}

// Reset clears the set for the next changed tuple.
func (f *FrameSet) Reset() {
	if f.seen == nil {
		f.seen = map[uint64]struct{}{}
		return
	}
	clear(f.seen)
}

// Seen records the frame's canonical fingerprint, reporting whether it
// was already present.
func (f *FrameSet) Seen(p *ndlog.Plan, frame []value.V) bool {
	h := value.HashSeed
	for _, s := range p.CanonSlots {
		h = frame[s].Hash64(h)
	}
	if _, ok := f.seen[h]; ok {
		return true
	}
	if f.seen == nil {
		f.seen = map[uint64]struct{}{}
	}
	f.seen[h] = struct{}{}
	return false
}

// DeltaPass runs the delta plans of one reader (ndlog.Reader) for one
// changed tuple: the incremental step both evaluators take for every
// rule a change reaches. It owns the reusable delta slot and frame set;
// like Exec it is single-goroutine state.
type DeltaPass struct {
	frames FrameSet
	delta  [1]value.Tuple
}

// Run evaluates rd's plans with tup as the delta: the Delta plan at each
// positive position, the NegDelta plan at each negated one (see
// ndlog.RulePlans for which state each direction runs against), each on
// the executor exec returns. A reader with more than one position skips
// frames an earlier position already emitted, so a self-join yields each
// derivation once. For every frame Run builds the head into a fresh
// tuple and calls emit with the executor, whose frame is still bound
// (for Antecedents). It returns the probes of all runs.
func (d *DeltaPass) Run(ts TableSource, rd ndlog.Reader, rp *ndlog.RulePlans, exec func(*ndlog.Plan) *Exec, tup value.Tuple, emit func(x *Exec, head value.Tuple) error) (int64, error) {
	dedup := len(rd.Pos) > 1
	if dedup {
		d.frames.Reset()
	}
	d.delta[0] = tup
	var probes int64
	for _, i := range rd.Pos {
		plan := rp.Delta[i]
		if rd.Rule.Body[i].Neg {
			plan = rp.NegDelta[i]
		}
		x := exec(plan)
		n, err := x.Run(ts, d.delta[:], nil, func(frame []value.V) error {
			if dedup && d.frames.Seen(plan, frame) {
				return nil
			}
			head := make(value.Tuple, len(plan.HeadExprs))
			if err := plan.BuildHead(x.Env(), head); err != nil {
				return fmt.Errorf("store: rule %s head: %w", rd.Rule.Label, err)
			}
			return emit(x, head)
		})
		probes += n
		if err != nil {
			return probes, err
		}
	}
	return probes, nil
}

// Rederivable is the DRed re-derivation check: it reports whether head
// can still be derived, against the current contents of ts, by the rule
// whose HeadSeeded plan x runs. seedCols are the plan's HeadSeedCols. The
// scan stops at the first witness; witness, when non-nil, is called from
// inside the emit callback while that frame is bound (so it can read the
// firing's Antecedents). The probe count is x.Probes().
func Rederivable(x *Exec, ts TableSource, seedCols []int, head value.Tuple, witness func()) (bool, error) {
	seed := make([]value.V, len(seedCols))
	for i, c := range seedCols {
		seed[i] = head[c]
	}
	buf := make(value.Tuple, len(head))
	found := false
	_, err := x.Run(ts, nil, seed, func([]value.V) error {
		if err := x.Plan.BuildHead(x.Env(), buf); err != nil {
			return err
		}
		if !buf.Equal(head) {
			return nil
		}
		found = true
		if witness != nil {
			witness()
		}
		return ErrStop
	})
	if err != nil && !errors.Is(err, ErrStop) {
		return false, err
	}
	return found, nil
}
