package engine

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
)

// Partial is the partition-mergeable form of a query result: one entry
// per group holding raw accumulator state instead of finalized values.
// Partials from disjoint row ranges of the same table merge into
// exactly the state a single scan of the union would have produced —
// COUNT adds, MIN/MAX take extrema, and SUM/AVG/VAR/STDDEV carry their
// sums as exact fixed-point state (see exactFloat), so the merge is
// associative and the finalized bytes are independent of how the scan
// was partitioned. This generalizes the paper's phased-execution
// partial merging to the full aggregate set and is the unit of
// exchange between cluster workers and their coordinator.
//
// Partials are JSON-serializable: group keys are Values (exported
// fields) and accumulator state travels as AccState.
type Partial struct {
	// By lists the grouping columns; Cols and Funcs describe the
	// aggregate output columns, parallel slices.
	By    []string  `json:"by,omitempty"`
	Cols  []string  `json:"cols"`
	Funcs []AggFunc `json:"funcs"`
	// Groups holds one entry per group, sorted by key.
	Groups []PartialGroup `json:"groups"`
}

// PartialGroup is one group's key and per-aggregate state.
type PartialGroup struct {
	Key  []Value    `json:"key,omitempty"`
	Accs []AccState `json:"accs"`
}

// AccState is the serializable state of one aggregate accumulator.
type AccState struct {
	Count int64      `json:"count,omitempty"`
	Sum   ExactState `json:"sum,omitzero"`
	SumSq ExactState `json:"sumsq,omitzero"`
	Min   float64    `json:"min,omitempty"`
	Max   float64    `json:"max,omitempty"`
	Seen  bool       `json:"seen,omitempty"`
}

// accState snapshots an accumulator (folding any pending chunk).
func accState(a *accumulator) AccState {
	a.fold()
	return AccState{
		Count: a.count,
		Sum:   a.exSum.State(),
		SumSq: a.exSumSq.State(),
		Min:   a.min,
		Max:   a.max,
		Seen:  a.seen,
	}
}

// accumulatorOf rebuilds the in-memory accumulator.
func accumulatorOf(st AccState) accumulator {
	return accumulator{
		count:   st.Count,
		exSum:   exactFromState(st.Sum),
		exSumSq: exactFromState(st.SumSq),
		min:     st.Min,
		max:     st.Max,
		seen:    st.Seen,
	}
}

// mergeAccState folds b into a (same aggregate, disjoint partitions).
func mergeAccState(a, b AccState) AccState {
	aa, bb := accumulatorOf(a), accumulatorOf(b)
	aa.merge(&bb)
	return accState(&aa)
}

// RunPartials executes one scan feeding every grouping set — exactly
// like RunSharedScan — but returns partition-mergeable partials
// instead of finalized results. q.GroupBy/q.Aggs are used as a single
// implicit set when gsets is nil, mirroring Run. With a partial store
// installed, sealed-chunk partials are reused and only missing chunks
// are scanned (cluster workers therefore keep serving the sealed
// prefix of a table from cache across appends).
func (e *Executor) RunPartials(ctx context.Context, q *Query, gsets []GroupingSet) ([]*Partial, error) {
	if gsets == nil {
		gsets = []GroupingSet{{By: q.GroupBy, Aggs: q.Aggs, BinWidths: q.BinWidths}}
	}
	if ps, err := e.runPartialsChunked(ctx, q, gsets); err == nil {
		return ps, nil
	} else if !errors.Is(err, errChunkPathNA) {
		return nil, err
	}
	groupers, err := e.runGroupers(ctx, q, gsets, false)
	if err != nil {
		return nil, err
	}
	out := make([]*Partial, len(groupers))
	for i, g := range groupers {
		out[i] = g.partial()
	}
	return out, nil
}

// partial exports the grouper state, groups sorted by key. Exported
// state is fully owned by the Partial (accState snapshots fresh digit
// slices, key []Value slices are never mutated afterwards), so the
// grouper can be reset() and reused after this returns.
func (g *grouper) partial() *Partial {
	plan := g.plan
	p := &Partial{By: append([]string(nil), plan.set...)}
	for _, a := range plan.aggs {
		p.Cols = append(p.Cols, a.spec.Name())
		p.Funcs = append(p.Funcs, a.spec.Func)
	}
	emit := func(key []Value, accs []accumulator) {
		pg := PartialGroup{Key: key, Accs: make([]AccState, len(accs))}
		for i := range accs {
			pg.Accs[i] = accState(&accs[i])
		}
		p.Groups = append(p.Groups, pg)
	}
	if g.fastAccs != nil {
		for slot, seen := range g.fastSeen {
			if !seen {
				continue
			}
			emit(plan.slotKey(slot), g.fastAccs[slot*plan.nAggs:(slot+1)*plan.nAggs])
		}
	} else {
		for slot := range g.keys {
			emit(g.keys[slot], g.accs[slot*plan.nAggs:(slot+1)*plan.nAggs])
		}
	}
	sort.Slice(p.Groups, func(i, j int) bool {
		return compareKeys(p.Groups[i].Key, p.Groups[j].Key) < 0
	})
	return p
}

// compareKeys orders group keys column-wise (NULLs first), matching
// the deterministic ordering of finalized results.
func compareKeys(a, b []Value) int {
	for i := range a {
		if i >= len(b) {
			return 1
		}
		if c := a[i].Compare(b[i]); c != 0 {
			return c
		}
	}
	if len(a) < len(b) {
		return -1
	}
	return 0
}

// valueKey encodes a group key to a canonical comparable string for
// merge lookups. Kind and null status are part of the encoding, so
// Int(0) and Float(0) never collide.
func valueKey(key []Value) string {
	var buf []byte
	var tmp [8]byte
	for _, v := range key {
		buf = append(buf, byte(v.Kind))
		if v.Null {
			buf = append(buf, 1)
			continue
		}
		buf = append(buf, 0)
		switch v.Kind {
		case TypeInt, TypeTime:
			binary.LittleEndian.PutUint64(tmp[:], uint64(v.I))
			buf = append(buf, tmp[:]...)
		case TypeFloat:
			binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v.F))
			buf = append(buf, tmp[:]...)
		case TypeString:
			binary.LittleEndian.PutUint64(tmp[:], uint64(len(v.S)))
			buf = append(buf, tmp[:]...)
			buf = append(buf, v.S...)
		}
	}
	return string(buf)
}

// Merge folds another partial — the same grouping set computed over a
// disjoint row partition — into p. Groups stay sorted by key.
func (p *Partial) Merge(o *Partial) error {
	if len(p.Cols) != len(o.Cols) {
		return fmt.Errorf("engine: merging partials with %d vs %d aggregates", len(p.Cols), len(o.Cols))
	}
	for i := range p.Cols {
		if p.Cols[i] != o.Cols[i] || p.Funcs[i] != o.Funcs[i] {
			return fmt.Errorf("engine: merging partials with mismatched aggregate %d: %s(%v) vs %s(%v)",
				i, p.Cols[i], p.Funcs[i], o.Cols[i], o.Funcs[i])
		}
	}
	idx := make(map[string]int, len(p.Groups))
	for i, g := range p.Groups {
		idx[valueKey(g.Key)] = i
	}
	added := false
	for _, og := range o.Groups {
		if len(og.Accs) != len(p.Cols) {
			return fmt.Errorf("engine: partial group carries %d accumulators, want %d", len(og.Accs), len(p.Cols))
		}
		if i, ok := idx[valueKey(og.Key)]; ok {
			dst := p.Groups[i].Accs
			for j := range dst {
				dst[j] = mergeAccState(dst[j], og.Accs[j])
			}
			continue
		}
		cp := PartialGroup{Key: og.Key, Accs: append([]AccState(nil), og.Accs...)}
		idx[valueKey(cp.Key)] = len(p.Groups)
		p.Groups = append(p.Groups, cp)
		added = true
	}
	if added {
		sort.Slice(p.Groups, func(i, j int) bool {
			return compareKeys(p.Groups[i].Key, p.Groups[j].Key) < 0
		})
	}
	return nil
}

// Finalize materializes the merged state as a Result, rows sorted by
// group key — byte-identical to what a single whole-range scan would
// have returned.
func (p *Partial) Finalize() *Result {
	cols := make([]string, 0, len(p.By)+len(p.Cols))
	cols = append(cols, p.By...)
	cols = append(cols, p.Cols...)
	res := &Result{Columns: cols}
	for _, g := range p.Groups {
		row := make([]Value, 0, len(g.Key)+len(g.Accs))
		row = append(row, g.Key...)
		for i := range g.Accs {
			acc := accumulatorOf(g.Accs[i])
			row = append(row, acc.finalize(p.Funcs[i]))
		}
		res.Rows = append(res.Rows, row)
	}
	// Groups are kept key-sorted by construction, which matches the
	// grouper's deterministic output order; re-sorting here would only
	// mask a merge bug, so trust the invariant.
	return res
}
