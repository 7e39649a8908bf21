package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// partialTestTable builds a table with a string dimension, an int
// dimension, and a float measure whose two-decimal values make float
// summation order-sensitive — exactly the shape that exposes
// non-deterministic merges.
func partialTestTable(t *testing.T, rows int, seed int64) *Table {
	t.Helper()
	tb, err := NewTable("pt", Schema{
		{Name: "d", Type: TypeString},
		{Name: "g", Type: TypeInt},
		{Name: "m", Type: TypeFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	dims := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < rows; i++ {
		m := math.Round(rng.Float64()*20000-10000) / 100
		var mv Value
		if rng.Intn(50) == 0 {
			mv = NullValue(TypeFloat)
		} else {
			mv = Float(m)
		}
		if err := tb.AppendRow(String(dims[rng.Intn(len(dims))]), Int(int64(rng.Intn(4))), mv); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func partialTestQuery(par int) *Query {
	return &Query{
		Table:       "pt",
		GroupBy:     []string{"d"},
		Parallelism: par,
		Aggs: []AggSpec{
			{Func: AggCount, Alias: "n"},
			{Func: AggSum, Column: "m", Alias: "s"},
			{Func: AggAvg, Column: "m", Alias: "a"},
			{Func: AggMin, Column: "m", Alias: "lo"},
			{Func: AggMax, Column: "m", Alias: "hi"},
			{Func: AggVariance, Column: "m", Alias: "v"},
			{Func: AggStddev, Column: "m", Alias: "sd"},
			{Func: AggSum, Column: "m", Filter: Eq("g", Int(1)), Alias: "fs"},
		},
	}
}

func resultBytes(t *testing.T, r *Result) string {
	t.Helper()
	var out string
	for _, row := range r.Rows {
		for _, v := range row {
			if v.Kind == TypeFloat && !v.Null {
				out += fmt.Sprintf("%x|", math.Float64bits(v.F))
			} else {
				out += v.Format() + "|"
			}
		}
		out += "\n"
	}
	return out
}

// TestPartialMergeMatchesSingleScan is the core determinism property:
// for every split count, merging per-range partials finalizes to the
// byte-identical result of one whole-table scan — for every aggregate
// function including AVG/VAR/STDDEV.
func TestPartialMergeMatchesSingleScan(t *testing.T) {
	ctx := context.Background()
	cat := NewCatalog()
	tb := partialTestTable(t, 10_000, 11)
	if err := cat.Register(tb); err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(cat)

	want, err := ex.Run(ctx, partialTestQuery(1))
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := resultBytes(t, want)

	for _, n := range []int{1, 2, 3, 4, 8, 17, 64} {
		ranges := splitAligned(0, tb.NumRows(), n)
		var merged *Partial
		for _, rg := range ranges {
			q := partialTestQuery(1)
			q.RowLo, q.RowHi = rg[0], rg[1]
			ps, err := ex.RunPartials(ctx, q, nil)
			if err != nil {
				t.Fatal(err)
			}
			if merged == nil {
				merged = ps[0]
				continue
			}
			if err := merged.Merge(ps[0]); err != nil {
				t.Fatal(err)
			}
		}
		got := resultBytes(t, merged.Finalize())
		if got != wantBytes {
			t.Fatalf("n=%d: merged partials differ from single scan:\n%s\nvs\n%s", n, got, wantBytes)
		}
	}
}

// TestPartialMergeOrderIrrelevant merges the same range partials in
// scrambled orders; exact accumulator state makes the bytes identical.
func TestPartialMergeOrderIrrelevant(t *testing.T) {
	ctx := context.Background()
	cat := NewCatalog()
	tb := partialTestTable(t, 5_000, 5)
	if err := cat.Register(tb); err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(cat)
	ranges := splitAligned(0, tb.NumRows(), 8)
	parts := make([]*Partial, len(ranges))
	for i, rg := range ranges {
		q := partialTestQuery(1)
		q.RowLo, q.RowHi = rg[0], rg[1]
		ps, err := ex.RunPartials(ctx, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = ps[0]
	}
	mergeOrder := func(order []int) string {
		// Deep-copy via JSON so reruns don't share mutated state.
		var acc *Partial
		for _, i := range order {
			data, err := json.Marshal(parts[i])
			if err != nil {
				t.Fatal(err)
			}
			var cp Partial
			if err := json.Unmarshal(data, &cp); err != nil {
				t.Fatal(err)
			}
			if acc == nil {
				acc = &cp
				continue
			}
			if err := acc.Merge(&cp); err != nil {
				t.Fatal(err)
			}
		}
		return resultBytes(t, acc.Finalize())
	}
	fwdOrder := make([]int, len(parts))
	revOrder := make([]int, len(parts))
	for i := range parts {
		fwdOrder[i] = i
		revOrder[len(parts)-1-i] = i
	}
	mixOrder := append([]int(nil), fwdOrder...)
	rand.New(rand.NewSource(17)).Shuffle(len(mixOrder), func(i, j int) {
		mixOrder[i], mixOrder[j] = mixOrder[j], mixOrder[i]
	})
	fwd := mergeOrder(fwdOrder)
	rev := mergeOrder(revOrder)
	mix := mergeOrder(mixOrder)
	if fwd != rev || fwd != mix {
		t.Fatalf("merge order changed result bytes")
	}
}

// TestScanParallelismInvariance: the same query returns byte-identical
// results for every Parallelism setting — the property that let the
// exec cache drop Parallelism from its keys.
func TestScanParallelismInvariance(t *testing.T) {
	ctx := context.Background()
	cat := NewCatalog()
	tb := partialTestTable(t, 20_000, 23)
	if err := cat.Register(tb); err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(cat)
	var want string
	for _, par := range []int{1, 2, 3, 4, 8, 32} {
		res, err := ex.Run(ctx, partialTestQuery(par))
		if err != nil {
			t.Fatal(err)
		}
		got := resultBytes(t, res)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("parallelism %d changed result bytes", par)
		}
	}
	// Sampling composes with partitioning: row-index based sampling plus
	// grid-aligned splits keep sampled results invariant too.
	for _, par := range []int{1, 7} {
		q := partialTestQuery(par)
		q.SampleFraction = 0.35
		q.SampleSeed = 99
		res, err := ex.Run(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if par == 1 {
			want = resultBytes(t, res)
		} else if got := resultBytes(t, res); got != want {
			t.Fatalf("sampled scan not parallelism-invariant")
		}
	}
}

// TestPartialJSONRoundTrip: the wire form preserves merge semantics.
func TestPartialJSONRoundTrip(t *testing.T) {
	ctx := context.Background()
	cat := NewCatalog()
	tb := partialTestTable(t, 3_000, 77)
	if err := cat.Register(tb); err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(cat)
	// Multi-column group keys and binning exercise the generic path.
	q := &Query{
		Table:       "pt",
		GroupBy:     []string{"d", "g"},
		Parallelism: 2,
		Aggs: []AggSpec{
			{Func: AggSum, Column: "m", Alias: "s"},
			{Func: AggAvg, Column: "m", Alias: "a"},
		},
	}
	want, err := ex.Run(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := ex.RunPartials(ctx, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(ps[0])
	if err != nil {
		t.Fatal(err)
	}
	var back Partial
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if got, wantB := resultBytes(t, back.Finalize()), resultBytes(t, want); got != wantB {
		t.Fatalf("JSON round-trip changed finalized bytes:\n%s\nvs\n%s", got, wantB)
	}
}
