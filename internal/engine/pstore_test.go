package engine

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// appendRows generates deterministic extra rows shaped like
// partialTestTable's data, starting at a given offset so values differ
// from the base load.
func appendRows(n int, seed int64) [][]Value {
	rng := rand.New(rand.NewSource(seed))
	dims := []string{"a", "b", "c", "d", "e"}
	rows := make([][]Value, n)
	for i := range rows {
		m := math.Round(rng.Float64()*20000-10000) / 100
		mv := Float(m)
		if rng.Intn(50) == 0 {
			mv = NullValue(TypeFloat)
		}
		rows[i] = []Value{String(dims[rng.Intn(len(dims))]), Int(int64(rng.Intn(4))), mv}
	}
	return rows
}

// TestIncrementalMatchesColdScan is the tentpole invariant: with a
// partial store installed, a query after any number of appends is
// byte-identical to a cold scan of the full table by an executor with
// no store at all.
func TestIncrementalMatchesColdScan(t *testing.T) {
	ctx := context.Background()
	build := func(withStore bool) (*Executor, *Table) {
		cat := NewCatalog()
		tb := partialTestTable(t, 6_000, 31)
		if err := cat.Register(tb); err != nil {
			t.Fatal(err)
		}
		ex := NewExecutor(cat)
		if withStore {
			ex.SetPartialStore(NewPartialStore(0))
		}
		return ex, tb
	}
	inc, incTb := build(true)
	cold, coldTb := build(false)

	// Prime the store, then append several batches, re-querying after
	// each; the cold executor receives identical appends and rescans.
	if _, err := inc.Run(ctx, partialTestQuery(1)); err != nil {
		t.Fatal(err)
	}
	for i, delta := range []int{1, 500, 1024, 3000} {
		rows := appendRows(delta, int64(100+i))
		if _, err := incTb.Append(rows); err != nil {
			t.Fatal(err)
		}
		if _, err := coldTb.Append(rows); err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 4} {
			got, err := inc.Run(ctx, partialTestQuery(par))
			if err != nil {
				t.Fatal(err)
			}
			want, err := cold.Run(ctx, partialTestQuery(1))
			if err != nil {
				t.Fatal(err)
			}
			if g, w := resultBytes(t, got), resultBytes(t, want); g != w {
				t.Fatalf("delta=%d par=%d: incremental result differs from cold scan:\n%s\nvs\n%s", delta, par, g, w)
			}
		}
	}
	st := inc.PartialStore().Stats()
	if st.Hits == 0 || st.RowsReused == 0 {
		t.Fatalf("expected sealed-chunk reuse, got %+v", st)
	}
}

// TestIncrementalScansOnlyDelta pins the O(delta) property: after the
// store is primed, a query following an append reads only the tail and
// the appended rows — not the table.
func TestIncrementalScansOnlyDelta(t *testing.T) {
	ctx := context.Background()
	cat := NewCatalog()
	tb := partialTestTable(t, 50_000, 7)
	if err := cat.Register(tb); err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(cat)
	ex.SetPartialStore(NewPartialStore(0))
	if _, err := ex.Run(ctx, partialTestQuery(1)); err != nil {
		t.Fatal(err)
	}

	const delta = 700
	if _, err := tb.Append(appendRows(delta, 9)); err != nil {
		t.Fatal(err)
	}
	_, _, rowsBefore := ex.Stats().Snapshot()
	if _, err := ex.Run(ctx, partialTestQuery(1)); err != nil {
		t.Fatal(err)
	}
	_, _, rowsAfter := ex.Stats().Snapshot()
	scanned := rowsAfter - rowsBefore
	// The rescan is bounded by the delta plus the unsealed tail chunk.
	if maxScan := int64(delta + ChunkRows); scanned > maxScan {
		t.Fatalf("query after %d-row append scanned %d rows, want <= %d", delta, scanned, maxScan)
	}
	if scanned < delta {
		t.Fatalf("query after %d-row append scanned only %d rows", delta, scanned)
	}
	st := ex.PartialStore().Stats()
	if ratio := st.ReuseRatio(); ratio < 0.4 {
		t.Fatalf("expected substantial reuse after append, got ratio %.2f (%+v)", ratio, st)
	}
}

// TestIncrementalRowRanges: the chunked path composes with explicit
// RowLo/RowHi ranges (the cluster's scatter unit), including ranges
// that do not start at zero.
func TestIncrementalRowRanges(t *testing.T) {
	ctx := context.Background()
	cat := NewCatalog()
	tb := partialTestTable(t, 10_000, 3)
	if err := cat.Register(tb); err != nil {
		t.Fatal(err)
	}
	cold := NewExecutor(cat)
	want, err := cold.Run(ctx, partialTestQuery(1))
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(cat)
	ex.SetPartialStore(NewPartialStore(0))
	for _, n := range []int{1, 3, 7} {
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
		if got, w := resultBytes(t, merged.Finalize()), resultBytes(t, want); got != w {
			t.Fatalf("n=%d: range-merged incremental partials differ from cold scan", n)
		}
	}
	if st := ex.PartialStore().Stats(); st.Hits == 0 {
		t.Fatalf("second and later splits should reuse chunk partials, got %+v", st)
	}
}

// TestIncrementalSampledAndFiltered: sampling and per-aggregate filters
// are part of the plan signature, so differently-parameterized queries
// never share chunk entries — and each stays byte-identical to its own
// cold scan.
func TestIncrementalSampledAndFiltered(t *testing.T) {
	ctx := context.Background()
	cat := NewCatalog()
	tb := partialTestTable(t, 8_000, 13)
	if err := cat.Register(tb); err != nil {
		t.Fatal(err)
	}
	cold := NewExecutor(cat)
	ex := NewExecutor(cat)
	ex.SetPartialStore(NewPartialStore(0))

	mk := func(frac float64, seed uint64) *Query {
		q := partialTestQuery(1)
		q.SampleFraction = frac
		q.SampleSeed = seed
		return q
	}
	for _, q := range []*Query{mk(0, 0), mk(0.5, 1), mk(0.5, 2), mk(0.25, 1)} {
		want, err := cold.Run(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		// Twice: cold-miss pass, then fully-cached pass.
		for i := 0; i < 2; i++ {
			got, err := ex.Run(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := resultBytes(t, got), resultBytes(t, want); g != w {
				t.Fatalf("sample=%g seed=%d pass=%d: incremental differs from cold", q.SampleFraction, q.SampleSeed, i)
			}
		}
	}
}

// TestPartialStoreEviction: the byte budget holds and evictions are
// counted; queries stay correct when everything was evicted.
func TestPartialStoreEviction(t *testing.T) {
	ctx := context.Background()
	cat := NewCatalog()
	tb := partialTestTable(t, 12_000, 5)
	if err := cat.Register(tb); err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(cat)
	store := NewPartialStore(4 << 10) // 4 KiB: a few chunk entries at most
	ex.SetPartialStore(store)
	want, err := NewExecutor(cat).Run(ctx, partialTestQuery(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := ex.Run(ctx, partialTestQuery(1))
		if err != nil {
			t.Fatal(err)
		}
		if g, w := resultBytes(t, got), resultBytes(t, want); g != w {
			t.Fatalf("pass %d: evicting store changed result bytes", i)
		}
	}
	st := store.Stats()
	if st.Evictions == 0 {
		t.Fatalf("tiny budget should evict, got %+v", st)
	}
	if st.Bytes > 3*(4<<10) {
		t.Fatalf("store grew far past its budget: %+v", st)
	}
}

// TestAppendValidation: a bad batch rolls back atomically and keeps the
// table rectangular and version-stable.
func TestAppendValidation(t *testing.T) {
	tb := MustNewTable("t", Schema{
		{Name: "d", Type: TypeString},
		{Name: "m", Type: TypeFloat},
	})
	if _, err := tb.Append([][]Value{{String("x"), Float(1)}, {String("y"), Float(2)}}); err != nil {
		t.Fatal(err)
	}
	fp := tb.Fingerprint()
	// Wrong arity.
	if _, err := tb.Append([][]Value{{String("z")}}); err == nil {
		t.Fatal("expected arity error")
	}
	// Wrong type in the second row of a batch: the whole batch must
	// roll back, including the valid first row.
	if _, err := tb.Append([][]Value{{String("ok"), Float(3)}, {String("bad"), String("nope")}}); err == nil {
		t.Fatal("expected type error")
	}
	if tb.NumRows() != 2 {
		t.Fatalf("failed appends must roll back: %d rows", tb.NumRows())
	}
	if tb.Fingerprint() != fp {
		t.Fatalf("failed appends must not bump the version")
	}
	for _, c := range []string{"d", "m"} {
		col, err := tb.Column(c)
		if err != nil {
			t.Fatal(err)
		}
		if col.Len() != 2 {
			t.Fatalf("column %q has %d rows after rollback", c, col.Len())
		}
	}
	// An empty batch is a no-op.
	if n, err := tb.Append(nil); err != nil || n != 2 {
		t.Fatalf("empty append: n=%d err=%v", n, err)
	}
	if tb.Fingerprint() != fp {
		t.Fatalf("empty append must not bump the version")
	}
}

// TestChunkHashStableAcrossAppends: sealed-cell hashes never change
// once computed, and identically-loaded tables agree on them — the
// content-addressing property the store is built on.
func TestChunkHashStableAcrossAppends(t *testing.T) {
	a := partialTestTable(t, 3_000, 55)
	b := partialTestTable(t, 3_000, 55)
	a.mu.RLock()
	h0 := a.chunkHashLocked(0)
	h1 := a.chunkHashLocked(1)
	a.mu.RUnlock()
	if _, err := a.Append(appendRows(2_500, 4)); err != nil {
		t.Fatal(err)
	}
	a.mu.RLock()
	h0after, h1after := a.chunkHashLocked(0), a.chunkHashLocked(1)
	a.mu.RUnlock()
	if h0 != h0after || h1 != h1after {
		t.Fatal("sealed chunk hashes changed across an append")
	}
	b.mu.RLock()
	b0, b1 := b.chunkHashLocked(0), b.chunkHashLocked(1)
	b.mu.RUnlock()
	if b0 != h0 || b1 != h1 {
		t.Fatal("identically-loaded tables disagree on chunk hashes")
	}
	if h0 == h1 {
		t.Fatal("distinct chunks should hash differently")
	}
	if a.SealedChunks() != 5500/ChunkRows {
		t.Fatalf("SealedChunks=%d, want %d", a.SealedChunks(), 5500/ChunkRows)
	}
}
