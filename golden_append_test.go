package seedb

import (
	"context"
	"testing"
)

// Golden append tests: the incremental-execution guarantee of the
// append path, pinned end to end. A query issued after N appends —
// answered by merging cached sealed-chunk partials with freshly
// scanned delta partials — must be byte-identical to a cold scan of
// the full table by an instance that never cached anything, at every
// shard count. The engine's absolute chunk grid plus exact partial
// merging is what makes this achievable; any drift in the chunk-partial
// store, the append path, or the grid shows up here as a diff.

// goldenAppendRows builds deterministic extra superstore rows in the
// loose wire shape the ingest API accepts.
func goldenAppendRows(n, salt int) [][]any {
	regions := []string{"West", "East", "Central", "South"}
	cats := [][2]string{{"Furniture", "Chairs"}, {"Technology", "Phones"}, {"Office Supplies", "Paper"}}
	rows := make([][]any, n)
	for i := range rows {
		k := i + salt
		cat := cats[k%len(cats)]
		rows[i] = []any{
			regions[k%len(regions)], "California", "Consumer", cat[0], cat[1],
			"Standard", "07-Jul",
			float64(50+k%400) + 0.25, float64(k%120) - 30.5, float64(1 + k%7), float64(k%4) * 0.1,
		}
	}
	return rows
}

func TestGoldenAppendMatchesColdScan(t *testing.T) {
	ctx := context.Background()
	opts := goldenOptions("emd")
	query := goldenQueries[0]
	deltas := []int{137, 1024, 2600}

	appendAll := func(db *DB) {
		t.Helper()
		tb, err := db.Table("orders")
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range deltas {
			typed, err := tb.ParseRows(goldenAppendRows(d, i*1000))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tb.Append(typed); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Cold reference: same final contents, never queried before, no
	// caches of any kind.
	cold := goldenDB(t)
	appendAll(cold)
	want, err := cold.RecommendSQL(ctx, query, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := renderGolden(want)

	// Live instance: full service layer (view cache + chunk-partial
	// store), primed before every append so the store holds stale-table
	// state that must be correctly reused, re-querying after each batch.
	live := goldenDB(t)
	live.Serve(ServeConfig{})
	if _, err := live.RecommendSQL(ctx, query, opts); err != nil {
		t.Fatal(err)
	}
	tb, err := live.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range deltas {
		typed, err := tb.ParseRows(goldenAppendRows(d, i*1000))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tb.Append(typed); err != nil {
			t.Fatal(err)
		}
		if _, err := live.RecommendSQL(ctx, query, opts); err != nil {
			t.Fatal(err)
		}
	}
	res, err := live.RecommendSQL(ctx, query, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderGolden(res); got != wantBytes {
		t.Fatalf("query after appends differs from cold scan:\n%s\nvs\n%s", got, wantBytes)
	}
	if st := live.IncrementalStats(); st.RowsReused == 0 {
		t.Fatalf("live instance should have reused sealed-chunk partials: %+v", st)
	}

	// Every scan split over the grown table agrees with the cold scan.
	for _, n := range goldenShardCounts {
		db := goldenDB(t)
		appendAll(db)
		opts := opts
		b := splitScans(db, &opts, n)
		db.Serve(ServeConfig{})
		// Warm pass after a cold pass: both must match the reference.
		for pass := 0; pass < 2; pass++ {
			res, err := db.RecommendSQL(ctx, query, opts)
			if err != nil {
				t.Fatalf("split=%d pass=%d: %v", n, pass, err)
			}
			if got := renderGolden(res); got != wantBytes {
				t.Fatalf("split=%d pass=%d differs from cold scan:\n%s\nvs\n%s", n, pass, got, wantBytes)
			}
		}
		requireSplit(t, b, n)
	}
}

// TestGoldenAppendIncrementalReuse pins the O(delta) claim at the
// RowsRead level: once primed, a query after a small append reads far
// fewer rows than the table holds.
func TestGoldenAppendIncrementalReuse(t *testing.T) {
	ctx := context.Background()
	opts := goldenOptions("emd")
	db := goldenDB(t)
	db.Serve(ServeConfig{})
	if _, err := db.RecommendSQL(ctx, goldenQueries[0], opts); err != nil {
		t.Fatal(err)
	}
	tb, err := db.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	const delta = 200
	typed, err := tb.ParseRows(goldenAppendRows(delta, 9))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Append(typed); err != nil {
		t.Fatal(err)
	}
	db.ResetExecStats()
	stBefore := db.IncrementalStats()
	if _, err := db.RecommendSQL(ctx, goldenQueries[0], opts); err != nil {
		t.Fatal(err)
	}
	queries, _, rows := db.ExecStats()
	if queries == 0 {
		t.Fatal("expected engine queries after append (view cache must miss on the new fingerprint)")
	}
	// Each engine query may rescan at most the unsealed tail plus the
	// delta; the sealed prefix must come from the store.
	tableRows := int64(tb.NumRows())
	budget := queries * int64(delta+2*1024)
	if rows > budget || rows >= queries*tableRows/2 {
		t.Fatalf("after a %d-row append, %d queries read %d rows (budget %d, table %d) — delta reuse is not happening",
			delta, queries, rows, budget, tableRows)
	}
	// Reuse ratio of the post-append query alone (the store counters
	// are cumulative, so difference out the priming pass).
	st := db.IncrementalStats()
	reused := st.RowsReused - stBefore.RowsReused
	scanned := st.RowsScanned - stBefore.RowsScanned
	if reused == 0 || scanned == 0 {
		t.Fatalf("post-append query should mix reuse and delta scanning: reused=%d scanned=%d", reused, scanned)
	}
	if ratio := float64(reused) / float64(reused+scanned); ratio < 0.5 {
		t.Fatalf("post-append reuse ratio %.2f too low (reused=%d scanned=%d)", ratio, reused, scanned)
	}
}
