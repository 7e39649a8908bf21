package main

import (
	"context"
	"slices"
	"testing"
	"time"

	"seedb"
)

// Each cold_start sample's timed region must start from nothing: zero
// executor, exec-cache and partial-store counters, a collector that has
// never seen the table, and a table and instance no earlier sample
// used.
func TestColdSamplesStartCold(t *testing.T) {
	src := sourceTable(5, 50000)
	var ingest ingestLog
	seenFP := map[string]bool{}
	var prev *seedb.DB
	for i := 0; i < 3; i++ {
		cs, err := newColdSample(src, &ingest)
		if err != nil {
			t.Fatal(err)
		}
		if q, s, r := cs.db.ExecStats(); q != 0 || s != 0 || r != 0 {
			t.Errorf("sample %d: ExecStats = %d queries, %d scans, %d rows; want zero", i, q, s, r)
		}
		if st := cs.db.CacheStats(); st != (seedb.CacheStats{}) {
			t.Errorf("sample %d: CacheStats = %+v; want zero", i, st)
		}
		if st := cs.db.IncrementalStats(); st != (seedb.PartialStoreStats{}) {
			t.Errorf("sample %d: IncrementalStats = %+v; want zero", i, st)
		}
		if cs.db == prev {
			t.Errorf("sample %d reuses the previous instance", i)
		}
		prev = cs.db
		if fp := cs.t.Fingerprint(); seenFP[fp] {
			t.Errorf("sample %d reuses table %s", i, fp)
		} else {
			seenFP[fp] = true
		}

		// The first Stats call computes; the second returns the memo.
		col := cs.db.Engine().Collector()
		start := time.Now()
		first := col.Stats(cs.t)
		miss := time.Since(start)
		start = time.Now()
		second := col.Stats(cs.t)
		hit := time.Since(start)
		if first != second {
			t.Fatalf("sample %d: the second Stats call recomputed", i)
		}
		if miss < 10*hit {
			t.Errorf("sample %d: first Stats call took %v, the memo hit %v: the first call was not a miss", i, miss, hit)
		}
	}
}

// The traced cold sample calls CorrelationClusters directly, so that
// stats.cramers_ms times the clustering the Recommend then reuses. The
// collector memoizes clusterings on the exact column list and keeps
// each pair's state under its ordered names, so with the list the
// program builds the Recommend computes no clustering of its own, while
// after a direct call over the same dimensions in reverse order it
// computes every pair again and takes about as long again as that call.
func TestDirectClusteringIsReused(t *testing.T) {
	src := sourceTable(9, 100000)
	opts := seedb.DefaultOptions()
	sample := func(reversed bool) (direct, rec time.Duration) {
		var ingest ingestLog
		cs, err := newColdSample(src, &ingest)
		if err != nil {
			t.Fatal(err)
		}
		col := cs.db.Engine().Collector()
		dims := clusterDims(col.Stats(cs.t), cs.t.Schema(), coldPredicate().Columns(), opts)
		if len(dims) < 3 {
			t.Fatalf("only %d dimensions to cluster: %v", len(dims), dims)
		}
		if reversed {
			slices.Reverse(dims)
		}
		start := time.Now()
		if _, err := col.CorrelationClusters(cs.t, dims, opts.CorrelationThreshold); err != nil {
			t.Fatal(err)
		}
		direct = time.Since(start)
		start = time.Now()
		if _, err := cs.db.Recommend(context.Background(), tableName, coldPredicate(), opts); err != nil {
			t.Fatal(err)
		}
		return direct, time.Since(start)
	}
	// The fastest of three samples each, to keep scheduling noise out.
	fastest := func(reversed bool) (direct, rec time.Duration) {
		for i := 0; i < 3; i++ {
			d, r := sample(reversed)
			if i == 0 || d < direct {
				direct = d
			}
			if i == 0 || r < rec {
				rec = r
			}
		}
		return direct, rec
	}
	_, reused := fastest(false)
	direct, recomputed := fastest(true)
	if extra := recomputed - reused; extra < direct/2 {
		t.Errorf("Recommend took %v after the direct call with the program's dimension list and %v after one in reverse order; the difference %v is under half the clustering's own cost %v, so the program's list was not reused",
			reused, recomputed, extra, direct)
	}
}
