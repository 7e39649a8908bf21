package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"seedb"
)

func smallInstance(t *testing.T) *seedb.DB {
	t.Helper()
	var ignore ingestLog
	db, err := loadInstance(sourceTable(11, 20000), &ignore)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

var checkQueries = []string{
	"SELECT * FROM orders WHERE category = 'Furniture'",
	"SELECT * FROM orders WHERE region IN ('East', 'West') EXPLORE similarity PROBE count(*) BY segment",
	"SELECT * FROM orders WHERE segment = 'Consumer' AND discount >= 0.05 EXPLORE outlier",
}

// A result that differs from the reference in one view's utility must
// count as a failed operation, through both the in-process and the
// HTTP comparisons.
func TestCorruptedResultCountsAsFailed(t *testing.T) {
	served, ref := smallInstance(t), smallInstance(t)
	q := checkQueries[0]
	res, err := served.RecommendSQL(context.Background(), q, seedb.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	var c checker
	newReference(ref, renderResult).check(&c, q, resultBytes(res), "test")
	if c.attempted != 1 || c.failed != 0 {
		t.Fatalf("intact result: attempted %d failed %d, want 1 and 0", c.attempted, c.failed)
	}
	var a checker
	newReference(ref, renderResult).checkAt(&a, q, map[string]int64{}, resultBytes(res), "test")
	if a.attempted != 1 || a.failed != 0 {
		t.Fatalf("intact result at its access history: attempted %d failed %d, want 1 and 0", a.attempted, a.failed)
	}
	res.Recommendations[0].Data.Utility += 1e-9
	newReference(ref, renderResult).check(&c, q, resultBytes(res), "test")
	if c.attempted != 2 || c.failed != 1 {
		t.Fatalf("corrupted result: attempted %d failed %d, want 2 and 1", c.attempted, c.failed)
	}
	newReference(ref, renderResult).checkAt(&a, q, map[string]int64{}, resultBytes(res), "test")
	if a.attempted != 2 || a.failed != 1 {
		t.Fatalf("corrupted result at its access history: attempted %d failed %d, want 2 and 1", a.attempted, a.failed)
	}

	srv, err := startHTTP(served)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.stop()
	rep := httpReply{query: q}
	rep.post(http.DefaultClient, srv.url)
	if rep.err != nil {
		t.Fatal(rep.err)
	}
	var body map[string]any
	if err := json.Unmarshal(rep.body, &body); err != nil {
		t.Fatal(err)
	}
	view := body["views"].([]any)[0].(map[string]any)
	view["utility"] = view["utility"].(float64) * 1.5
	corrupted, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	var h checker
	wref := newReference(ref, expectedWireBytes)
	for _, b := range [][]byte{rep.body, corrupted} {
		got, err := wireBytes(b)
		if err != nil {
			t.Fatal(err)
		}
		wref.check(&h, q, got, "test")
	}
	if h.attempted != 2 || h.failed != 1 {
		t.Fatalf("HTTP responses: attempted %d failed %d, want 2 and 1 (only the corrupted one failing)", h.attempted, h.failed)
	}
}

// The traced run's decorators only observe: results are byte-identical
// with the Backend and ExecCache decorators installed and without them,
// on the local backend behind the service layer and on placement.
func TestDecoratorsOnlyObserve(t *testing.T) {
	ctx := context.Background()
	setups := map[string]func(*seedb.DB) (string, error){
		"served": func(db *seedb.DB) (string, error) { db.Serve(seedb.ServeConfig{}); return spanScan, nil },
		"placed": func(db *seedb.DB) (string, error) {
			_, err := db.PlaceMembers(ctx, 2, seedb.PlacementConfig{Replication: 2})
			return spanScatter, err
		},
	}
	for name, setup := range setups {
		run := func(traced bool) [][]byte {
			db := smallInstance(t)
			spanName, err := setup(db)
			if err != nil {
				t.Fatal(err)
			}
			rec := newRecorder()
			if traced {
				installTracing(db.Engine(), rec, spanName)
			}
			var out [][]byte
			for i := 0; i < 2; i++ { // the second pass hits the exec cache where there is one
				for _, q := range checkQueries {
					res, err := db.RecommendSQL(withParent(ctx, rec.newID()), q, seedb.DefaultOptions())
					if err != nil {
						t.Fatalf("%s: %v", q, err)
					}
					out = append(out, resultBytes(res))
				}
			}
			if traced && rec.calls.Load() == 0 {
				t.Fatalf("%s: the backend decorator observed no calls", name)
			}
			return out
		}
		plain, traced := run(false), run(true)
		for i := range plain {
			if !bytes.Equal(plain[i], traced[i]) {
				t.Errorf("%s: result %d differs with the decorators installed", name, i)
			}
		}
	}
}

// With the instance's access history, the reference must reproduce the
// representative the history selects, not any member: a result taken
// at one history fails the check at another that selects a different
// representative.
func TestCheckAtFollowsAccessHistory(t *testing.T) {
	db, ref := smallInstance(t), smallInstance(t)
	q := "SELECT * FROM orders WHERE segment = 'Consumer'" // category and subcategory cluster
	cols, err := predicateColumns(db, q)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := db.Table(tableName)
	if err != nil {
		t.Fatal(err)
	}
	col, opts := db.Engine().Collector(), seedb.DefaultOptions()
	clusters, err := col.CorrelationClusters(tb, clusterDims(col.Stats(tb), tb.Schema(), cols, opts), opts.CorrelationThreshold)
	if err != nil {
		t.Fatal(err)
	}
	var cluster []string
	for _, cl := range clusters {
		if len(cl) > 1 {
			cluster = cl
			break
		}
	}
	if cluster == nil {
		t.Fatalf("%s: no cluster of correlated dimensions to choose a representative from", q)
	}
	// Make the cluster's last member the most accessed.
	favourite := cluster[len(cluster)-1]
	db.Engine().Executor().Catalog().RecordAccess(tableName, favourite)
	history := accessHistory(db)
	res, err := db.RecommendSQL(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	var c checker
	rf := newReference(ref, renderResult)
	rf.checkAt(&c, q, history, resultBytes(res), "test")
	rf.checkAt(&c, q, map[string]int64{}, resultBytes(res), "test")
	if c.attempted != 2 || c.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 2 and 1: only the check at the result's own history (%s most accessed) may pass", c.attempted, c.failed, favourite)
	}
}
