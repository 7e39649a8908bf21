package frontend

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"seedb"
	"seedb/internal/cluster"
	"seedb/internal/engine"
)

// superstoreIngestRows builds n valid loose-typed rows for the orders
// table (see datagen.SuperstoreSchema).
func superstoreIngestRows(n int) [][]any {
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = []any{
			"West", "California", "Consumer", "Furniture", "Chairs",
			"Standard", "04-Apr", 100.5 + float64(i), 12.25, float64(1 + i%5), 0.15,
		}
	}
	return rows
}

func TestIngestEndpoint(t *testing.T) {
	s := testServer(t)
	before, err := s.db.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	rowsBefore := before.NumRows()

	w := postJSON(t, s, "/api/ingest", map[string]any{"table": "orders", "rows": superstoreIngestRows(7)})
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	var resp cluster.IngestResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Appended != 7 || resp.Rows != rowsBefore+7 {
		t.Fatalf("ingest response %+v, want appended=7 rows=%d", resp, rowsBefore+7)
	}
	if resp.ContentHash != "" {
		t.Fatal("plain ingest must not pay for an O(table) content hash")
	}

	// Verification is opt-in: the same request with verify=true pays
	// for and returns the post-append hash.
	wv := postJSON(t, s, "/api/ingest", map[string]any{"table": "orders", "rows": superstoreIngestRows(1), "verify": true})
	if wv.Code != http.StatusOK {
		t.Fatalf("verify ingest: %d: %s", wv.Code, wv.Body.String())
	}
	var vresp cluster.IngestResponse
	if err := json.Unmarshal(wv.Body.Bytes(), &vresp); err != nil {
		t.Fatal(err)
	}
	if vresp.ContentHash == "" {
		t.Fatal("verify=true ingest must return the content hash")
	}
	if got := before.NumRows(); got != rowsBefore+8 {
		t.Fatalf("table has %d rows after both ingests, want %d", got, rowsBefore+8)
	}

	// A recommendation over the grown table works and sees the new rows.
	w2 := postJSON(t, s, "/api/recommend", recommendRequest{SQL: "SELECT * FROM orders WHERE category = 'Furniture'"})
	if w2.Code != http.StatusOK {
		t.Fatalf("recommend after ingest: %d: %s", w2.Code, w2.Body.String())
	}

	// Delta/reuse counters are surfaced in /api/stats.
	sw := httptest.NewRecorder()
	s.ServeHTTP(sw, httptest.NewRequest(http.MethodGet, "/api/stats", nil))
	if sw.Code != http.StatusOK {
		t.Fatalf("stats: %d", sw.Code)
	}
	var stats statsResponse
	if err := json.Unmarshal(sw.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Incremental == nil {
		t.Fatal("stats missing incremental section (store should be on under Serve)")
	}
	if stats.Incremental.Store.RowsScanned == 0 {
		t.Fatalf("expected scanned rows recorded, got %+v", stats.Incremental.Store)
	}
}

// TestIngestValidation: a bad batch is rejected atomically with the
// same status code on a plain node and on a placement coordinator
// (whose Ingest forwards deltas to fragment owners).
func TestIngestValidation(t *testing.T) {
	cases := []struct {
		name string
		body any
		code int
	}{
		{"missing table", map[string]any{"rows": superstoreIngestRows(1)}, http.StatusBadRequest},
		{"no rows", map[string]any{"table": "orders", "rows": [][]any{}}, http.StatusBadRequest},
		{"unknown table", map[string]any{"table": "nope", "rows": superstoreIngestRows(1)}, http.StatusNotFound},
		{"short row", map[string]any{"table": "orders", "rows": [][]any{{"West"}}}, http.StatusBadRequest},
		{"bad type", map[string]any{"table": "orders", "rows": [][]any{
			{"West", "California", "Consumer", "Furniture", "Chairs", "Standard", "04-Apr", "not-a-number", 1.0, 2.0, 0.1},
		}}, http.StatusBadRequest},
		{"fractional int", map[string]any{"table": "orders", "rows": [][]any{
			{"West", "California", "Consumer", "Furniture", "Chairs", "Standard", "04-Apr", 10.0, 1.0, 2.5, 0.1},
		}}, http.StatusBadRequest},
	}
	for _, placed := range []bool{false, true} {
		s := testServer(t)
		if placed {
			if _, err := s.db.PlaceMembers(context.Background(), 2, seedb.PlacementConfig{Replication: 2, PlacementChunks: 1}); err != nil {
				t.Fatal(err)
			}
		}
		before, _ := s.db.Table("orders")
		rowsBefore := before.NumRows()
		for _, tc := range cases {
			w := postJSON(t, s, "/api/ingest", tc.body)
			if w.Code != tc.code {
				t.Errorf("placed=%v %s: status = %d, want %d (%s)", placed, tc.name, w.Code, tc.code, w.Body.String())
			}
		}
		if got := before.NumRows(); got != rowsBefore {
			t.Fatalf("placed=%v: failed ingests must not change the table: %d rows, want %d", placed, got, rowsBefore)
		}
	}
	// An append that applied but could not be logged is a server fault
	// on both paths, not a bad batch.
	if got := ingestStatus(fmt.Errorf("wrapped: %w", engine.ErrNotDurable)); got != http.StatusInternalServerError {
		t.Fatalf("ErrNotDurable maps to %d, want 500", got)
	}
}

// TestRequestBodyBound: every JSON endpoint reads at most
// maxRequestBodyBytes and answers 413 past it, before doing any work.
func TestRequestBodyBound(t *testing.T) {
	s := testServer(t)
	// A placement coordinator, so /api/shard/register reaches its decode.
	if _, err := s.db.PlaceMembers(context.Background(), 1, seedb.PlacementConfig{}); err != nil {
		t.Fatal(err)
	}
	before, _ := s.db.Table("orders")
	rowsBefore := before.NumRows()
	huge := `{"sql":"` + strings.Repeat("x", maxRequestBodyBytes) + `"}`
	for _, path := range []string{"/api/recommend", "/api/drilldown", "/api/sql", "/api/session", "/api/ingest", "/api/shard/exec", "/api/shard/register"} {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(huge))
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status = %d, want 413 (%.200s)", path, w.Code, w.Body.String())
		}
	}
	if got := before.NumRows(); got != rowsBefore {
		t.Fatalf("an oversized ingest changed the table: %d rows, want %d", got, rowsBefore)
	}
}

// TestIngestQueryConsistency: after ingest through the HTTP API, a
// recommendation is byte-identical to one computed over a cold replica
// holding the same rows — the end-to-end statement of the incremental
// path's correctness.
func TestIngestQueryConsistency(t *testing.T) {
	mkDB := func() *seedb.DB {
		db := seedb.Open()
		if err := db.RegisterTable(seedb.SuperstoreTable("orders", 2000, 1)); err != nil {
			t.Fatal(err)
		}
		return db
	}
	live := mkDB()
	liveSrv := New(live, nil, nil)

	// Prime the caches, then grow the table through the API.
	req := recommendRequest{SQL: "SELECT * FROM orders WHERE category = 'Furniture'"}
	if w := postJSON(t, liveSrv, "/api/recommend", req); w.Code != http.StatusOK {
		t.Fatalf("prime: %d", w.Code)
	}
	rows := superstoreIngestRows(1500)
	if w := postJSON(t, liveSrv, "/api/ingest", map[string]any{"table": "orders", "rows": rows}); w.Code != http.StatusOK {
		t.Fatalf("ingest: %d: %s", w.Code, w.Body.String())
	}
	w := postJSON(t, liveSrv, "/api/recommend", req)
	if w.Code != http.StatusOK {
		t.Fatalf("recommend after ingest: %d", w.Code)
	}

	// Cold replica: same base + same appended rows, no caches primed,
	// no incremental store.
	cold := mkDB()
	coldT, _ := cold.Table("orders")
	typed, err := coldT.ParseRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coldT.Append(typed); err != nil {
		t.Fatal(err)
	}
	coldSrv := New(cold, nil, nil)
	w2 := postJSON(t, coldSrv, "/api/recommend", req)
	if w2.Code != http.StatusOK {
		t.Fatalf("cold recommend: %d", w2.Code)
	}

	var a, b recommendResponse
	if err := json.Unmarshal(w.Body.Bytes(), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(w2.Body.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	if len(a.Views) == 0 || len(a.Views) != len(b.Views) {
		t.Fatalf("view counts differ: %d vs %d", len(a.Views), len(b.Views))
	}
	for i := range a.Views {
		if a.Views[i].Title != b.Views[i].Title || a.Views[i].Utility != b.Views[i].Utility {
			t.Fatalf("view %d differs after ingest: %+v vs %+v", i, a.Views[i], b.Views[i])
		}
	}
}
