package cluster_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"seedb"
	"seedb/internal/cluster"
)

// ingestRows builds n valid loose-typed rows for the superstore orders
// table, the same wire shape /api/ingest accepts.
func ingestRows(n int) [][]any {
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = []any{
			"East", "New York", "Corporate", "Furniture", "Tables",
			"Express", "11-Nov", 250.75 + float64(i), -20.5, float64(1 + i%4), 0.3,
		}
	}
	return rows
}

// fragmentRows sums the rows of every fragment of table a worker DB
// holds.
func fragmentRows(t *testing.T, db *seedb.DB, table string) int {
	t.Helper()
	n := 0
	for _, name := range db.Tables() {
		if strings.HasPrefix(name, table+"__p") {
			ft, err := db.Table(name)
			if err != nil {
				t.Fatal(err)
			}
			n += ft.NumRows()
		}
	}
	return n
}

// grownOrders is a single-node instance holding the same rows as a
// coordinator after ingesting ingestRows(delta) into orders.
func grownOrders(t *testing.T, rows, delta int) *seedb.DB {
	t.Helper()
	plain := newDB(t, rows)
	pt, _ := plain.Table("orders")
	typed, err := pt.ParseRows(ingestRows(delta))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pt.Append(typed); err != nil {
		t.Fatal(err)
	}
	return plain
}

// TestClusterIngestReplicates: an append through the coordinator of a
// fleet where every worker holds every placement reaches every worker,
// all post-append fragment hashes agree, and subsequent placed queries
// are byte-identical to a single-node scan of the grown table.
func TestClusterIngestReplicates(t *testing.T) {
	ctx := context.Background()
	w1, w1db := startWorker(t)
	w2, w2db := startWorker(t)

	coord := newDB(t, 3000)
	b, err := coord.PlaceRemote(ctx, []string{w1.URL, w2.URL}, 10*time.Second, placementConfig(2))
	if err != nil {
		t.Fatal(err)
	}

	const delta = 1200
	sum, err := b.Ingest(ctx, "orders", ingestRows(delta))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Appended != delta || sum.Rows != 3000+delta {
		t.Fatalf("ingest summary %+v", sum)
	}
	// 3000 -> 4200 rows at 1024-row placements: placement 2 grows and
	// 3..4 are born — three fragments forwarded to each of two owners.
	if len(sum.Shards) != 6 {
		t.Fatalf("expected 6 fragment forwards, got %d (%+v)", len(sum.Shards), sum.Shards)
	}
	for _, st := range sum.Shards {
		if !st.OK || st.Diverged {
			t.Fatalf("forward %s did not apply cleanly: %+v", st.ID, st)
		}
	}
	for _, wdb := range []*seedb.DB{w1db, w2db} {
		if n := fragmentRows(t, wdb, "orders"); n != 3000+delta {
			t.Fatalf("worker fragments hold %d orders rows, want %d", n, 3000+delta)
		}
	}
	dump, err := b.Dump()
	if err != nil {
		t.Fatal(err)
	}
	assertFullyHeld(t, dump)
	if c := b.Counters(); c.Ingests != 1 || c.IngestRows != delta {
		t.Fatalf("ingest counters %+v", c)
	}

	// Placed query over the grown table == single-node over an instance
	// built the same way.
	q := "SELECT * FROM orders WHERE category = 'Furniture'"
	got, err := coord.RecommendSQL(ctx, q, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, err := grownOrders(t, 3000, delta).RecommendSQL(ctx, q, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if render(got) != render(want) {
		t.Fatalf("post-ingest placed query differs from single-node:\n%s\nvs\n%s", render(got), render(want))
	}
	if c := b.Counters(); c.Failovers != 0 || c.Mismatches != 0 {
		t.Fatalf("healthy post-ingest cluster must not degrade: %+v", c)
	}
}

// TestDBAppendRoutesThroughCluster: the embedded DB.Append API on a
// coordinator with remote workers must forward the batch to the
// fragment owners (bypassing them would permanently diverge the fleet).
func TestDBAppendRoutesThroughCluster(t *testing.T) {
	ctx := context.Background()
	w1, w1db := startWorker(t)
	coord := newDB(t, 2000)
	b, err := coord.PlaceRemote(ctx, []string{w1.URL}, 10*time.Second, placementConfig(1))
	if err != nil {
		t.Fatal(err)
	}

	rows := [][]seedb.Value{
		{seedb.String("West"), seedb.String("California"), seedb.String("Consumer"),
			seedb.String("Furniture"), seedb.String("Chairs"), seedb.String("Standard"),
			seedb.String("04-Apr"), seedb.Float(10.5), seedb.Float(1.25), seedb.Int(2), seedb.Float(0.1)},
	}
	total, err := coord.Append("orders", rows)
	if err != nil {
		t.Fatal(err)
	}
	if total != 2001 {
		t.Fatalf("coordinator total = %d, want 2001", total)
	}
	if n := fragmentRows(t, w1db, "orders"); n != 2001 {
		t.Fatalf("worker fragments hold %d rows: DB.Append bypassed the owners", n)
	}
	// The grown last placement's hash on the worker matches the
	// coordinator's expected fragment hash.
	dump, err := b.Dump()
	if err != nil {
		t.Fatal(err)
	}
	assertFullyHeld(t, dump)
	for _, tp := range dump.Tables {
		if tp.Table != "orders" {
			continue
		}
		last := tp.Placements[len(tp.Placements)-1]
		ft, err := w1db.Table(last.Fragment)
		if err != nil {
			t.Fatal(err)
		}
		if h, err := ft.ContentHash(); err != nil || h != last.ContentHash {
			t.Fatalf("fragment %s diverged after DB.Append: %s vs %s (%v)", last.Fragment, h, last.ContentHash, err)
		}
	}
	if b.Counters().Ingests != 1 {
		t.Fatalf("expected the append to route through Ingest: %+v", b.Counters())
	}
}

// TestClusterIngestDivergenceDetected: an owner whose fragment already
// drifted is flagged by the post-append ContentHash re-verification,
// marked unhealthy, and queries stay correct via the other owner.
func TestClusterIngestDivergenceDetected(t *testing.T) {
	ctx := context.Background()
	w1, w1db := startWorker(t)
	w2, _ := startWorker(t)

	coord := newDB(t, 2000)
	cfg := placementConfig(2)
	cfg.Cooldown = time.Hour
	b, err := coord.PlaceRemote(ctx, []string{w1.URL, w2.URL}, 10*time.Second, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Drift w1's copy of placement 1 (rows 1024..2000) by one row before
	// the append lands in it.
	frag := cluster.FragmentName("orders", 1)
	short, err := newDB(t, 1999).Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	drifted, err := short.ExtractRange(frag, 1024, 1999)
	if err != nil {
		t.Fatal(err)
	}
	if err := w1db.ReplaceTable(drifted); err != nil {
		t.Fatal(err)
	}

	sum, err := b.Ingest(ctx, "orders", ingestRows(300))
	if err != nil {
		t.Fatal(err)
	}
	var diverged []string
	for _, st := range sum.Shards {
		if st.Diverged {
			diverged = append(diverged, st.ID)
		} else if !st.OK {
			t.Fatalf("forward %s failed: %+v", st.ID, st)
		}
	}
	if len(diverged) != 1 || diverged[0] != w1.URL+"/"+frag {
		t.Fatalf("expected exactly %s/%s to diverge: %+v", w1.URL, frag, sum.Shards)
	}
	if b.Counters().Mismatches == 0 {
		t.Fatal("divergence must be counted as a mismatch")
	}
	for _, st := range b.Status() {
		if st.Healthy == (st.ID == w1.URL) {
			t.Fatalf("worker %s healthy=%v, want only the diverged one unhealthy", st.ID, st.Healthy)
		}
	}

	// Queries keep succeeding (the other owner covers the diverged
	// fragment) and match a single-node instance with identical content.
	q := "SELECT * FROM orders WHERE category = 'Furniture'"
	got, err := coord.RecommendSQL(ctx, q, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, err := grownOrders(t, 2000, 300).RecommendSQL(ctx, q, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if render(got) != render(want) {
		t.Fatal("post-divergence query changed result bytes")
	}
}
