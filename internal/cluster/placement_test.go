package cluster_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"seedb"
	"seedb/internal/cluster"
	"seedb/internal/frontend"
)

// placementConfig: one grid cell per placement so modest test tables
// still split into enough placements for the distribution assertions
// to mean something.
func placementConfig(rf int) seedb.PlacementConfig {
	return seedb.PlacementConfig{Replication: rf, PlacementChunks: 1}
}

// TestPlacementElasticByteIdentity is the issue's acceptance scenario:
// with 4 workers at rf=2 every worker holds roughly half the
// placements (and nobody holds a full replica), recommendation bytes
// equal the single-node bytes — and stay equal after one worker is
// killed and again after a fresh empty worker joins and is rebalanced
// in.
func TestPlacementElasticByteIdentity(t *testing.T) {
	ctx := context.Background()
	const rows = 6000 // 6 placements per table at span 1024

	plain := newDB(t, rows)
	want, err := plain.RecommendSQL(ctx, testQuery, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := render(want)

	db := newDB(t, rows)
	b, err := db.PlaceMembers(ctx, 4, placementConfig(2))
	if err != nil {
		t.Fatal(err)
	}

	st := b.Counters()
	if st.Workers != 4 || st.Replication != 2 {
		t.Fatalf("topology %+v", st)
	}
	if st.Placements == 0 {
		t.Fatal("no placements cut")
	}
	// rf=2 over 4 workers: mean load is half the placements. Each
	// worker must carry a real share, and none may hold a full replica
	// (holding every placement would defeat data partitioning).
	mean := st.MeanPerWorker
	if got := 2 * float64(st.Placements) / 4; mean != got {
		t.Fatalf("mean fragments/worker = %v, want %v (every placement on exactly 2 workers)", mean, got)
	}
	for _, ws := range b.Status() {
		if ws.Fragments == 0 {
			t.Fatalf("worker %s holds nothing", ws.ID)
		}
		if ws.Fragments >= st.Placements {
			t.Fatalf("worker %s holds %d of %d placements — a full replica", ws.ID, ws.Fragments, st.Placements)
		}
	}
	if skew := float64(st.MaxPerWorker) / mean; skew > 2.0 {
		t.Fatalf("ownership skew %.2f too high (max=%d mean=%.1f)", skew, st.MaxPerWorker, mean)
	}

	got, err := db.RecommendSQL(ctx, testQuery, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if render(got) != wantBytes {
		t.Fatalf("placement execution changed result bytes:\n%s\nvs\n%s", render(got), wantBytes)
	}
	c := b.Counters()
	if c.Scatters == 0 || c.RangeCalls == 0 {
		t.Fatalf("expected placement-routed execution, got %+v", c)
	}
	if c.Failovers != 0 || c.Mismatches != 0 {
		t.Fatalf("healthy fleet must not degrade: %+v", c)
	}

	// Kill one worker. Its placements still have a second owner (rf=2),
	// and RemoveWorker re-ships anything now under-replicated.
	rep, removed, err := b.RemoveWorker(ctx, "member-1")
	if err != nil {
		t.Fatal(err)
	}
	if !removed {
		t.Fatal("member-1 was not registered?")
	}
	if rep.Shipped == 0 {
		t.Fatalf("removing an owner must re-ship its placements, got %+v", rep)
	}
	got, err = db.RecommendSQL(ctx, testQuery, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if render(got) != wantBytes {
		t.Fatal("post-removal execution changed result bytes")
	}

	// A fresh, empty worker joins: the ring hands it ~1/4 of the
	// placements, the coordinator ships them, and previous owners drop
	// what they lost.
	epochBefore := b.Epoch()
	rep2, added, err := b.AddWorker(ctx, seedb.NewMemberShard("member-4"))
	if err != nil {
		t.Fatal(err)
	}
	if !added || b.Epoch() != epochBefore+1 {
		t.Fatalf("join not registered (added=%v epoch %d -> %d)", added, epochBefore, b.Epoch())
	}
	if rep2.Shipped == 0 || rep2.PerWorker["member-4"] == 0 {
		t.Fatalf("joiner received nothing: %+v", rep2)
	}
	if rep2.Dropped == 0 {
		t.Fatalf("previous owners kept placements the joiner now owns: %+v", rep2)
	}
	got, err = db.RecommendSQL(ctx, testQuery, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if render(got) != wantBytes {
		t.Fatal("post-join execution changed result bytes")
	}
	if c := b.Counters(); c.Failovers != 0 {
		t.Fatalf("stable post-churn fleet must not degrade: %+v", c)
	}
}

// TestPlacementSignatureTracksEpoch: the backend signature (an
// exec-cache key component) moves on every membership change.
func TestPlacementSignatureTracksEpoch(t *testing.T) {
	ctx := context.Background()
	db := newDB(t, 2000)
	b, err := db.PlaceMembers(ctx, 2, placementConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	s1 := b.Signature()
	if !strings.Contains(s1, "rf=2") {
		t.Fatalf("signature %q", s1)
	}
	if _, _, err := b.AddWorker(ctx, seedb.NewMemberShard("member-9")); err != nil {
		t.Fatal(err)
	}
	if s2 := b.Signature(); s2 == s1 {
		t.Fatalf("signature did not change on join: %q", s2)
	}
}

// TestPlacementIngestForwardsDeltas: an append through the placement
// coordinator reaches only the owners of the touched placements,
// splits at placement boundaries (growing the last partial placement
// AND creating new ones), verifies per-fragment content hashes, and
// subsequent queries are byte-identical to a single-node table grown
// the same way.
func TestPlacementIngestForwardsDeltas(t *testing.T) {
	ctx := context.Background()
	const rows = 3000 // placements [0,1024) [1024,2048) [2048,3000...)

	db := newDB(t, rows)
	b, err := db.PlaceMembers(ctx, 3, placementConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	shippedBefore := b.Counters().FragmentsShipped

	// 2200 rows: fills placement 2 to 3072, then placements 3, 4, and
	// part of 5 — one delta-append into an existing fragment plus
	// three whole-fragment births.
	const delta = 2200
	sum, err := b.Ingest(ctx, "orders", ingestRows(delta))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Appended != delta || sum.Rows != rows+delta {
		t.Fatalf("ingest summary %+v", sum)
	}
	var deltaForwards, wholeShips int
	for _, st := range sum.Shards {
		if !st.OK || st.Diverged {
			t.Fatalf("owner %s did not apply the append cleanly: %+v", st.ID, st)
		}
		if !strings.Contains(st.ID, "/orders__p") {
			t.Fatalf("ingest status %q not scoped to a fragment", st.ID)
		}
		if strings.HasSuffix(st.ID, "__p2") {
			deltaForwards++
		} else {
			wholeShips++
		}
	}
	if deltaForwards != 2 { // rf=2 owners of the grown placement
		t.Fatalf("expected 2 delta forwards to placement 2's owners, got %d (%+v)", deltaForwards, sum.Shards)
	}
	if wholeShips != 6 { // 3 new placements x rf=2
		t.Fatalf("expected 6 whole-fragment ships for the new placements, got %d", wholeShips)
	}
	if b.Counters().FragmentsShipped <= shippedBefore {
		t.Fatal("new placements were not shipped")
	}

	q := "SELECT * FROM orders WHERE category = 'Furniture'"
	got, err := db.RecommendSQL(ctx, q, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	plain := newDB(t, rows)
	pt, _ := plain.Table("orders")
	typed, err := pt.ParseRows(ingestRows(delta))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pt.Append(typed); err != nil {
		t.Fatal(err)
	}
	want, err := plain.RecommendSQL(ctx, q, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if render(got) != render(want) {
		t.Fatalf("post-ingest placement query differs from single-node:\n%s\nvs\n%s", render(got), render(want))
	}
	if c := b.Counters(); c.Failovers != 0 || c.Mismatches != 0 {
		t.Fatalf("healthy post-ingest fleet must not degrade: %+v", c)
	}
}

// TestPlacementHTTPLifecycle drives the whole placement protocol over
// real HTTP: empty workers self-register against a placement
// coordinator (/api/shard/register ships them their fragments),
// /api/placement exposes the verified map, queries route through
// worker HTTP handlers byte-identically, a kill -9'd worker degrades
// to the surviving owner, and /api/placement/rebalance reports the
// corpse without wedging.
func TestPlacementHTTPLifecycle(t *testing.T) {
	ctx := context.Background()
	const rows = 3000

	coordDB := newDB(t, rows)
	b, err := coordDB.PlaceRemote(ctx, nil, 5*time.Second, placementConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	coordSrv := httptest.NewServer(frontend.New(coordDB, nil, log.New(testWriter{t}, "coord: ", 0)))
	t.Cleanup(coordSrv.Close)

	w1, w1db := startWorker(t)
	w2, _ := startWorker(t)
	for _, u := range []string{w1.URL, w2.URL} {
		resp, err := httpPostJSON(coordSrv.URL+"/api/shard/register", fmt.Sprintf(`{"url":%q}`, u))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(resp, `"added":true`) || !strings.Contains(resp, `"rebalance"`) {
			t.Fatalf("registration response: %s", resp)
		}
	}
	if b.NumWorkers() != 2 {
		t.Fatalf("expected 2 placement workers, got %d", b.NumWorkers())
	}
	// The worker genuinely holds fragments, not replicas: its catalog
	// has orders__p* tables but no "orders".
	if _, err := w1db.Table("orders"); err == nil {
		t.Fatal("placement worker holds a full replica of orders")
	}
	var fragTables int
	for _, name := range w1db.Tables() {
		if strings.Contains(name, "__p") {
			fragTables++
		}
	}
	if fragTables == 0 {
		t.Fatalf("no fragments shipped to worker (tables: %v)", w1db.Tables())
	}

	// The placement map over HTTP: every placement fully held.
	var dump cluster.PlacementDump
	mustGetJSON(t, coordSrv.URL+"/api/placement", &dump)
	if len(dump.Workers) != 2 || dump.Replication != 2 {
		t.Fatalf("dump header %+v", dump)
	}
	for _, tp := range dump.Tables {
		for _, p := range tp.Placements {
			if len(p.Owners) != 2 {
				t.Fatalf("%s placement %d has %d owners", tp.Table, p.Index, len(p.Owners))
			}
			for _, o := range p.Owners {
				if !o.Held {
					t.Fatalf("%s not verifiably held by %s after registration", p.Fragment, o.Worker)
				}
			}
		}
	}

	want, err := newDB(t, rows).RecommendSQL(ctx, testQuery, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	got, err := coordDB.RecommendSQL(ctx, testQuery, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if render(got) != render(want) {
		t.Fatal("HTTP placement execution changed result bytes")
	}
	if c := b.Counters(); c.RangeCalls == 0 || c.Failovers != 0 {
		t.Fatalf("expected clean routed execution, got %+v", c)
	}

	// /api/stats carries the placement section.
	var stats struct {
		Placement *struct {
			Signature string                 `json:"signature"`
			Counters  cluster.PlacementStats `json:"counters"`
		} `json:"placement"`
	}
	mustGetJSON(t, coordSrv.URL+"/api/stats", &stats)
	if stats.Placement == nil || stats.Placement.Counters.Workers != 2 {
		t.Fatalf("stats placement section missing or wrong: %+v", stats.Placement)
	}

	// Kill one worker hard. rf=2 over 2 workers means every placement
	// has a surviving owner: bytes must not move and the local
	// failover path must stay cold.
	w2.Close()
	got, err = coordDB.RecommendSQL(ctx, testQuery, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if render(got) != render(want) {
		t.Fatal("degraded placement execution changed result bytes")
	}
	if c := b.Counters(); c.Failovers != 0 {
		t.Fatalf("surviving owner should cover every placement, got failovers: %+v", c)
	}
	// The scatter only dials the first live owner in ring order, so the
	// corpse may not have been touched yet; an explicit probe marks it.
	unhealthy := 0
	for _, ws := range b.HealthCheck(ctx) {
		if !ws.Healthy {
			unhealthy++
		}
	}
	if unhealthy != 1 {
		t.Fatalf("expected exactly one unhealthy worker, got %d", unhealthy)
	}

	// A rebalance with the corpse still registered is a no-op: its
	// last-verified inventory already matches the assignment, so
	// nothing moves and nothing errors.
	body, err := httpPostJSON(coordSrv.URL+"/api/placement/rebalance", "{}")
	if err != nil {
		t.Fatal(err)
	}
	var rep cluster.RebalanceReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("rebalance response %q: %v", body, err)
	}
	if rep.Shipped != 0 || rep.Dropped != 0 || len(rep.Errors) != 0 {
		t.Fatalf("matching-inventory rebalance should be a no-op: %+v", rep)
	}

	// Ingest while the corpse is registered: the dead worker owns every
	// placement (2 workers, rf=2), so the delta forward to it fails,
	// invalidating its hold on the grown fragment. The live owner and
	// the coordinator still apply the batch — ingest succeeds.
	ingestBody, err := json.Marshal(map[string]any{"table": "orders", "rows": ingestRows(100)})
	if err != nil {
		t.Fatal(err)
	}
	sumJSON, err := httpPostJSON(coordSrv.URL+"/api/ingest", string(ingestBody))
	if err != nil {
		t.Fatal(err)
	}
	var sum cluster.IngestSummary
	if err := json.Unmarshal([]byte(sumJSON), &sum); err != nil {
		t.Fatalf("ingest response %q: %v", sumJSON, err)
	}
	if sum.Rows != rows+100 {
		t.Fatalf("ingest summary %+v", sum)
	}
	var failedForwards, cleanForwards int
	for _, st := range sum.Shards {
		if st.OK {
			cleanForwards++
		} else {
			failedForwards++
		}
	}
	if failedForwards == 0 || cleanForwards == 0 {
		t.Fatalf("expected the dead owner to fail and the live one to apply: %+v", sum.Shards)
	}

	// Now the dead worker is missing a hold it owns, so a rebalance
	// must attempt the re-ship, fail, and report it — without wedging.
	body, err = httpPostJSON(coordSrv.URL+"/api/placement/rebalance", "{}")
	if err != nil {
		t.Fatal(err)
	}
	rep = cluster.RebalanceReport{}
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("rebalance response %q: %v", body, err)
	}
	if len(rep.Errors) == 0 {
		t.Fatalf("re-ship to a dead worker must be reported: %+v", rep)
	}

	// A replacement worker joins while the corpse is still registered:
	// the join's rebalance ships the newcomer its share.
	w3, _ := startWorker(t)
	resp, err := httpPostJSON(coordSrv.URL+"/api/shard/register", fmt.Sprintf(`{"url":%q}`, w3.URL))
	if err != nil {
		t.Fatal(err)
	}
	var reg struct {
		Added     bool                     `json:"added"`
		Rebalance *cluster.RebalanceReport `json:"rebalance"`
	}
	if err := json.Unmarshal([]byte(resp), &reg); err != nil {
		t.Fatalf("register response %q: %v", resp, err)
	}
	if !reg.Added || reg.Rebalance == nil {
		t.Fatalf("replacement worker not added: %s", resp)
	}
	if reg.Rebalance.PerWorker[w3.URL] == 0 {
		t.Fatalf("replacement worker received no fragments: %+v", reg.Rebalance)
	}

	// The synthetic table was untouched by the orders append, so the
	// original goldens still bind.
	got, err = coordDB.RecommendSQL(ctx, testQuery, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if render(got) != render(want) {
		t.Fatal("post-churn execution changed result bytes")
	}
}

func mustGetJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d: %s", url, resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatalf("GET %s: %v in %s", url, err, data)
	}
}
