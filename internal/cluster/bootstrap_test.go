package cluster_test

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"seedb"
	"seedb/internal/cluster"
	"seedb/internal/frontend"
)

// Worker-join tests: a joining worker that is empty or holds stale
// fragments is brought in line from the coordinator's live replica
// before it serves (snapshot push + ContentHash handshake per owned
// fragment), so a fresh node can join without pre-provisioned data
// and a stale one cannot poison placed execution with mismatched rows.

// fragmentHashes snapshots name -> ContentHash for every fragment a
// worker DB holds.
func fragmentHashes(t *testing.T, db *seedb.DB) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, name := range db.Tables() {
		if !strings.Contains(name, "__p") {
			continue
		}
		tb, err := db.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		h, err := tb.ContentHash()
		if err != nil {
			t.Fatal(err)
		}
		out[name] = h
	}
	return out
}

// assignedHashes is the coordinator's expected fragment -> ContentHash
// map for every placement the given worker owns.
func assignedHashes(t *testing.T, b *seedb.PlacementBackend, worker string) map[string]string {
	t.Helper()
	dump, err := b.Dump()
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, tp := range dump.Tables {
		for _, p := range tp.Placements {
			for _, o := range p.Owners {
				if o.Worker == worker {
					out[p.Fragment] = p.ContentHash
				}
			}
		}
	}
	return out
}

func startCoordinator(t *testing.T, rows int) (*httptest.Server, *seedb.DB, *seedb.PlacementBackend) {
	t.Helper()
	db := newDB(t, rows)
	b, err := db.PlaceRemote(context.Background(), nil, 5*time.Second, placementConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(frontend.New(db, nil, log.New(testWriter{t}, "coord: ", 0)))
	t.Cleanup(srv.Close)
	return srv, db, b
}

// staleWorker starts a worker that already holds a fragment under the
// name the coordinator will assign, but cut from a different table.
func staleWorker(t *testing.T) (*httptest.Server, *seedb.DB) {
	t.Helper()
	worker, workerDB := startWorker(t)
	other, err := newDB(t, 1000).Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	stale, err := other.ExtractRange(cluster.FragmentName("orders", 0), 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := workerDB.RegisterTable(stale); err != nil {
		t.Fatal(err)
	}
	return worker, workerDB
}

// TestRegisterBootstrapsDivergedWorker: a worker holding a stale copy
// of a fragment registers; the coordinator re-ships it, verifies the
// handshake, and only then routes to it. Placed execution afterwards
// produces single-node bytes with zero fingerprint mismatches.
func TestRegisterBootstrapsDivergedWorker(t *testing.T) {
	ctx := context.Background()
	coordSrv, coordDB, b := startCoordinator(t, 3000)
	worker, workerDB := staleWorker(t)
	stale := fragmentHashes(t, workerDB)

	resp, err := httpPostJSON(coordSrv.URL+"/api/shard/register", fmt.Sprintf(`{"url":%q}`, worker.URL))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp, `"added":true`) || !strings.Contains(resp, `"rebalance"`) {
		t.Fatalf("registration should add the worker and report the rebalance: %s", resp)
	}
	want := assignedHashes(t, b, worker.URL)
	frag := cluster.FragmentName("orders", 0)
	if stale[frag] == want[frag] {
		t.Fatal("test premise broken: worker should start with a stale fragment")
	}
	if got := fragmentHashes(t, workerDB); len(got) != len(want) || got[frag] != want[frag] {
		t.Fatalf("worker not rebuilt to the assigned fragments:\ngot  %v\nwant %v", got, want)
	}

	got, err := coordDB.RecommendSQL(ctx, testQuery, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := newDB(t, 3000).RecommendSQL(ctx, testQuery, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if render(got) != render(wantRes) {
		t.Fatal("rebuilt-worker execution changed result bytes")
	}
	c := b.Counters()
	if c.RangeCalls == 0 {
		t.Fatal("rebuilt worker was never used")
	}
	if c.Mismatches != 0 || c.Failovers != 0 {
		t.Fatalf("rebuilt worker still mismatching: %+v", c)
	}
}

// TestRegisterBootstrapsEmptyWorker: a node with no tables at all joins
// and is fully provisioned by the coordinator.
func TestRegisterBootstrapsEmptyWorker(t *testing.T) {
	ctx := context.Background()
	coordSrv, coordDB, b := startCoordinator(t, 2000)
	worker, workerDB := startWorker(t)

	resp, err := httpPostJSON(coordSrv.URL+"/api/shard/register", fmt.Sprintf(`{"url":%q}`, worker.URL))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp, `"added":true`) {
		t.Fatalf("registration response: %s", resp)
	}
	want := assignedHashes(t, b, worker.URL)
	got := fragmentHashes(t, workerDB)
	if len(want) == 0 || len(got) != len(want) {
		t.Fatalf("worker holds %d fragments, assigned %d", len(got), len(want))
	}
	for name, h := range want {
		if got[name] != h {
			t.Fatalf("fragment %q not provisioned: got %q want %q", name, got[name], h)
		}
	}

	res, err := coordDB.RecommendSQL(ctx, testQuery, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := newDB(t, 2000).RecommendSQL(ctx, testQuery, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if render(res) != render(wantRes) {
		t.Fatal("empty-joiner execution changed result bytes")
	}
	if c := b.Counters(); c.Mismatches != 0 {
		t.Fatalf("provisioned worker mismatching: %+v", c)
	}
}

// TestAddWorkerReportsShippedAndMatched exercises the join report
// of AddWorker directly: a stale worker gets fragments shipped, a
// re-announcement of the same worker ships nothing, and a worker that
// already holds every assigned fragment joins a second coordinator
// over the same data without a single shipment.
func TestAddWorkerReportsShippedAndMatched(t *testing.T) {
	ctx := context.Background()
	coordDB := newDB(t, 2000)
	b, err := coordDB.PlaceRemote(ctx, nil, 5*time.Second, placementConfig(1))
	if err != nil {
		t.Fatal(err)
	}

	worker, _ := staleWorker(t)
	shard := cluster.NewRemoteShard(worker.URL, 5*time.Second)
	rep, added, err := b.AddWorker(ctx, shard)
	if err != nil {
		t.Fatal(err)
	}
	if !added || rep.Shipped == 0 {
		t.Fatalf("stale worker should receive fragments, got added=%v %+v", added, rep)
	}
	rep2, added, err := b.AddWorker(ctx, shard)
	if err != nil {
		t.Fatal(err)
	}
	if added || rep2.Shipped != 0 || len(rep2.Errors) != 0 {
		t.Fatalf("re-announcing should ship nothing: added=%v %+v", added, rep2)
	}

	twin, err := newDB(t, 2000).PlaceRemote(ctx, nil, 5*time.Second, placementConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	rep3, _, err := twin.AddWorker(ctx, cluster.NewRemoteShard(worker.URL, 5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if rep3.Shipped != 0 || rep3.Dropped != 0 {
		t.Fatalf("a worker already holding its fragments should not move any, got %+v", rep3)
	}
}

// TestBootstrapSyncSurvivesWorkerRestart: with durability on, a shipped
// fragment is checkpointed immediately, so the worker comes back from
// its own crash already in step — the shipped state is durable, not
// just resident.
func TestBootstrapSyncSurvivesWorkerRestart(t *testing.T) {
	ctx := context.Background()
	coordDB := newDB(t, 1500)
	b, err := coordDB.PlaceRemote(ctx, nil, 5*time.Second, placementConfig(1))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	workerDB := seedb.Open()
	if _, err := workerDB.EnableDurability(dir, 1, 0); err != nil {
		t.Fatal(err)
	}
	worker := httptest.NewServer(frontend.New(workerDB, nil, log.New(testWriter{t}, "worker: ", 0)))
	t.Cleanup(worker.Close)

	rep, _, err := b.AddWorker(ctx, cluster.NewRemoteShard(worker.URL, 5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	want := assignedHashes(t, b, worker.URL)
	if rep.Shipped != len(want) {
		t.Fatalf("empty durable worker should receive all %d fragments, got %+v", len(want), rep)
	}
	// Crash the worker (abandon, no CloseDurability) and reboot an
	// empty process over the same data dir.
	worker.Close()
	rebooted := seedb.Open()
	info, err := rebooted.EnableDurability(dir, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.SnapshotsLoaded != len(want) {
		t.Fatalf("reboot should restore %d shipped fragments, got %+v", len(want), info)
	}
	if got := fragmentHashes(t, rebooted); len(got) != len(want) {
		t.Fatalf("rebooted worker lost shipped fragments:\ngot  %v\nwant %v", got, want)
	} else {
		for name, h := range want {
			if got[name] != h {
				t.Fatalf("fragment %s diverged across the reboot: %s vs %s", name, got[name], h)
			}
		}
	}
	// The rebooted node replaces the dead one and joins with zero
	// shipments: its recovered inventory already matches.
	rebootedSrv := httptest.NewServer(frontend.New(rebooted, nil, log.New(testWriter{t}, "worker2: ", 0)))
	t.Cleanup(rebootedSrv.Close)
	if _, _, err := b.RemoveWorker(ctx, worker.URL); err != nil {
		t.Fatal(err)
	}
	rep2, _, err := b.AddWorker(ctx, cluster.NewRemoteShard(rebootedSrv.URL, 5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Shipped != 0 || len(rep2.Errors) != 0 {
		t.Fatalf("recovered fragments should already match, got %+v", rep2)
	}
}
