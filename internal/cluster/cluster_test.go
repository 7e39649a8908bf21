package cluster_test

import (
	"context"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"seedb"
	"seedb/internal/cluster"
	"seedb/internal/engine"
	"seedb/internal/frontend"
	"seedb/internal/splittest"
)

// newDB builds a deterministic instance with the synthetic demo table;
// every node of a test cluster loads identical data.
func newDB(t *testing.T, rows int) *seedb.DB {
	t.Helper()
	db := seedb.Open()
	syn, _, err := seedb.SyntheticTable(seedb.DefaultSyntheticConfig("synthetic", rows, 42))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterTable(syn); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterTable(seedb.SuperstoreTable("orders", rows, 42)); err != nil {
		t.Fatal(err)
	}
	return db
}

func testOptions() seedb.Options {
	opts := seedb.DefaultOptions()
	opts.K = 5
	opts.Parallelism = 2
	return opts
}

// render serializes a recommendation result with full float precision,
// so string equality is bit equality.
func render(res *seedb.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "rows=%d\n", res.TargetRowCount)
	for _, s := range res.AllScores {
		fmt.Fprintf(&b, "%s\t%x\n", s.View, math.Float64bits(s.Utility))
	}
	return b.String()
}

const testQuery = "SELECT * FROM synthetic WHERE d0 = 'd0_v0'"

func httpPostJSON(url, body string) (string, error) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return string(data), err
}

// TestSplitScansMatchSingleNode: the tentpole invariant — cutting
// every scan into n grid-aligned ranges returns byte-identical
// recommendations for every n.
func TestSplitScansMatchSingleNode(t *testing.T) {
	ctx := context.Background()
	opts := testOptions()

	plain := newDB(t, 4000)
	want, err := plain.RecommendSQL(ctx, testQuery, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := render(want)

	for _, n := range []int{1, 2, 4, 8} {
		db := newDB(t, 4000)
		opts := opts
		opts.Parallelism = n
		split := splittest.New(db.Engine().Executor(), n)
		db.SetBackend(split)
		got, err := db.RecommendSQL(ctx, testQuery, opts)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if split.Scans() == 0 {
			t.Fatalf("n=%d: no scan went through the split backend", n)
		}
		if g := render(got); g != wantBytes {
			t.Fatalf("n=%d split changed result bytes:\n%s\nvs\n%s", n, g, wantBytes)
		}
	}
}

// startWorker runs a full seedb HTTP server (the worker role is just a
// plain server) over an empty DB: a placement worker holds nothing
// until the coordinator ships fragments to it.
func startWorker(t *testing.T) (*httptest.Server, *seedb.DB) {
	t.Helper()
	db := seedb.Open()
	srv := frontend.New(db, nil, log.New(testWriter{t}, "worker: ", 0))
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return hs, db
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

// leaderOf returns the worker that placement idx of table is routed to
// first (its first owner in ring order).
func leaderOf(t *testing.T, b *seedb.PlacementBackend, table string, idx int) string {
	t.Helper()
	dump, err := b.Dump()
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range dump.Tables {
		if tp.Table == table {
			return tp.Placements[idx].Owners[0].Worker
		}
	}
	t.Fatalf("no table %q in the placement map", table)
	return ""
}

// workerStatus returns the named worker's health snapshot.
func workerStatus(t *testing.T, b *seedb.PlacementBackend, id string) seedb.ShardStatus {
	t.Helper()
	for _, st := range b.Status() {
		if st.ID == id {
			return st.ShardStatus
		}
	}
	t.Fatalf("no worker %s", id)
	return seedb.ShardStatus{}
}

// TestRemoteClusterMatchesSingleNode: coordinator + two HTTP workers,
// each holding every placement (rf = fleet size), produce the same
// bytes as single-node execution, through the real wire format and
// worker handlers.
func TestRemoteClusterMatchesSingleNode(t *testing.T) {
	ctx := context.Background()
	w1, _ := startWorker(t)
	w2, _ := startWorker(t)

	coord := newDB(t, 3000)
	b, err := coord.PlaceRemote(ctx, []string{w1.URL, w2.URL}, 10*time.Second, placementConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	got, err := coord.RecommendSQL(ctx, testQuery, testOptions())
	if err != nil {
		t.Fatal(err)
	}

	plain := newDB(t, 3000)
	want, err := plain.RecommendSQL(ctx, testQuery, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if render(got) != render(want) {
		t.Fatalf("remote cluster changed result bytes:\n%s\nvs\n%s", render(got), render(want))
	}
	c := b.Counters()
	if c.Scatters == 0 || c.RangeCalls == 0 {
		t.Fatalf("expected remote range calls, got %+v", c)
	}
	if c.Failovers != 0 {
		t.Fatalf("healthy cluster must not fail over, got %+v", c)
	}
	for _, st := range b.Status() {
		if !st.Healthy || st.Fragments != c.Placements {
			t.Fatalf("worker %s: healthy=%v holds %d of %d placements", st.ID, st.Healthy, st.Fragments, c.Placements)
		}
	}
}

// TestWorkerFailover: a dead worker's placements move to the next
// owner — same bytes, unhealthy worker, retries counted, and the
// coordinator's degraded path stays cold while an owner survives.
func TestWorkerFailover(t *testing.T) {
	ctx := context.Background()
	w1, _ := startWorker(t)
	w2, _ := startWorker(t)
	servers := map[string]*httptest.Server{w1.URL: w1, w2.URL: w2}

	coord := newDB(t, 3000)
	cfg := placementConfig(2)
	cfg.Cooldown = time.Hour
	b, err := coord.PlaceRemote(ctx, []string{w1.URL, w2.URL}, 5*time.Second, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dead := leaderOf(t, b, "synthetic", 0)
	servers[dead].Close() // the worker dies before the first request

	got, err := coord.RecommendSQL(ctx, testQuery, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	plain := newDB(t, 3000)
	want, err := plain.RecommendSQL(ctx, testQuery, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if render(got) != render(want) {
		t.Fatal("failed-over execution changed result bytes")
	}
	c := b.Counters()
	if c.Retries == 0 || c.Failovers != 0 {
		t.Fatalf("expected retries then owner failover, got %+v", c)
	}
	for _, st := range b.Status() {
		if st.Healthy == (st.ID == dead) {
			t.Fatalf("worker %s healthy=%v, want only %s unhealthy", st.ID, st.Healthy, dead)
		}
	}

	// Second query: the dead worker is cooling down (Cooldown: 1h), so
	// its placements go straight to the next owner without re-dialing
	// the corpse — its failure count must not move.
	failuresBefore := workerStatus(t, b, dead).Failures
	if _, err := coord.RecommendSQL(ctx, testQuery, testOptions()); err != nil {
		t.Fatal(err)
	}
	if after := workerStatus(t, b, dead).Failures; after != failuresBefore {
		t.Fatalf("cooling-down worker was re-dialed: failures %d -> %d", failuresBefore, after)
	}
}

// TestFingerprintMismatchDegrades: a worker whose fragment diverged
// after it was shipped is refused per request (HTTP 409), not retried,
// and its range runs on the next owner — results stay correct.
func TestFingerprintMismatchDegrades(t *testing.T) {
	ctx := context.Background()
	w1, w1db := startWorker(t)
	w2, w2db := startWorker(t)
	dbs := map[string]*seedb.DB{w1.URL: w1db, w2.URL: w2db}

	coord := newDB(t, 3000)
	b, err := coord.PlaceRemote(ctx, []string{w1.URL, w2.URL}, 5*time.Second, placementConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	// Swap the leader's copy of placement 0 for rows of a table built
	// with another seed, under the same fragment name: the coordinator
	// still believes it holds the verified fragment.
	bad := dbs[leaderOf(t, b, "synthetic", 0)]
	other, _, err := seedb.SyntheticTable(seedb.DefaultSyntheticConfig("synthetic", 3000, 7))
	if err != nil {
		t.Fatal(err)
	}
	frag, err := other.ExtractRange(cluster.FragmentName("synthetic", 0), 0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := bad.ReplaceTable(frag); err != nil {
		t.Fatal(err)
	}

	got, err := coord.RecommendSQL(ctx, testQuery, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	plain := newDB(t, 3000)
	want, err := plain.RecommendSQL(ctx, testQuery, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if render(got) != render(want) {
		t.Fatal("mismatch degradation changed result bytes")
	}
	c := b.Counters()
	if c.Mismatches == 0 || c.Retries != 0 || c.Failovers != 0 {
		t.Fatalf("expected an unretried mismatch covered by the next owner, got %+v", c)
	}
}

// TestShardRegistration: a coordinator accepts worker registration
// over HTTP, ships the worker its placements, and uses it.
func TestShardRegistration(t *testing.T) {
	ctx := context.Background()
	coordDB := newDB(t, 2000)
	b, err := coordDB.PlaceRemote(ctx, nil, 5*time.Second, placementConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	coordSrv := httptest.NewServer(frontend.New(coordDB, nil, log.New(testWriter{t}, "coord: ", 0)))
	t.Cleanup(coordSrv.Close)

	worker, _ := startWorker(t)

	// Register via the HTTP endpoint, exactly as `seedb -coordinator`
	// does at worker startup.
	resp, err := httpPostJSON(coordSrv.URL+"/api/shard/register", fmt.Sprintf(`{"url":%q}`, worker.URL))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp, `"added":true`) {
		t.Fatalf("registration response: %s", resp)
	}
	if b.NumWorkers() != 1 {
		t.Fatalf("expected 1 worker after registration, got %d", b.NumWorkers())
	}
	got, err := coordDB.RecommendSQL(ctx, testQuery, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if c := b.Counters(); c.RangeCalls == 0 || c.Failovers != 0 {
		t.Fatalf("registered worker was not used cleanly: %+v", c)
	}
	plain := newDB(t, 2000)
	want, err := plain.RecommendSQL(ctx, testQuery, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if render(got) != render(want) {
		t.Fatal("registered-worker execution changed result bytes")
	}
}

// TestConcurrentShardedRecommends is the race-mode stress test for
// concurrent split scans: many sessions hammering one instance whose
// every scan is cut 4 ways (plus a cache) must agree and stay
// race-clean.
func TestConcurrentShardedRecommends(t *testing.T) {
	ctx := context.Background()
	db := newDB(t, 3000)
	opts := testOptions()
	opts.Parallelism = 4
	split := splittest.New(db.Engine().Executor(), 4)
	db.SetBackend(split)
	db.Serve(seedb.ServeConfig{})

	queries := []string{
		"SELECT * FROM synthetic WHERE d0 = 'd0_v0'",
		"SELECT * FROM synthetic WHERE d0 = 'd0_v1'",
		"SELECT * FROM orders WHERE category = 'Furniture'",
	}
	const workers = 12
	outs := make([]string, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := db.RecommendSQL(ctx, queries[i%len(queries)], opts)
			if err != nil {
				errs[i] = err
				return
			}
			outs[i] = render(res)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if split.Scans() == 0 {
		t.Fatal("no scan went through the split backend")
	}
	for i := len(queries); i < workers; i++ {
		if outs[i] != outs[i%len(queries)] {
			t.Fatalf("concurrent split runs disagree for query %d", i%len(queries))
		}
	}
}

// TestPredicateWireRoundTrip covers the SQL wire form of predicates,
// including timestamp literals (quoted on the wire) and nesting.
func TestPredicateWireRoundTrip(t *testing.T) {
	cat := engine.NewCatalog()
	tb, err := engine.NewTable("t", engine.Schema{
		{Name: "s", Type: engine.TypeString},
		{Name: "n", Type: engine.TypeInt},
		{Name: "f", Type: engine.TypeFloat},
		{Name: "ts", Type: engine.TypeTime},
	})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2014, 9, 1, 12, 30, 0, 0, time.UTC)
	for i := 0; i < 100; i++ {
		err := tb.AppendRow(
			engine.String(fmt.Sprintf("v%d", i%7)),
			engine.Int(int64(i)),
			engine.Float(float64(i)*1.37),
			engine.Time(base.Add(time.Duration(i)*time.Hour)),
		)
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.Register(tb); err != nil {
		t.Fatal(err)
	}
	ex := engine.NewExecutor(cat)

	preds := []engine.Predicate{
		engine.Eq("s", engine.String("v1")),
		engine.Eq("s", engine.String("it's")),
		engine.Compare("f", engine.OpGt, engine.Float(42.42)),
		engine.In("n", engine.Int(1), engine.Int(2), engine.Int(3)),
		engine.Compare("ts", engine.OpGe, engine.Time(base.Add(50*time.Hour))),
		engine.And(engine.Compare("n", engine.OpLt, engine.Int(80)), engine.Or(engine.Eq("s", engine.String("v2")), engine.IsNotNull("f"))),
		engine.Not(engine.IsNull("s")),
		// TruePred has no SQL literal; the wire form folds it: identity
		// of AND, absorbs OR.
		engine.And(engine.TruePred{}, engine.Eq("s", engine.String("v1"))),
		engine.Or(engine.TruePred{}, engine.Eq("s", engine.String("v1"))),
	}
	ctx := context.Background()
	for _, p := range preds {
		q := &engine.Query{Table: "t", Where: p, GroupBy: []string{"s"},
			Aggs: []engine.AggSpec{{Func: engine.AggCount, Alias: "n"}, {Func: engine.AggSum, Column: "f", Alias: "sf", Filter: p}}}
		req, err := cluster.EncodeShardRequest(q, nil, "", 0, tb.NumRows(), 1)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		dq, gsets, err := req.Decode(cat)
		if err != nil {
			t.Fatalf("%v: decode: %v", p, err)
		}
		want, err := ex.Run(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ex.RunSharedScan(ctx, dq, gsets)
		if err != nil {
			t.Fatal(err)
		}
		if want.String() != got[0].String() {
			t.Fatalf("predicate %v round-trip changed results:\n%s\nvs\n%s", p, got[0], want)
		}
	}
}
