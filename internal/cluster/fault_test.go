package cluster_test

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"seedb"
	"seedb/internal/cluster"
	"seedb/internal/frontend"
)

// faultInjector wraps a worker's HTTP handler and misbehaves on demand
// on the query path (fragment shipping is untouched): it can hang past
// the coordinator's client timeout (a wedged worker) or fail outright
// (a crashing one), then be healed mid-test.
type faultInjector struct {
	inner http.Handler
	// mode: 0 = healthy, 1 = hang, 2 = HTTP 500.
	mode  atomic.Int32
	hang  time.Duration
	execs atomic.Int64 // /api/shard/exec arrivals, faulty or not
}

const (
	faultNone = iota
	faultHang
	faultError
)

func (f *faultInjector) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/api/shard/exec" {
		f.execs.Add(1)
		switch f.mode.Load() {
		case faultHang:
			time.Sleep(f.hang)
			// Fall through and answer anyway; the coordinator's client
			// has long since given up.
		case faultError:
			http.Error(w, "injected worker fault", http.StatusInternalServerError)
			return
		}
	}
	f.inner.ServeHTTP(w, r)
}

// startFaultyWorker runs a real (empty) worker server behind a fault
// injector.
func startFaultyWorker(t *testing.T, hang time.Duration) (*httptest.Server, *faultInjector) {
	t.Helper()
	fi := &faultInjector{
		inner: frontend.New(seedb.Open(), nil, log.New(testWriter{t}, "faulty-worker: ", 0)),
		hang:  hang,
	}
	hs := httptest.NewServer(fi)
	t.Cleanup(hs.Close)
	return hs, fi
}

// faultyFleet places a fresh coordinator over two fault-injectable
// workers and returns the injector of the worker that leads the query
// table's first placement — so it is dialed first for at least one
// range whatever ports the test servers drew. At rf=1 its placements
// have no other owner and fail over to the coordinator; at rf=2 they
// fail over to the other worker.
func faultyFleet(t *testing.T, rows, rf int, hang, timeout, cooldown time.Duration) (*seedb.DB, *seedb.PlacementBackend, *faultInjector) {
	t.Helper()
	w1, fi1 := startFaultyWorker(t, hang)
	w2, fi2 := startFaultyWorker(t, hang)
	coord := newDB(t, rows)
	cfg := placementConfig(rf)
	cfg.Cooldown = cooldown
	b, err := coord.PlaceRemote(context.Background(), []string{w1.URL, w2.URL}, timeout, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if leaderOf(t, b, "synthetic", 0) == w1.URL {
		return coord, b, fi1
	}
	return coord, b, fi2
}

// checkFailover asserts the rf-dependent failover accounting: at rf=1
// the faulty worker's ranges ran on the coordinator replica; at rf=2
// the surviving owner covered them and the degraded path stayed cold.
func checkFailover(t *testing.T, rf int, c cluster.PlacementStats) {
	t.Helper()
	if c.Retries == 0 {
		t.Fatalf("rf=%d: expected retries, got %+v", rf, c)
	}
	if (rf == 1) != (c.Failovers > 0) {
		t.Fatalf("rf=%d: failovers to the coordinator = %d (%+v)", rf, c.Failovers, c)
	}
}

// wantBytes renders a plain single-node instance's answer to testQuery.
func wantBytes(t *testing.T, rows int) string {
	t.Helper()
	want, err := newDB(t, rows).RecommendSQL(context.Background(), testQuery, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	return render(want)
}

// TestFaultInjectionHangRetryCooldown drives a hanging worker through
// retry → unhealthy → cooldown: mid-query hangs surface as client
// timeouts, the worker's ranges fail over (to the coordinator replica
// at rf=1, to the other owner at rf=2), and while the cooldown holds
// the wedged worker is never re-dialed. Results stay identical to a
// plain single-node instance at every stage.
func TestFaultInjectionHangRetryCooldown(t *testing.T) {
	const rows = 3000
	want := wantBytes(t, rows)
	for _, rf := range []int{1, 2} {
		t.Run(fmt.Sprintf("rf=%d", rf), func(t *testing.T) {
			ctx := context.Background()
			// Client timeout well below the hang, so a wedged worker
			// surfaces as a timeout, yet generous enough that the healthy
			// owner never trips it on slow (-race) hosts; a 1h cooldown
			// keeps stage 2 deterministically inside the cooldown window
			// however slow the test host is.
			coord, b, fi := faultyFleet(t, rows, rf, 3*time.Second, time.Second, time.Hour)

			// Stage 1: worker hangs mid-query. Retries, goes unhealthy,
			// ranges fail over; bytes unchanged.
			fi.mode.Store(faultHang)
			got, err := coord.RecommendSQL(ctx, testQuery, testOptions())
			if err != nil {
				t.Fatal(err)
			}
			if render(got) != want {
				t.Fatal("hang + failover changed result bytes")
			}
			c := b.Counters()
			checkFailover(t, rf, c)
			unhealthy := 0
			for _, st := range b.Status() {
				if !st.Healthy {
					unhealthy++
				}
			}
			if unhealthy != 1 {
				t.Fatalf("expected exactly one unhealthy worker, got %d", unhealthy)
			}

			// Stage 2: inside the cooldown the wedged worker must not be
			// re-dialed.
			execsBefore := fi.execs.Load()
			got, err = coord.RecommendSQL(ctx, testQuery, testOptions())
			if err != nil {
				t.Fatal(err)
			}
			if render(got) != want {
				t.Fatal("cooldown-window query changed result bytes")
			}
			if fi.execs.Load() != execsBefore {
				t.Fatalf("cooling-down worker was re-dialed (%d -> %d execs)", execsBefore, fi.execs.Load())
			}
			if after := b.Counters(); (rf == 1) != (after.Failovers > c.Failovers) {
				t.Fatalf("rf=%d: cooldown-window failovers %d -> %d", rf, c.Failovers, after.Failovers)
			}
		})
	}
}

// TestFaultInjectionRecoveryAfterCooldown: once the cooldown elapses, a
// healed worker is half-open probed, serves its ranges again, and
// returns to the healthy pool — with unchanged bytes throughout.
func TestFaultInjectionRecoveryAfterCooldown(t *testing.T) {
	const rows = 2000
	want := wantBytes(t, rows)
	for _, rf := range []int{1, 2} {
		t.Run(fmt.Sprintf("rf=%d", rf), func(t *testing.T) {
			ctx := context.Background()
			// The hang dwarfs the client timeout, but the timeout itself
			// stays generous so a healthy worker never trips it on slow
			// (-race) hosts.
			cooldown := 300 * time.Millisecond
			coord, b, fi := faultyFleet(t, rows, rf, 5*time.Second, time.Second, cooldown)

			fi.mode.Store(faultHang)
			if got, err := coord.RecommendSQL(ctx, testQuery, testOptions()); err != nil {
				t.Fatal(err)
			} else if render(got) != want {
				t.Fatal("hang + failover changed result bytes")
			}
			checkFailover(t, rf, b.Counters())

			// Heal, wait out the cooldown, and query: the half-open probe
			// must reuse the worker and mark it healthy again.
			fi.mode.Store(faultNone)
			time.Sleep(cooldown + 200*time.Millisecond)
			execsBefore := fi.execs.Load()
			got, err := coord.RecommendSQL(ctx, testQuery, testOptions())
			if err != nil {
				t.Fatal(err)
			}
			if render(got) != want {
				t.Fatal("post-recovery query changed result bytes")
			}
			if fi.execs.Load() == execsBefore {
				t.Fatal("healed worker was never half-open probed after its cooldown")
			}
			for _, st := range b.Status() {
				if !st.Healthy {
					t.Fatalf("worker %s still unhealthy after recovery", st.ID)
				}
			}
		})
	}
}

// TestFaultInjectionErrorFailover: a worker answering HTTP 500 (crash
// on the exec path rather than a wedge) follows the same retry →
// failover contract with byte-identical results.
func TestFaultInjectionErrorFailover(t *testing.T) {
	const rows = 2000
	want := wantBytes(t, rows)
	for _, rf := range []int{1, 2} {
		t.Run(fmt.Sprintf("rf=%d", rf), func(t *testing.T) {
			coord, b, fi := faultyFleet(t, rows, rf, 0, 5*time.Second, time.Hour)
			fi.mode.Store(faultError)
			got, err := coord.RecommendSQL(context.Background(), testQuery, testOptions())
			if err != nil {
				t.Fatal(err)
			}
			if render(got) != want {
				t.Fatal("error-injected execution changed result bytes")
			}
			checkFailover(t, rf, b.Counters())
			if fi.execs.Load() < 2 {
				t.Fatalf("faulty worker should have been retried, saw %d execs", fi.execs.Load())
			}
		})
	}
}

// TestOversizedReplyFailsOver: a worker reply larger than the
// coordinator's bound is an owner fault — retried, then covered by the
// next owner with the same bytes — never an unbounded decode.
func TestOversizedReplyFailsOver(t *testing.T) {
	ctx := context.Background()
	const rows = 2000
	want := wantBytes(t, rows)
	w1, _ := startWorker(t)
	w2, _ := startWorker(t)
	coord := newDB(t, rows)
	cfg := placementConfig(2)
	cfg.Cooldown = time.Hour
	b, err := coord.PlaceRemote(ctx, nil, 5*time.Second, cfg)
	if err != nil {
		t.Fatal(err)
	}
	shards := map[string]*cluster.RemoteShard{}
	for _, u := range []string{w1.URL, w2.URL} {
		shards[u] = cluster.NewRemoteShard(u, 5*time.Second)
		if _, _, err := b.AddWorker(ctx, shards[u]); err != nil {
			t.Fatal(err)
		}
	}
	big := leaderOf(t, b, "synthetic", 0)
	cluster.SetMaxReply(shards[big], 64) // every partials reply is larger

	got, err := coord.RecommendSQL(ctx, testQuery, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if render(got) != want {
		t.Fatal("oversized-reply failover changed result bytes")
	}
	c := b.Counters()
	if c.Retries == 0 || c.Failovers != 0 || c.Mismatches != 0 {
		t.Fatalf("expected a retried owner fault covered by the other owner, got %+v", c)
	}
	if workerStatus(t, b, big).Healthy {
		t.Fatalf("worker %s with oversized replies should be unhealthy", big)
	}
}
