package seedb

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"seedb/internal/splittest"
)

// Golden shard tests: split-scan execution must be byte-identical to
// single-node execution on the committed golden corpus for every split
// count. Every scan is cut into n grid-aligned ranges that run
// concurrently and merge exactly — splitting changes where scans run,
// never what comes back — made checkable: the engine folds float
// partials on a fixed per-table chunk grid and merges them with exact
// (integer) arithmetic, so EMD/KL/JS utilities match to the last bit
// no matter how the table is partitioned.

var goldenShardCounts = []int{1, 2, 4, 8}

// splitScans sets opts.Parallelism = n and installs a backend that
// hands every engine query Parallelism n, so each scan — not only the
// ones the plan would widen on its own — is cut n ways. Callers assert
// the backend's Scans counter to prove the split ran.
func splitScans(db *DB, opts *Options, n int) *splittest.Backend {
	opts.Parallelism = n
	b := splittest.New(db.ex, n)
	db.SetBackend(b)
	return b
}

// requireSplit fails the test unless b forwarded at least one scan.
func requireSplit(t *testing.T, b *splittest.Backend, n int) {
	t.Helper()
	if b.Scans() == 0 {
		t.Fatalf("split=%d: no scan went through the split backend", n)
	}
}

func TestGoldenShardedRecommendations(t *testing.T) {
	ctx := context.Background()
	for _, metric := range []string{"emd", "kl", "js"} {
		for qi, query := range goldenQueries {
			name := fmt.Sprintf("%s_q%d", metric, qi)
			t.Run(name, func(t *testing.T) {
				opts := goldenOptions(metric)

				// The committed single-node golden file is the reference.
				path := filepath.Join("testdata", "golden", name+".golden")
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden file (run TestGoldenRecommendations with -update): %v", err)
				}

				for _, n := range goldenShardCounts {
					db := goldenDB(t)
					opts := opts
					b := splitScans(db, &opts, n)
					res, err := db.RecommendSQL(ctx, query, opts)
					if err != nil {
						t.Fatalf("split=%d: %v", n, err)
					}
					requireSplit(t, b, n)
					if got := renderGolden(res); got != string(want) {
						t.Fatalf("split=%d differs from single-node golden %s:\ngot:\n%s\nwant:\n%s",
							n, path, got, want)
					}
				}

				// Split + cache on must agree too (the exec cache sits
				// above the backend; its keys carry the backend layout).
				db := goldenDB(t)
				b := splitScans(db, &opts, 4)
				db.Serve(ServeConfig{})
				c1, err := db.RecommendSQL(ctx, query, opts)
				if err != nil {
					t.Fatal(err)
				}
				c2, err := db.RecommendSQL(ctx, query, opts)
				if err != nil {
					t.Fatal(err)
				}
				requireSplit(t, b, 4)
				if st := db.CacheStats(); st.Hits == 0 {
					t.Fatalf("second split cached run should hit: %+v", st)
				}
				if cold, warm := renderGolden(c1), renderGolden(c2); cold != string(want) || warm != string(want) {
					t.Fatalf("split cache-on runs differ from golden")
				}
			})
		}
	}
}

// TestGoldenShardedHigherParallelism: a 3-way scan split composes
// with 7 concurrent view queries without changing bytes (the property
// that let the exec cache drop Parallelism from its keys).
func TestGoldenShardedHigherParallelism(t *testing.T) {
	ctx := context.Background()
	opts := goldenOptions("emd")

	want, err := os.ReadFile(filepath.Join("testdata", "golden", "emd_q0.golden"))
	if err != nil {
		t.Fatal(err)
	}
	db := goldenDB(t)
	b := splitScans(db, &opts, 3)
	opts.Parallelism = 7 // deliberately odd
	res, err := db.RecommendSQL(ctx, goldenQueries[0], opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSplit(t, b, 3)
	if got := renderGolden(res); got != string(want) {
		t.Fatalf("parallelism 7 over 3-way scans changed bytes:\n%s\nvs\n%s", got, want)
	}
}
