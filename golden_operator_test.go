package seedb

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// Golden operator tests: every exploration operator beyond deviation
// (similarity, outlier, typical, trend) is pinned byte-identical
// across runs, across processes (committed testdata/golden files),
// with the service cache on vs off, across every shard count, and
// under rf=2 data-partitioned placement. The deviation goldens in
// golden_test.go are untouched by design — the operator seam must not
// perturb them — and these files extend the same guarantee to the new
// operators: the cluster and cache layers are operator-agnostic, so
// whatever an operator scores on a single node it must score
// everywhere.
//
// Regenerate after an intentional behavior change with:
//
//	go test -run TestGoldenOperator -update .

// operatorGoldenCases pairs each operator with a per-query probe
// dimension (similarity needs one; the centroid and trend operators
// derive everything from the enumerated views).
var operatorGoldenCases = []struct {
	op        string
	probeDims [2]string // indexed by goldenQueries position
}{
	{"similarity", [2]string{"region", "d1"}},
	{"outlier", [2]string{"", ""}},
	{"typical", [2]string{"", ""}},
	{"trend", [2]string{"", ""}},
}

func operatorGoldenOptions(op, probeDim string) Options {
	opts := goldenOptions("emd")
	opts.Operator = op
	opts.ProbeDimension = probeDim
	return opts
}

func TestGoldenOperatorRecommendations(t *testing.T) {
	ctx := context.Background()
	for _, tc := range operatorGoldenCases {
		for qi, query := range goldenQueries {
			name := fmt.Sprintf("op_%s_q%d", tc.op, qi)
			t.Run(name, func(t *testing.T) {
				opts := operatorGoldenOptions(tc.op, tc.probeDims[qi])

				plain := goldenDB(t)
				r1, err := plain.RecommendSQL(ctx, query, opts)
				if err != nil {
					t.Fatal(err)
				}
				r2, err := plain.RecommendSQL(ctx, query, opts)
				if err != nil {
					t.Fatal(err)
				}
				if len(r1.Recommendations) == 0 {
					t.Fatalf("operator %s recommended nothing", tc.op)
				}
				if r1.Operator != tc.op {
					t.Fatalf("Result.Operator = %q, want %q", r1.Operator, tc.op)
				}
				for _, rec := range r1.Recommendations {
					if rec.ChartType == "" {
						t.Fatalf("recommendation %s carries no chart type", rec.Data.View)
					}
				}
				got := renderGolden(r1)
				if again := renderGolden(r2); again != got {
					t.Fatalf("repeated run diverged:\n%s\nvs\n%s", got, again)
				}

				// Service cache on: cold and warm must both match the
				// uncached bytes (exec-cache keys carry the operator).
				cached := goldenDB(t)
				cached.Serve(ServeConfig{})
				c1, err := cached.RecommendSQL(ctx, query, opts)
				if err != nil {
					t.Fatal(err)
				}
				c2, err := cached.RecommendSQL(ctx, query, opts)
				if err != nil {
					t.Fatal(err)
				}
				if st := cached.CacheStats(); st.Hits == 0 {
					t.Fatalf("second cached run should hit: %+v", st)
				}
				if cold := renderGolden(c1); cold != got {
					t.Fatalf("cache-on (cold) differs from cache-off:\n%s\nvs\n%s", cold, got)
				}
				if warm := renderGolden(c2); warm != got {
					t.Fatalf("cache-on (warm) differs from cache-off:\n%s\nvs\n%s", warm, got)
				}

				path := filepath.Join("testdata", "golden", name+".golden")
				if *updateGolden {
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden file (run with -update to create): %v", err)
				}
				if string(want) != got {
					t.Fatalf("output differs from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
				}
			})
		}
	}
}

// TestGoldenOperatorBackendMatrix: each operator's committed golden
// binds at every scan split and on an rf=2 placed fleet — with zero
// operator-specific code in either path.
func TestGoldenOperatorBackendMatrix(t *testing.T) {
	ctx := context.Background()
	for _, tc := range operatorGoldenCases {
		for qi, query := range goldenQueries {
			name := fmt.Sprintf("op_%s_q%d", tc.op, qi)
			t.Run(name, func(t *testing.T) {
				opts := operatorGoldenOptions(tc.op, tc.probeDims[qi])
				path := filepath.Join("testdata", "golden", name+".golden")
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden file (run TestGoldenOperatorRecommendations with -update): %v", err)
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

				for _, workers := range []int{1, 2, 4} {
					db, b := placedGoldenDB(t, 2, workers)
					res, err := db.RecommendSQL(ctx, query, opts)
					if err != nil {
						t.Fatalf("rf=2 workers=%d: %v", workers, err)
					}
					if got := renderGolden(res); got != string(want) {
						t.Fatalf("rf=2 workers=%d differs from single-node golden %s:\ngot:\n%s\nwant:\n%s",
							workers, path, got, want)
					}
					if c := b.Counters(); c.Failovers != 0 || c.Mismatches != 0 {
						t.Fatalf("rf=2 workers=%d: healthy fleet degraded: %+v", workers, c)
					}
				}
			})
		}
	}
}

// TestGoldenOperatorsDistinct: the operators genuinely rank
// differently — if two operators ever produced identical top-k bytes
// for the same query, one of them would not be pulling its weight (or
// a scoring branch would be leaking across the seam).
func TestGoldenOperatorsDistinct(t *testing.T) {
	for qi := range goldenQueries {
		rankings := map[string]string{}
		for _, op := range []string{"deviation", "similarity", "outlier", "typical", "trend"} {
			var path string
			if op == "deviation" {
				path = filepath.Join("testdata", "golden", fmt.Sprintf("emd_q%d.golden", qi))
			} else {
				path = filepath.Join("testdata", "golden", fmt.Sprintf("op_%s_q%d.golden", op, qi))
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Skipf("golden corpus incomplete (%v); run the golden suites with -update", err)
			}
			body := string(b)
			if prev, dup := rankings[body]; dup {
				t.Fatalf("query %d: operators %s and %s produced identical goldens", qi, prev, op)
			}
			rankings[body] = op
		}
	}
}
