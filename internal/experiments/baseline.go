package experiments

import (
	"context"
	"encoding/json"
	"time"

	"seedb/internal/core"
	"seedb/internal/datagen"
	"seedb/internal/engine"
	"seedb/internal/service"
)

// Baseline is the committed performance reference point
// (BENCH_baseline.json): cold vs warm-cache recommendation latency on
// a fixed workload, so later PRs have a trajectory to compare against.
// Medians over Iterations runs keep scheduler noise out of the record.
type Baseline struct {
	Rows       int    `json:"rows"`
	Seed       int64  `json:"seed"`
	Iterations int    `json:"iterations"`
	Query      string `json:"query"`

	// ColdMillis is the per-request latency with no cache installed
	// (every call scans); WarmMillis is the latency once the cache
	// holds the workload's exec units.
	ColdMillis float64 `json:"coldMillis"`
	WarmMillis float64 `json:"warmMillis"`
	// Speedup = ColdMillis / WarmMillis.
	Speedup float64 `json:"speedup"`

	// ViewsPerSec is executed views divided by elapsed time, per mode.
	ViewsPerSecCold float64 `json:"viewsPerSecCold"`
	ViewsPerSecWarm float64 `json:"viewsPerSecWarm"`

	Cache service.CacheStats `json:"cache"`
}

// JSON renders the baseline as indented JSON.
func (b *Baseline) JSON() ([]byte, error) { return json.MarshalIndent(b, "", "  ") }

// RunBaseline measures cold vs warm-cache recommend latency on the
// superstore workload at the given scale.
func RunBaseline(rows int, seed int64, iterations int) (*Baseline, error) {
	if iterations < 3 {
		iterations = 3
	}
	b := &Baseline{
		Rows:       rows,
		Seed:       seed,
		Iterations: iterations,
		Query:      "SELECT * FROM orders WHERE category = 'Furniture'",
	}
	q := core.Query{Table: "orders", Predicate: engine.Eq("category", engine.String("Furniture"))}
	opts := core.DefaultOptions()
	ctx := context.Background()

	newEngine := func() (*core.Engine, error) {
		cat := engine.NewCatalog()
		if err := cat.Register(datagen.Superstore("orders", rows, seed)); err != nil {
			return nil, err
		}
		return core.New(engine.NewExecutor(cat)), nil
	}
	measure := func(eng *core.Engine) (medianMillis, viewsPerSec float64, err error) {
		times := make([]float64, 0, iterations)
		var views int
		for i := 0; i < iterations; i++ {
			start := time.Now()
			res, err := eng.Recommend(ctx, q, opts)
			if err != nil {
				return 0, 0, err
			}
			times = append(times, float64(time.Since(start).Microseconds())/1000)
			views = res.Stats.ExecutedViews
		}
		m := median(times)
		return m, float64(views) / (m / 1000), nil
	}

	// Cold: no cache, every iteration scans.
	cold, err := newEngine()
	if err != nil {
		return nil, err
	}
	if b.ColdMillis, b.ViewsPerSecCold, err = measure(cold); err != nil {
		return nil, err
	}

	// Warm: service layer installed, one priming call, then measure
	// fully cached requests.
	warmEng, err := newEngine()
	if err != nil {
		return nil, err
	}
	mgr := service.NewManager(warmEng, service.Config{})
	sess := mgr.NewSession(opts)
	if _, err := sess.Recommend(ctx, q, nil); err != nil {
		return nil, err
	}
	if b.WarmMillis, b.ViewsPerSecWarm, err = measure(warmEng); err != nil {
		return nil, err
	}
	b.Speedup = b.ColdMillis / b.WarmMillis
	b.Cache = mgr.CacheStats()
	return b, nil
}

// median returns the middle value (upper-middle for even lengths).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ { // insertion sort: n is tiny
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}
