// Command perfbench is the repository's benchmark: it runs one of four
// workloads against the real SeeDB code, checks every output against a
// single-node reference, and prints each metric by name with its unit.
// The last line of standard output is a JSON object with the keys
// correct, attempted, failed and metrics.
//
//	perfbench --workload cold_start --seed 1 --seconds 20 --trace 0
//
// With --trace 1 it prints the per-layer metrics instead of the
// end-to-end ones and writes the run's spans, parented by request, into
// the --spans directory. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
)

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	spans    string
}

// workloads maps each workload name to its runner, in the order
// --workload all runs them.
var workloads = []struct {
	name string
	run  func(*run) error
}{
	{"cold_start", (*run).coldStart},
	{"interactive_http", (*run).interactiveHTTP},
	{"live_append", (*run).liveAppend},
	{"placed_reads", (*run).placedReads},
}

// metricDef names one reported metric. moves says which end-to-end
// metric, on which workload, a per-layer metric should move.
type metricDef struct {
	name, unit, moves string
}

var endToEndDefs = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "cold_ms_p50", unit: "ms"},
	{name: "req_ms_p50", unit: "ms"},
	{name: "req_ms_p95", unit: "ms"},
	{name: "req_per_s", unit: "1/s"},
	{name: "ingest_ms_p50", unit: "ms"},
	{name: "ingest_rows_per_s", unit: "rows/s"},
	{name: "live_heap_mb", unit: "MiB"},
}

const (
	movesScan  = "req_ms_p50, req_ms_p95, req_per_s on interactive_http; cold_ms_p50 on cold_start"
	movesSched = "req_ms_p95, req_per_s on interactive_http"
	movesWAL   = "ingest_ms_p50, ingest_rows_per_s on live_append"
	movesPlace = "req_ms_p50 on placed_reads"
)

var perLayerDefs = []metricDef{
	{"stats.collect_ms", "ms", "cold_ms_p50 on cold_start; req_ms_p50 on live_append"},
	{"stats.cramers_ms", "ms", "cold_ms_p50 on cold_start; req_ms_p50 on live_append"},
	{"engine.scan_ms", "ms", movesScan},
	{"engine.scan_calls", "count", movesScan},
	{"engine.rows_read", "rows", movesScan},
	{"engine.rows_per_ms", "rows/ms", movesScan},
	{"engine.pstore_reuse_ratio", "ratio", "req_ms_p50 on live_append"},
	{"core.self_ms", "ms", "req_ms_p50 on interactive_http (cache hits) and on placed_reads"},
	{"service.cache_hit_ratio", "ratio", "req_ms_p50 on interactive_http"},
	{"service.cache_lookups", "count", "req_ms_p50 on interactive_http"},
	{"service.cache_compute_ms", "ms", "req_ms_p50 on interactive_http"},
	{"service.queue_wait_ms", "ms", movesSched},
	{"service.run_ms", "ms", movesSched},
	{"service.coalesced", "count", movesSched},
	{"frontend.overhead_ms", "ms", "req_ms_p50 on interactive_http"},
	{"frontend.resp_bytes", "bytes", "req_ms_p50 on interactive_http"},
	{"sql.parse_us", "us", "req_ms_p50 on interactive_http"},
	{"wal.fsync_ms", "ms", movesWAL},
	{"wal.fsyncs_per_batch", "count", movesWAL},
	{"wal.checkpoint_ms", "ms", movesWAL},
	{"wal.checkpoints", "count", movesWAL},
	{"wal.bytes_per_row", "bytes", movesWAL},
	{"cluster.scatter_ms", "ms", movesPlace},
	{"cluster.range_calls", "count", movesPlace},
	{"cluster.retries", "count", movesPlace},
	{"cluster.failovers", "count", movesPlace},
	{"obs.trace_overhead_pct", "%", "the traced run of this workload against its untraced run"},
}

// endToEnd computes every end-to-end metric from a run's samples.
func (s *samples) endToEnd() map[string]float64 {
	m := map[string]float64{
		"setup_s":       quantile(s.setup, 0.5),
		"cold_ms_p50":   quantile(s.cold, 0.5),
		"req_ms_p50":    quantile(s.req, 0.5),
		"req_ms_p95":    quantile(s.req, 0.95),
		"ingest_ms_p50": quantile(s.ingest.lat, 0.5),
		"live_heap_mb":  s.heapMB,
	}
	if s.wall > 0 {
		m["req_per_s"] = float64(len(s.req)) / s.wall.Seconds()
	}
	if s.ingest.busy > 0 {
		m["ingest_rows_per_s"] = float64(s.ingest.rows) / s.ingest.busy.Seconds()
	}
	return m
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() { os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr)) }

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: cold_start, interactive_http, live_append, placed_reads or all")
	seedText := fs.String("seed", "1", "workload seed (integer)")
	seconds := fs.Int("seconds", 20, "how long one run measures, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	spans := fs.String("spans", filepath.Join(".bench_build", "spans"), "directory a traced run writes its spans to, as <workload>-<seed>.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	seed, err := parseSeed(*seedText)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seed must be an integer, --seconds at least 1 and --trace 0 or 1")
		return 2
	}
	var todo []string
	for _, w := range workloads {
		if *workload == w.name || *workload == "all" {
			todo = append(todo, w.name)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	total := result{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, name := range todo {
		cfg := config{workload: name, seed: seed, seconds: *seconds, trace: *trace == 1,
			spans: filepath.Join(*spans, fmt.Sprintf("%s-%d.json", name, seed))}
		res, err := runOne(cfg, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		if len(todo) == 1 {
			total = res
			break
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[name+"."+k] = v
		}
	}
	b, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: encoding the result:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// parseSeed accepts any 64-bit integer; a negative seed keeps its bits.
func parseSeed(text string) (uint64, error) {
	if u, err := strconv.ParseUint(text, 10, 64); err == nil {
		return u, nil
	}
	i, err := strconv.ParseInt(text, 10, 64)
	return uint64(i), err
}

// runOne runs one workload and prints its metrics, one per line.
func runOne(cfg config, stdout io.Writer) (result, error) {
	env := hostEnv(cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	eb, err := json.Marshal(env)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(stdout, "env %s\n", eb)
	r := &run{cfg: cfg, layers: map[string]float64{}, rec: newRecorder()}
	for _, w := range workloads {
		if w.name == cfg.workload {
			err = w.run(r)
		}
	}
	if err != nil {
		return result{}, err
	}
	for _, n := range r.notes {
		fmt.Fprintln(stdout, n)
	}
	res := result{
		Correct:   r.chk.failed == 0 && r.chk.attempted > 0,
		Attempted: r.chk.attempted,
		Failed:    r.chk.failed,
		Metrics:   map[string]jsonMetric{},
	}
	fmt.Fprintf(stdout, "%-26s %14.4f %-7s (%d of %d operations failed or mismatched)\n",
		"failed_frac", r.chk.failedFrac(), "ratio", r.chk.failed, r.chk.attempted)
	if cfg.trace {
		for _, d := range perLayerDefs {
			v := r.layers[d.name]
			res.Metrics[d.name] = jsonMetric{v, d.unit}
			fmt.Fprintf(stdout, "%-26s %14.4f %-7s -> %s\n", d.name, v, d.unit, d.moves)
		}
		if err := r.rec.write(cfg.spans, env, cfg.workload); err != nil {
			return result{}, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(stdout, "spans written to %s\n", cfg.spans)
		return res, nil
	}
	m := r.s.endToEnd()
	for _, d := range endToEndDefs {
		res.Metrics[d.name] = jsonMetric{m[d.name], d.unit}
		fmt.Fprintf(stdout, "%-26s %14.4f %-7s\n", d.name, m[d.name], d.unit)
	}
	fmt.Fprintf(stdout, "samples: %d recommends (%d with nothing cached), %d setups, %d appends, measured %.1f s\n",
		len(r.s.req), len(r.s.cold), len(r.s.setup), len(r.s.ingest.lat), r.s.wall.Seconds())
	return res, nil
}
