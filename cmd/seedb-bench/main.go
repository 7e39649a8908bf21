// Command seedb-bench regenerates the paper's tables, figures, and
// quantitative claims as experiments E1–E14 (the index lives in
// internal/experiments; committed results in BENCH_*.json).
//
// Usage:
//
//	seedb-bench                 # run everything at the recorded scale
//	seedb-bench -exp E5,E8      # run selected experiments
//	seedb-bench -rows 50000     # change the base table size
//	seedb-bench -quick          # fast smoke-test sweep
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"seedb/internal/experiments"
	"seedb/internal/loadbench"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment IDs (E1..E14) or 'all'")
	rows := flag.Int("rows", 0, "base table size (0 = experiment default)")
	seed := flag.Int64("seed", 42, "dataset seed")
	quick := flag.Bool("quick", false, "reduced sweeps for a fast smoke test")
	list := flag.Bool("list", false, "list experiments and exit")
	baseline := flag.String("baseline", "", "measure cold vs warm-cache recommend latency and write the JSON baseline to this path (e.g. BENCH_baseline.json), then exit")
	baselineIters := flag.Int("baseline-iters", 9, "iterations per baseline measurement (median is recorded)")
	appendBench := flag.String("append", "", "measure query-after-append latency vs delta size (incremental chunk-partial reuse) and write BENCH_append.json to this path, then exit")
	appendDeltas := flag.String("append-deltas", "1000,10000,50000", "comma-separated append batch sizes for -append")
	schedBench := flag.String("sched", "", "measure the workload scheduler (request coalescing + admission) under concurrent bursts and write BENCH_sched.json to this path, then exit")
	schedRequests := flag.Int("sched-requests", 8, "concurrent requests per burst for -sched")
	walBench := flag.String("wal", "", "measure ingest throughput per durability mode and WAL replay time, write BENCH_wal.json to this path, then exit")
	walBatchRows := flag.Int("wal-batch-rows", 2000, "rows per ingest batch for -wal")
	loadBench := flag.String("load", "", "drive stepped concurrent HTTP load at a real frontend server and write BENCH_load.json to this path, then exit")
	loadRequests := flag.Int("load-requests", 16, "requests per load step for -load (min 8)")
	kernelBench := flag.String("kernel", "", "measure chunk-kernel vs reference scan throughput and write BENCH_kernel.json to this path, then exit")
	flag.Parse()

	if *list {
		for _, r := range experiments.Registry {
			fmt.Printf("%-4s %s\n", r.ID, r.Title)
		}
		return
	}

	if *schedBench != "" {
		n := *rows
		if n == 0 {
			n = 100_000
		}
		b, err := experiments.RunSchedBench(n, *schedRequests, *seed, *baselineIters)
		must(err)
		data, err := b.JSON()
		must(err)
		must(os.WriteFile(*schedBench, append(data, '\n'), 0o644))
		fmt.Print(b.String())
		fmt.Printf("-> %s\n", *schedBench)
		return
	}

	if *loadBench != "" {
		b, err := loadbench.Run(*rows, *loadRequests, *seed)
		must(err)
		data, err := b.JSON()
		must(err)
		must(os.WriteFile(*loadBench, append(data, '\n'), 0o644))
		fmt.Print(b.String())
		fmt.Printf("-> %s\n", *loadBench)
		return
	}

	if *kernelBench != "" {
		n := *rows
		if n == 0 {
			n = 10_000_000
		}
		b, err := experiments.RunKernelBench(n, *seed, *baselineIters)
		must(err)
		data, err := b.JSON()
		must(err)
		must(os.WriteFile(*kernelBench, append(data, '\n'), 0o644))
		fmt.Print(b.String())
		fmt.Printf("-> %s\n", *kernelBench)
		return
	}

	if *walBench != "" {
		n := *rows
		if n == 0 {
			n = 200_000
		}
		b, err := experiments.RunWALBench(n, *walBatchRows, *seed, *baselineIters)
		must(err)
		data, err := b.JSON()
		must(err)
		must(os.WriteFile(*walBench, append(data, '\n'), 0o644))
		fmt.Print(b.String())
		fmt.Printf("-> %s\n", *walBench)
		return
	}

	if *appendBench != "" {
		n := *rows
		if n == 0 {
			n = 200_000
		}
		deltaList, err := parseIntList(*appendDeltas)
		must(err)
		b, err := experiments.RunAppendBench(n, deltaList, *seed, *baselineIters)
		must(err)
		data, err := b.JSON()
		must(err)
		must(os.WriteFile(*appendBench, append(data, '\n'), 0o644))
		fmt.Print(b.String())
		fmt.Printf("-> %s\n", *appendBench)
		return
	}

	if *baseline != "" {
		n := *rows
		if n == 0 {
			n = 100_000
		}
		b, err := experiments.RunBaseline(n, *seed, *baselineIters)
		if err != nil {
			fmt.Fprintf(os.Stderr, "seedb-bench: baseline: %v\n", err)
			os.Exit(1)
		}
		data, err := b.JSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "seedb-bench: baseline: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*baseline, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "seedb-bench: baseline: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("baseline (rows=%d seed=%d iters=%d): cold=%.1fms warm=%.1fms speedup=%.1fx -> %s\n",
			b.Rows, b.Seed, b.Iterations, b.ColdMillis, b.WarmMillis, b.Speedup, *baseline)
		return
	}

	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	if *rows > 0 {
		cfg.Rows = *rows
	}
	cfg.Seed = *seed

	var ids []string
	if strings.EqualFold(*exp, "all") {
		for _, r := range experiments.Registry {
			ids = append(ids, r.ID)
		}
	} else {
		for _, id := range strings.Split(*exp, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}

	start := time.Now()
	failed := false
	for _, id := range ids {
		rep, err := experiments.Run(id, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "seedb-bench: %s: %v\n", id, err)
			failed = true
			continue
		}
		fmt.Println(rep.String())
	}
	fmt.Printf("total: %s (rows=%d quick=%v seed=%d)\n", time.Since(start).Round(time.Millisecond), cfg.Rows, cfg.Quick, cfg.Seed)
	if failed {
		os.Exit(1)
	}
}

func parseIntList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("seedb-bench: bad list entry %q: %w", part, err)
		}
		out = append(out, n)
	}
	return out, nil
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "seedb-bench:", err)
		os.Exit(1)
	}
}
