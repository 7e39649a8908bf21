package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"seedb"
	"seedb/internal/obs"
	"seedb/internal/sql"
)

// Workload sizes. Request counts scale with --seconds; the rates are
// chosen so that one run measures for about that long on a 2-core host
// at the commit that introduced the benchmark, and they are fixed, so
// a faster or slower program does the same work in less or more time.
const (
	coldRows        = 1_000_000
	servedRows      = 200_000
	setupRepeats    = 3   // setups per run; setup_s is their median
	coldPerSecond   = 0.3 // cold_start samples per second of --seconds
	httpPerSecond   = 10  // interactive_http requests per second of --seconds
	livePerSecond   = 7   // live_append cycles per second of --seconds
	placedPerSecond = 6   // placed_reads requests per second of --seconds
	snapshotEvery   = 32  // live_append checkpoints once per 32 batches
)

func scaled(seconds int, perSecond float64, floor int) int {
	return max(floor, int(float64(seconds)*perSecond+0.5))
}

// overrun bounds a measured phase on a slow host: no new operation
// starts once 1.5 × its share of --seconds has passed, so a run keeps
// to its time budget whatever the host's speed, at the cost of fewer
// samples.
func overrun(begin time.Time, seconds float64) time.Time {
	return begin.Add(time.Duration(1.5 * seconds * float64(time.Second)))
}

// samples is what a run measured.
type samples struct {
	setup  []float64 // s per setup
	req    []float64 // ms per recommend
	cold   []float64 // ms per recommend that found nothing cached for its query
	wall   time.Duration
	ingest ingestLog
	heapMB float64
}

// run is one benchmark invocation's state.
type run struct {
	cfg    config
	chk    checker
	s      samples
	layers map[string]float64
	rec    *recorder
	notes  []string
}

// heap records HeapAlloc after a full collection.
func (r *run) heap() {
	settle()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.s.heapMB = float64(m.HeapAlloc) / (1 << 20)
}

// settle collects the garbage set-up left behind, so every measured
// phase starts from the same heap: the instance under test and the
// benchmark's inputs.
func settle() { runtime.GC() }

// overhead records the traced pass's median latency against the
// untraced pass's.
func (r *run) overhead(untraced, traced []float64) {
	u, t := quantile(untraced, 0.5), quantile(traced, 0.5)
	if u > 0 {
		r.layers["obs.trace_overhead_pct"] = (t/u - 1) * 100
	}
}

// spanMeans sets the per-request mean time of each span family over
// the traced requests and returns the requests.
func (r *run) spanMeans() []requestSpans {
	reqs := r.rec.tree()
	if len(reqs) == 0 {
		return nil
	}
	var st, cr, sc, sa, cc, self []float64
	for _, q := range reqs {
		st = append(st, ms(q.covered(spanStats)))
		cr = append(cr, ms(q.covered(spanCramers)))
		sc = append(sc, ms(q.covered(spanScan)))
		sa = append(sa, ms(q.covered(spanScatter)))
		cc = append(cc, ms(q.covered(spanCacheCompute)))
		self = append(self, ms(q.req.dur()-q.covered()))
	}
	r.layers["stats.collect_ms"] = mean(st)
	r.layers["stats.cramers_ms"] = mean(cr)
	r.layers["engine.scan_ms"] = mean(sc)
	r.layers["cluster.scatter_ms"] = mean(sa)
	r.layers["service.cache_compute_ms"] = mean(cc)
	r.layers["core.self_ms"] = mean(self)
	r.layers["engine.scan_calls"] = float64(r.rec.calls.Load()) / float64(len(reqs))
	return reqs
}

// rowsRead sets engine.rows_read and engine.rows_per_ms from the
// executor's counter delta over a traced pass. The counter is shared
// by every request, so it is read only before and after the pass,
// with no request in flight.
func (r *run) rowsRead(before, after int64, requests int, reqs []requestSpans) {
	rows := float64(after - before)
	r.layers["engine.rows_read"] = rows / float64(max(requests, 1))
	var scan float64
	for _, q := range reqs {
		scan += ms(q.covered(spanScan))
	}
	if scan > 0 {
		r.layers["engine.rows_per_ms"] = rows / scan
	}
}

func (r *run) cacheLayers(before, after seedb.CacheStats, requests int) {
	hits := after.Hits - before.Hits
	lookups := hits + after.Misses - before.Misses + after.Shared - before.Shared
	if lookups > 0 {
		r.layers["service.cache_hit_ratio"] = float64(hits) / float64(lookups)
	}
	r.layers["service.cache_lookups"] = float64(lookups) / float64(max(requests, 1))
}

func (r *run) pstoreLayer(before, after seedb.PartialStoreStats) {
	reused := after.RowsReused - before.RowsReused
	scanned := after.RowsScanned - before.RowsScanned
	if reused+scanned > 0 {
		r.layers["engine.pstore_reuse_ratio"] = float64(reused) / float64(reused+scanned)
	}
}

func (r *run) schedulerLayers(before, after promSnapshot) {
	r.layers["service.queue_wait_ms"] = histMeanMs(before, after, "seedb_scheduler_queue_wait_seconds", "")
	r.layers["service.run_ms"] = histMeanMs(before, after, "seedb_run_duration_seconds", "")
	r.layers["service.coalesced"] = delta(before, after, "seedb_scheduler_coalesced_total")
}

func (r *run) parseLayer(queries []string, db *seedb.DB) {
	cat := db.Engine().Executor().Catalog()
	var us []float64
	for _, q := range queries {
		start := time.Now()
		if _, _, _, err := sql.AnalystQueryExplore(q, cat); err != nil {
			r.chk.fail("parsing %q: %v", q, err)
			continue
		}
		us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
	}
	r.layers["sql.parse_us"] = mean(us)
}

// ---------------------------------------------------------------------
// cold_start

// coldSample is one fresh instance ready for its first query.
type coldSample struct {
	db *seedb.DB
	t  *seedb.Table
}

// newColdSample builds a fresh instance over a freshly loaded table:
// no collector memo, no exec cache, no partial store, zero counters.
func newColdSample(src *seedb.Table, ingest *ingestLog) (coldSample, error) {
	db, err := loadInstance(src, ingest)
	if err != nil {
		return coldSample{}, err
	}
	db.ResetExecStats()
	t, err := db.Table(tableName)
	return coldSample{db: db, t: t}, err
}

// coldQuery times the first Recommend on a cold sample. Traced, it
// first calls the collector's Stats and CorrelationClusters directly
// (the work the first Recommend would otherwise do inside) and runs
// the Recommend with the scan decorator installed.
func (r *run) coldQuery(cs coldSample, traced bool) (*seedb.Result, time.Duration, error) {
	ctx := context.Background()
	opts := seedb.DefaultOptions()
	var id int64
	if traced {
		installTracing(cs.db.Engine(), r.rec, spanScan)
		id = r.rec.newID()
		ctx = withParent(ctx, id)
	}
	settle()
	start := time.Now()
	if traced {
		col := cs.db.Engine().Collector()
		var ts *seedb.TableStats
		r.rec.timed(id, spanStats, func() { ts = col.Stats(cs.t) })
		dims := clusterDims(ts, cs.t.Schema(), coldPredicate().Columns(), opts)
		var err error
		r.rec.timed(id, spanCramers, func() { _, err = col.CorrelationClusters(cs.t, dims, opts.CorrelationThreshold) })
		if err != nil {
			return nil, 0, err
		}
	}
	res, err := cs.db.Recommend(ctx, tableName, coldPredicate(), opts)
	d := time.Since(start)
	if traced {
		r.rec.request(id, "", start, start.Add(d))
	}
	return res, d, err
}

func (r *run) coldStart() error {
	src := sourceTable(r.cfg.seed, coldRows)
	n := scaled(r.cfg.seconds, coldPerSecond, 3)
	if r.cfg.trace {
		n = max(n, 4)
	}
	var ref []byte
	var untraced, traced []float64
	var rows int64
	begin := time.Now()
	stop := overrun(begin, float64(r.cfg.seconds))
	for i := 0; i < n && time.Now().Before(stop); i++ {
		// In a traced run every other sample is traced, so the
		// overhead compares samples of the same run.
		tr := r.cfg.trace && i%2 == 1
		settle()
		start := time.Now()
		cs, err := newColdSample(src, &r.s.ingest)
		if err != nil {
			return err
		}
		r.s.setup = append(r.s.setup, time.Since(start).Seconds())
		res, d, err := r.coldQuery(cs, tr)
		if err != nil {
			r.chk.fail("cold recommend: %v", err)
			continue
		}
		lat := ms(d)
		r.s.req = append(r.s.req, lat)
		r.s.cold = append(r.s.cold, lat)
		if tr {
			traced = append(traced, lat)
			_, _, rr := cs.db.ExecStats() // one request, on its own instance
			rows += rr
		} else {
			untraced = append(untraced, lat)
		}
		got := resultBytes(res)
		if ref == nil {
			ref = got
		}
		r.chk.same(got, ref, "cold sample %d: top-k differs from the first sample", i)
		if i == n-1 || !time.Now().Before(stop) {
			r.heap()
			runtime.KeepAlive(cs.db) // the heap figure includes the instance just queried
		}
	}
	r.s.wall = time.Since(begin)
	if r.cfg.trace {
		reqs := r.spanMeans()
		r.rowsRead(0, rows, len(reqs), reqs)
		r.overhead(untraced, traced)
		r.notes = append(r.notes, fmt.Sprintf("cold_start accounting: stats.collect_ms + stats.cramers_ms + engine.scan_ms + core.self_ms = %.1f ms over %d traced samples; untraced samples of this run: median %.1f ms",
			r.layers["stats.collect_ms"]+r.layers["stats.cramers_ms"]+r.layers["engine.scan_ms"]+r.layers["core.self_ms"], len(traced), quantile(untraced, 0.5)))
	}
	return nil
}

// ---------------------------------------------------------------------
// interactive_http

// httpReply is one completed HTTP request.
type httpReply struct {
	query      string
	first      bool // the stream's first occurrence of this query
	start, end time.Time
	body       []byte
	trace      string // the run's trace ID, from the response header
	err        error
}

func (h httpReply) ms() float64 { return ms(h.end.Sub(h.start)) }

// instance is a loaded, warmed instance under test and what it runs
// behind: a loopback HTTP server, a durable store or a placement.
type instance struct {
	db        *seedb.DB
	srv       *httpServer
	dir       string // durable store, removed on stop
	placement *seedb.PlacementBackend
}

func (s instance) stop() {
	if s.srv != nil {
		s.srv.stop()
	}
	if s.db != nil {
		_ = s.db.CloseDurability() // a no-op without durability; the store is removed next
	}
	if s.dir != "" {
		_ = os.RemoveAll(s.dir) // scratch space; a leftover is harmless
	}
}

// setupRepeated runs setup setupRepeats times, records each duration
// and keeps only the last instance.
func setupRepeated(r *run, setup func() (instance, error)) (instance, error) {
	var inst instance
	for i := 0; i < setupRepeats; i++ {
		inst.stop()
		settle()
		start := time.Now()
		var err error
		if inst, err = setup(); err != nil {
			return inst, err
		}
		r.s.setup = append(r.s.setup, time.Since(start).Seconds())
	}
	return inst, nil
}

func (r *run) setupHTTP(src *seedb.Table) (instance, error) {
	db, err := loadInstance(src, &r.s.ingest)
	if err != nil {
		return instance{}, err
	}
	srv, err := startHTTP(db)
	if err != nil {
		return instance{}, err
	}
	return instance{db: db, srv: srv}, warmMetadata(db)
}

// sendHTTP runs the stream through two closed-loop clients: each sends
// its next request only once the previous answer has arrived.
func sendHTTP(url string, stream []string, seconds float64) ([]httpReply, time.Duration) {
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}, Timeout: 120 * time.Second}
	defer client.CloseIdleConnections()
	seen := map[string]bool{}
	replies := make([]httpReply, len(stream))
	for i, q := range stream {
		replies[i].query = q
		replies[i].first = !seen[q]
		seen[q] = true
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	begin := time.Now()
	stop := overrun(begin, seconds)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				i := int(next.Add(1) - 1)
				if i >= len(stream) {
					return
				}
				replies[i].post(client, url)
			}
		}()
	}
	wg.Wait()
	return replies[:min(int(next.Load()), len(stream))], time.Since(begin)
}

func (h *httpReply) post(client *http.Client, url string) {
	body, err := json.Marshal(map[string]string{"sql": h.query})
	if err != nil {
		h.err = err
		return
	}
	h.start = time.Now()
	defer func() { h.end = time.Now() }()
	resp, err := client.Post(url+"/api/recommend", "application/json", bytes.NewReader(body))
	if err != nil {
		h.err = err
		return
	}
	defer resp.Body.Close()
	h.trace = resp.Header.Get(obs.TraceHeader)
	if h.body, h.err = io.ReadAll(resp.Body); h.err == nil && resp.StatusCode != http.StatusOK {
		h.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(h.body))
	}
}

func scrape(url string) (promSnapshot, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseProm(resp.Body), nil
}

func (r *run) interactiveHTTP() error {
	src := sourceTable(r.cfg.seed, servedRows)
	stream := requestStream(r.cfg.seed, streamRequests, scaled(r.cfg.seconds, httpPerSecond, 20))
	inst, err := setupRepeated(r, func() (instance, error) { return r.setupHTTP(src) })
	defer func() { inst.stop() }()
	if err != nil {
		return err
	}
	refDB, err := loadInstance(src, &r.s.ingest) // single-node reference: no service layer, no caches
	if err != nil {
		return err
	}

	var replies []httpReply
	if !r.cfg.trace {
		settle()
		replies, r.s.wall = sendHTTP(inst.srv.url, stream, float64(r.cfg.seconds))
		r.heap()
	} else if replies, err = r.tracedHTTP(&inst, src, stream[:len(stream)/2]); err != nil {
		return err
	}
	for _, rep := range replies {
		if rep.err != nil {
			continue
		}
		r.s.req = append(r.s.req, rep.ms())
		if rep.first {
			r.s.cold = append(r.s.cold, rep.ms())
		}
	}
	// Output check: every response's views against the single-node
	// in-process result for the same request.
	ref := newReference(refDB, expectedWireBytes)
	for _, rep := range replies {
		if rep.err != nil {
			r.chk.fail("%s: %v", rep.query, rep.err)
			continue
		}
		got, err := wireBytes(rep.body)
		if err != nil {
			r.chk.fail("%s: %v", rep.query, err)
			continue
		}
		ref.check(&r.chk, rep.query, got, "interactive_http")
	}
	r.historyNote(ref)
	return nil
}

// tracedHTTP sends half the stream untraced, then the same half traced
// on a fresh instance, and derives the layer metrics from the traced
// pass. Shared counters are read only between passes, with no request
// in flight.
func (r *run) tracedHTTP(inst *instance, src *seedb.Table, half []string) ([]httpReply, error) {
	settle()
	untraced, _ := sendHTTP(inst.srv.url, half, float64(r.cfg.seconds)/2)
	inst.stop()
	var err error
	if *inst, err = r.setupHTTP(src); err != nil {
		return nil, err
	}
	db, url := inst.db, inst.srv.url
	installTracing(db.Engine(), r.rec, spanScan)
	_, _, rows0 := db.ExecStats()
	c0, p0 := db.CacheStats(), db.IncrementalStats()
	m0, err := scrape(url)
	if err != nil {
		return nil, err
	}
	settle()
	replies, wall := sendHTTP(url, half, float64(r.cfg.seconds)/2)
	m1, err := scrape(url)
	if err != nil {
		return nil, err
	}
	_, _, rows1 := db.ExecStats()
	c1, p1 := db.CacheStats(), db.IncrementalStats()
	r.s.wall = wall

	var sizes []float64
	for _, rep := range replies {
		if rep.err == nil {
			r.rec.request(r.rec.newID(), rep.trace, rep.start, rep.end)
			sizes = append(sizes, float64(len(rep.body)))
		}
	}
	reqs := r.spanMeans()
	r.rowsRead(rows0, rows1, len(reqs), reqs)
	r.cacheLayers(c0, c1, len(reqs))
	r.pstoreLayer(p0, p1)
	r.schedulerLayers(m0, m1)
	// The request spans here include the queue and the wire; core's
	// own time is the pipeline run minus the layers called from it.
	var inner []float64
	for _, q := range reqs {
		inner = append(inner, ms(q.covered()))
	}
	r.layers["core.self_ms"] = r.layers["service.run_ms"] - mean(inner)
	r.layers["frontend.overhead_ms"] = histMeanMs(m0, m1, "seedb_http_request_seconds", `{route="/api/recommend"}`) - r.layers["service.run_ms"]
	r.layers["frontend.resp_bytes"] = mean(sizes)
	r.parseLayer(half, db)
	r.overhead(latencies(untraced), latencies(replies))
	return replies, nil
}

func latencies(replies []httpReply) []float64 {
	var out []float64
	for _, rep := range replies {
		if rep.err == nil {
			out = append(out, rep.ms())
		}
	}
	return out
}

// ---------------------------------------------------------------------
// live_append

func (r *run) setupLive(src *seedb.Table) (instance, error) {
	var base ingestLog // the base load is set-up, not the measured ingest
	db, err := loadInstance(src, &base)
	if err != nil {
		return instance{}, err
	}
	dir, err := os.MkdirTemp("", "perfbench-wal-")
	if err != nil {
		return instance{}, err
	}
	inst := instance{db: db, dir: dir}
	// WALSyncEvery is left at its default: fsync before every ack.
	db.Serve(seedb.ServeConfig{DataDir: dir, SnapshotEveryBatches: snapshotEvery})
	if err := db.DurabilityError(); err != nil {
		return inst, err
	}
	if err := warmMetadata(db); err != nil {
		return inst, err
	}
	// The analyst has asked each question once before the appends
	// start, so the partial store holds the base table's chunks.
	sess := db.Service().AnonymousSession()
	for _, q := range liveQueries {
		if _, err := sess.RecommendSQL(context.Background(), q, nil); err != nil {
			return inst, err
		}
	}
	return inst, nil
}

// liveCycles runs up to n cycles: append the next batch durably, then
// ask one of the fixed queries, in turn. It returns the recommend
// latencies and the number of batches appended.
func (r *run) liveCycles(db *seedb.DB, n int, seconds float64, traced bool) ([]float64, int) {
	sess := db.Service().AnonymousSession()
	t, err := db.Table(tableName)
	if err != nil {
		r.chk.fail("live table: %v", err)
		return nil, 0
	}
	col, opts := db.Engine().Collector(), seedb.DefaultOptions()
	predCols := make([][]string, len(liveQueries))
	for i, q := range liveQueries {
		if predCols[i], err = predicateColumns(db, q); err != nil {
			r.chk.fail("live query %s: %v", q, err)
			return nil, 0
		}
	}
	src := newBatchSource(r.cfg.seed)
	var lat []float64
	var walBytes, walRows int64
	i := 0
	for stop := overrun(time.Now(), seconds); i < n && time.Now().Before(stop); i++ {
		b := src.next()
		d0, _ := db.DurabilityStats()
		if err := r.s.ingest.appendTimed(db, b); err != nil {
			r.chk.fail("append %d: %v", i, err)
			continue
		}
		r.chk.ok()
		if d1, _ := db.DurabilityStats(); d1.Checkpoints == d0.Checkpoints {
			walBytes += d1.WALBytes - d0.WALBytes
			walRows += int64(len(b))
		}
		ctx := context.Background()
		var capt *obs.IDCapture
		var id int64
		start := time.Now()
		if traced {
			ctx, capt = obs.WithIDCapture(ctx)
			id = r.rec.newID()
			// The delta extension the next Recommend would otherwise
			// do inside: statistics, then the Cramér's V clustering of
			// the query's dimensions.
			var ts *seedb.TableStats
			r.rec.timed(id, spanStats, func() { ts = col.Stats(t) })
			r.rec.timed(id, spanCramers, func() {
				_, err = col.CorrelationClusters(t, clusterDims(ts, t.Schema(), predCols[i%len(liveQueries)], opts), opts.CorrelationThreshold)
			})
			if err != nil {
				r.chk.fail("cycle %d Cramér's V: %v", i, err)
			}
		}
		_, err := sess.RecommendSQL(ctx, liveQueries[i%len(liveQueries)], nil)
		end := time.Now()
		if traced {
			r.rec.request(id, capt.Get(), start, end)
		}
		if err != nil {
			r.chk.fail("cycle %d recommend: %v", i, err)
			continue
		}
		r.chk.ok()
		lat = append(lat, ms(end.Sub(start)))
	}
	if walRows > 0 {
		r.layers["wal.bytes_per_row"] = float64(walBytes) / float64(walRows)
	}
	return lat, i
}

// checkAppendEqualsCold compares the live instance's answers with a
// fresh in-memory instance loaded with the same rows in one go.
func (r *run) checkAppendEqualsCold(db *seedb.DB, src *seedb.Table, batches int) error {
	var ignore ingestLog
	fresh, err := loadInstance(src, &ignore)
	if err != nil {
		return err
	}
	bs := newBatchSource(r.cfg.seed)
	for i := 0; i < batches; i++ {
		if _, err := fresh.Append(tableName, bs.next()); err != nil {
			return err
		}
	}
	ref := newReference(fresh, renderResult)
	sess := db.Service().AnonymousSession()
	for _, q := range liveQueries {
		history := accessHistory(db)
		live, err := sess.RecommendSQL(context.Background(), q, nil)
		if err != nil {
			r.chk.fail("final %s: %v", q, err)
			continue
		}
		ref.checkAt(&r.chk, q, history, resultBytes(live), "live_append after appends vs a fresh instance over the same rows:")
	}
	return nil
}

func (r *run) liveAppend() error {
	src := sourceTable(r.cfg.seed, servedRows)
	cycles := scaled(r.cfg.seconds, livePerSecond, 12)
	inst, err := setupRepeated(r, func() (instance, error) { return r.setupLive(src) })
	defer func() { inst.stop() }()
	if err != nil {
		return err
	}
	r.notes = append(r.notes, fmt.Sprintf("live_append durability: fsync before every append ack (WAL sync every batch), snapshot every %d batches", snapshotEvery))
	appended := 0
	if !r.cfg.trace {
		settle()
		begin := time.Now()
		r.s.req, appended = r.liveCycles(inst.db, cycles, float64(r.cfg.seconds), false)
		r.s.wall = time.Since(begin)
		r.heap()
	} else {
		settle()
		untraced, _ := r.liveCycles(inst.db, cycles/2, float64(r.cfg.seconds)/2, false)
		inst.stop()
		if inst, err = r.setupLive(src); err != nil {
			return err
		}
		db := inst.db
		installTracing(db.Engine(), r.rec, spanScan)
		m0 := renderProm(db.Observability().Metrics.WritePrometheus)
		_, _, rows0 := db.ExecStats()
		c0, p0 := db.CacheStats(), db.IncrementalStats()
		settle()
		begin := time.Now()
		r.s.req, appended = r.liveCycles(db, cycles/2, float64(r.cfg.seconds)/2, true)
		r.s.wall = time.Since(begin)
		m1 := renderProm(db.Observability().Metrics.WritePrometheus)
		_, _, rows1 := db.ExecStats()
		c1, p1 := db.CacheStats(), db.IncrementalStats()
		reqs := r.spanMeans()
		r.rowsRead(rows0, rows1, len(reqs), reqs)
		r.cacheLayers(c0, c1, len(reqs))
		r.pstoreLayer(p0, p1)
		r.schedulerLayers(m0, m1)
		r.layers["wal.fsync_ms"] = histMeanMs(m0, m1, "seedb_wal_fsync_seconds", "")
		r.layers["wal.checkpoint_ms"] = histMeanMs(m0, m1, "seedb_wal_checkpoint_seconds", "")
		r.layers["wal.checkpoints"] = delta(m0, m1, "seedb_wal_checkpoints_total")
		if nb := delta(m0, m1, "seedb_wal_batches_total"); nb > 0 {
			r.layers["wal.fsyncs_per_batch"] = delta(m0, m1, "seedb_wal_syncs_total") / nb
		}
		qs := make([]string, appended)
		for i := range qs {
			qs[i] = liveQueries[i%len(liveQueries)]
		}
		r.parseLayer(qs, db)
		r.overhead(untraced, r.s.req)
	}
	r.s.cold = r.s.req // every recommend follows an append, so nothing is cached for it
	return r.checkAppendEqualsCold(inst.db, src, appended)
}

// ---------------------------------------------------------------------
// placed_reads

func (r *run) setupPlaced(src *seedb.Table) (instance, error) {
	db, err := loadInstance(src, &r.s.ingest)
	if err != nil {
		return instance{}, err
	}
	inst := instance{db: db}
	if inst.placement, err = db.PlaceMembers(context.Background(), 2, seedb.PlacementConfig{Replication: 2}); err != nil {
		return inst, err
	}
	return inst, warmMetadata(db)
}

// placedOutput is one sent placed_reads request: the coordinator's
// access history before it ran and its rendered result (nil if it
// failed).
type placedOutput struct {
	history map[string]int64
	result  []byte
}

// placedRequests runs the stream through one in-process client and
// returns the latencies and each sent request's output.
func (r *run) placedRequests(db *seedb.DB, stream []string, seconds float64, traced bool) (lat []float64, out []placedOutput) {
	stop := overrun(time.Now(), seconds)
	for _, q := range stream {
		if !time.Now().Before(stop) {
			break
		}
		ctx := context.Background()
		var id int64
		if traced {
			id = r.rec.newID()
			ctx = withParent(ctx, id)
		}
		history := accessHistory(db)
		start := time.Now()
		res, err := db.RecommendSQL(ctx, q, seedb.DefaultOptions())
		end := time.Now()
		if traced {
			r.rec.request(id, "", start, end)
		}
		if err != nil {
			r.chk.fail("placed %s: %v", q, err)
			out = append(out, placedOutput{})
			continue
		}
		lat = append(lat, ms(end.Sub(start)))
		out = append(out, placedOutput{history, resultBytes(res)})
	}
	return lat, out
}

func (r *run) placedReads() error {
	src := sourceTable(r.cfg.seed, servedRows)
	stream := requestStream(r.cfg.seed, streamPlacedRequests, scaled(r.cfg.seconds, placedPerSecond, 10))
	inst, err := setupRepeated(r, func() (instance, error) { return r.setupPlaced(src) })
	defer func() { inst.stop() }()
	if err != nil {
		return err
	}
	refDB, err := loadInstance(src, &r.s.ingest) // single-node reference
	if err != nil {
		return err
	}
	var got []placedOutput
	if !r.cfg.trace {
		settle()
		begin := time.Now()
		r.s.req, got = r.placedRequests(inst.db, stream, float64(r.cfg.seconds), false)
		r.s.wall = time.Since(begin)
		r.heap()
	} else {
		stream = stream[:len(stream)/2]
		settle()
		untraced, _ := r.placedRequests(inst.db, stream, float64(r.cfg.seconds)/2, false)
		inst.stop()
		if inst, err = r.setupPlaced(src); err != nil {
			return err
		}
		installTracing(inst.db.Engine(), r.rec, spanScatter)
		c0 := inst.placement.Counters()
		_, _, rows0 := inst.db.ExecStats()
		settle()
		begin := time.Now()
		r.s.req, got = r.placedRequests(inst.db, stream, float64(r.cfg.seconds)/2, true)
		r.s.wall = time.Since(begin)
		c1 := inst.placement.Counters()
		_, _, rows1 := inst.db.ExecStats()
		reqs := r.spanMeans()
		r.rowsRead(rows0, rows1, len(reqs), reqs)
		r.layers["cluster.range_calls"] = float64(c1.RangeCalls-c0.RangeCalls) / float64(max(len(reqs), 1))
		r.layers["cluster.retries"] = float64(c1.Retries - c0.Retries)
		r.layers["cluster.failovers"] = float64(c1.Failovers - c0.Failovers)
		r.parseLayer(stream, inst.db)
		r.overhead(untraced, r.s.req)
	}
	r.s.cold = r.s.req // no service caches: every request computes
	ref := newReference(refDB, renderResult)
	for i, q := range stream[:len(got)] {
		if got[i].result != nil { // a failed request is already counted
			ref.checkAt(&r.chk, q, got[i].history, got[i].result, "placed_reads")
		}
	}
	return nil
}

func renderResult(res *seedb.Result) ([]byte, error) { return resultBytes(res), nil }

// historyNote reports how many checked results matched the reference
// only with a correlation representative chosen by access history.
func (r *run) historyNote(ref *reference) {
	r.notes = append(r.notes, fmt.Sprintf("%s: %d checked results matched the single-node reference with a correlation representative that an instance without access history would not pick", r.cfg.workload, ref.other))
}
