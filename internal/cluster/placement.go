package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"seedb/internal/engine"
	"seedb/internal/obs"
)

// PlacementBackend is the cluster layer's distributed backend. It
// partitions the DATA: each table is cut into chunk-aligned placements
// — runs of PlacementChunks consecutive cells of the engine's absolute
// 1024-row grid — and a consistent-hash ring assigns every placement
// to Replication distinct workers. A worker holds each owned placement as
// a private fragment table (FragmentName), shipped by the coordinator
// via a snapshot/sync/ContentHash handshake, so no single worker needs
// RAM for the whole table. A fleet where every worker holds a full copy
// is the special case Replication == number of workers.
//
// Byte-identity survives the partitioning because fragments start on
// grid boundaries: the engine's scan cells then cut at the same
// absolute offsets a whole-table scan uses, partials carry no absolute
// positions and merge with exact arithmetic, and Bernoulli sampling is
// re-anchored with Query.SampleBase. The golden placement tests pin
// all of this against the committed single-node goldens.

// PlacementConfig tunes a PlacementBackend.
type PlacementConfig struct {
	// Replication is how many distinct workers hold each placement
	// (default 2; clamped to the worker count at assignment time).
	Replication int
	// PlacementChunks is the number of 1024-row grid cells per
	// placement (default 4, i.e. 4096 rows). Placement boundaries are
	// absolute — placement i covers rows [i*span, (i+1)*span) — so
	// appends never move existing boundaries.
	PlacementChunks int
	// VirtualNodes is the ring points per worker (default 64).
	VirtualNodes int
	// Retries is extra attempts per owner before moving to the next
	// owner (default 1).
	Retries int
	// Cooldown is how long a failed worker is skipped before being
	// half-opened again (default 15s).
	Cooldown time.Duration
	// DisableFailover makes a range with no reachable owner fail the
	// query instead of running on the coordinator replica.
	DisableFailover bool
	// MaxConcurrent caps placement ranges in flight per query (0 =
	// all at once).
	MaxConcurrent int
}

func (c PlacementConfig) withDefaults() PlacementConfig {
	if c.Replication <= 0 {
		c.Replication = 2
	}
	if c.PlacementChunks <= 0 {
		c.PlacementChunks = 4
	}
	if c.VirtualNodes <= 0 {
		c.VirtualNodes = defaultVnodes
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 1
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 15 * time.Second
	}
	return c
}

// FragmentName is the deterministic name of table's placement idx on a
// worker. It must stay SQL-parseable (shard predicates round-trip as
// "SELECT * FROM <name> WHERE ...") and filesystem-safe (durable
// workers snapshot fragments under this name), hence plain
// identifier characters only.
func FragmentName(table string, idx int) string {
	return table + "__p" + strconv.Itoa(idx)
}

// placementKey is the ring key for (table, placement index).
func placementKey(table string, idx int) string {
	return table + "\x00" + strconv.Itoa(idx)
}

// member is one placement worker plus its health and fragment
// accounting.
type member struct {
	w PlacementWorker

	mu          sync.Mutex
	healthy     bool
	failures    int64
	lastFailure time.Time
	execs       int64
	execNanos   int64
	// holds maps fragment name -> content hash last verified on this
	// worker. Advisory for routing (skip workers known not to hold a
	// fragment) and the diff basis for rebalancing; the per-request
	// ContentHash handshake remains the correctness check.
	holds map[string]string
}

func (m *member) markFailure(now time.Time) {
	m.mu.Lock()
	m.healthy = false
	m.failures++
	m.lastFailure = now
	m.mu.Unlock()
}

func (m *member) markSuccess(d time.Duration) {
	m.mu.Lock()
	m.healthy = true
	m.execs++
	m.execNanos += int64(d)
	m.mu.Unlock()
}

func (m *member) usable(now time.Time, cooldown time.Duration) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.healthy || now.Sub(m.lastFailure) >= cooldown
}

func (m *member) hold(frag string) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.holds[frag]
	return h, ok
}

func (m *member) setHold(frag, hash string) {
	m.mu.Lock()
	m.holds[frag] = hash
	m.mu.Unlock()
}

func (m *member) clearHold(frag string) {
	m.mu.Lock()
	delete(m.holds, frag)
	m.mu.Unlock()
}

func (m *member) holdCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.holds)
}

// PlacementBackend is a core.Backend that routes each scan range to a
// live owner of that range's placement and merges the partials. The
// coordinator keeps the authoritative full replica (it is the ingest
// entry point and the degraded path); workers hold only their owned
// fragments.
type PlacementBackend struct {
	ex  *engine.Executor
	cfg PlacementConfig

	// mu guards membership: workers, ring, epoch.
	mu      sync.RWMutex
	workers map[string]*member
	ring    *hashRing
	epoch   uint64

	// fragMu guards the fragment content-hash memo. Keys carry the
	// table instance identity and the fragment's row bounds, so a
	// wholesale table replacement (new identity) or a grown last
	// placement (new hi) miss naturally; tables are append-only, so a
	// hit can never be stale.
	fragMu     sync.Mutex
	fragHashes map[fragHashKey]string

	// ingestMu serializes appends and rebalances fleet-wide: replicas
	// applying identical deltas in identical order is what keeps
	// fragment hashes aligned, and a rebalance racing an append could
	// ship a fragment that neither pre- nor post-append state matches.
	ingestMu sync.Mutex

	scatters    atomic.Int64
	shardCalls  atomic.Int64
	retriesN    atomic.Int64
	failovers   atomic.Int64
	mismatches  atomic.Int64
	ingests     atomic.Int64
	ingestRows  atomic.Int64
	rebalances  atomic.Int64
	fragShipped atomic.Int64
	fragDropped atomic.Int64
	moveBytes   atomic.Int64

	obsM atomic.Pointer[clusterObs]
}

type fragHashKey struct {
	ident string // table instance identity (name#id)
	idx   int
	lo    int
	hi    int
}

// NewPlacement builds a placement coordinator over the executor's
// catalog. Workers join via AddWorker (or the frontend's
// /api/shard/register when the coordinator runs in placement mode).
func NewPlacement(ex *engine.Executor, cfg PlacementConfig) *PlacementBackend {
	cfg = cfg.withDefaults()
	return &PlacementBackend{
		ex:         ex,
		cfg:        cfg,
		workers:    make(map[string]*member),
		ring:       newHashRing(cfg.VirtualNodes),
		fragHashes: make(map[fragHashKey]string),
	}
}

// Config returns the backend's effective (defaulted) configuration.
func (b *PlacementBackend) Config() PlacementConfig { return b.cfg }

// span is the placement size in rows.
func (b *PlacementBackend) span() int { return b.cfg.PlacementChunks * engine.ChunkRows }

// placementCount is how many placements cover a table of rows rows.
func placementCount(rows, span int) int {
	if rows <= 0 {
		return 0
	}
	return (rows + span - 1) / span
}

// clusterObs is the backend's event-time observability state.
type clusterObs struct {
	rpcSeconds *obs.HistogramVec // per-worker range execution latency
}

// EnableMetrics registers the backend's counters with the metrics
// registry and turns on the per-worker RPC latency histogram. Safe on
// a live backend; observation-only either way.
func (b *PlacementBackend) EnableMetrics(reg *obs.Registry) {
	if reg == nil {
		b.obsM.Store(nil)
		return
	}
	reg.CounterFunc("seedb_placement_scatters_total", "Queries routed across placements.",
		func() float64 { return float64(b.scatters.Load()) })
	reg.CounterFunc("seedb_placement_range_calls_total", "Per-placement range executions attempted on workers.",
		func() float64 { return float64(b.shardCalls.Load()) })
	reg.CounterFunc("seedb_placement_retries_total", "Extra attempts after an owner failure.",
		func() float64 { return float64(b.retriesN.Load()) })
	reg.CounterFunc("seedb_placement_failovers_total", "Ranges degraded to the coordinator replica (all owners down).",
		func() float64 { return float64(b.failovers.Load()) })
	reg.CounterFunc("seedb_placement_mismatches_total", "Fragment content-hash mismatches observed.",
		func() float64 { return float64(b.mismatches.Load()) })
	reg.CounterFunc("seedb_placement_ingest_rows_total", "Rows ingested through the placement coordinator.",
		func() float64 { return float64(b.ingestRows.Load()) })
	reg.CounterFunc("seedb_placement_rebalances_total", "Rebalance passes run.",
		func() float64 { return float64(b.rebalances.Load()) })
	reg.CounterFunc("seedb_placement_fragments_shipped_total", "Fragments shipped to workers by rebalancing and ingest.",
		func() float64 { return float64(b.fragShipped.Load()) })
	reg.CounterFunc("seedb_placement_fragments_dropped_total", "Fragments dropped from workers that lost ownership.",
		func() float64 { return float64(b.fragDropped.Load()) })
	reg.CounterFunc("seedb_placement_rebalance_bytes_total", "Serialized fragment bytes moved to workers.",
		func() float64 { return float64(b.moveBytes.Load()) })
	reg.GaugeFunc("seedb_placement_workers", "Registered placement workers.",
		func() float64 { return float64(b.NumWorkers()) })
	reg.GaugeFunc("seedb_placement_ownership_skew", "Max/mean fragments held per worker (1.0 = perfectly even).",
		func() float64 {
			st := b.Counters()
			if st.MeanPerWorker == 0 {
				return 0
			}
			return float64(st.MaxPerWorker) / st.MeanPerWorker
		})
	b.obsM.Store(&clusterObs{
		rpcSeconds: reg.HistogramVec("seedb_placement_rpc_seconds",
			"Per-placement range execution latency, including retries and failover.",
			obs.DefBuckets, "worker"),
	})
}

// NumWorkers returns the registered worker count.
func (b *PlacementBackend) NumWorkers() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.workers)
}

// Epoch returns the membership epoch (bumped on every join/leave).
func (b *PlacementBackend) Epoch() uint64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.epoch
}

// Signature implements core.Backend. The epoch is folded in so
// exec-cache keys are scoped to one placement topology: results are
// byte-identical across topologies by construction, but an entry
// computed under a vanished membership must not masquerade as
// evidence about the current one.
func (b *PlacementBackend) Signature() string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return fmt.Sprintf("placed(rf=%d,chunks=%d,epoch=%d,workers=%d)",
		b.cfg.Replication, b.cfg.PlacementChunks, b.epoch, len(b.workers))
}

// AddWorker registers a worker, seeds its fragment inventory from its
// own report, and rebalances so it receives exactly the placements the
// ring now assigns it. added is false when the ID was already
// registered (the rebalance still runs — re-announcing after a
// restart re-ships anything lost). Ingest is held for the duration.
func (b *PlacementBackend) AddWorker(ctx context.Context, w PlacementWorker) (rep *RebalanceReport, added bool, err error) {
	b.ingestMu.Lock()
	defer b.ingestMu.Unlock()

	b.mu.Lock()
	m, exists := b.workers[w.ID()]
	if !exists {
		m = &member{w: w, healthy: true, holds: map[string]string{}}
		b.workers[w.ID()] = m
		b.ring.Add(w.ID())
		b.epoch++
	}
	b.mu.Unlock()

	// Seed holds from the worker's own inventory: a durable worker
	// that recovered its fragments from disk should not be re-shipped
	// bytes it already holds.
	if theirs, herr := w.TableHashes(ctx); herr == nil {
		m.mu.Lock()
		m.holds = theirs
		if m.holds == nil {
			m.holds = map[string]string{}
		}
		m.mu.Unlock()
	}

	rep, err = b.rebalanceLocked(ctx)
	return rep, !exists, err
}

// RemoveWorker deregisters a worker and rebalances its placements onto
// the remaining members (shipped from the coordinator's replica).
// removed is false when the ID was not registered.
func (b *PlacementBackend) RemoveWorker(ctx context.Context, id string) (rep *RebalanceReport, removed bool, err error) {
	b.ingestMu.Lock()
	defer b.ingestMu.Unlock()

	b.mu.Lock()
	_, removed = b.workers[id]
	if removed {
		delete(b.workers, id)
		b.ring.Remove(id)
		b.epoch++
	}
	b.mu.Unlock()
	if !removed {
		return nil, false, nil
	}
	rep, err = b.rebalanceLocked(ctx)
	return rep, true, err
}

// ownersFor returns the member slots owning (table, idx), in ring
// order, under the current membership.
func (b *PlacementBackend) ownersFor(table string, idx int) []*member {
	b.mu.RLock()
	defer b.mu.RUnlock()
	ids := b.ring.Owners(placementKey(table, idx), b.cfg.Replication)
	out := make([]*member, 0, len(ids))
	for _, id := range ids {
		if m, ok := b.workers[id]; ok {
			out = append(out, m)
		}
	}
	return out
}

// fragmentBounds returns placement idx's absolute row range clamped to
// the table's current size.
func fragmentBounds(rows, span, idx int) (lo, hi int) {
	lo = idx * span
	hi = lo + span
	if hi > rows {
		hi = rows
	}
	return lo, hi
}

// fragmentHash returns the content hash of table t's placement idx —
// the hash of ExtractRange(FragmentName(...), lo, hi) — memoized per
// (table instance, bounds). Tables are append-only, so a fragment's
// bytes are immutable once its row range is fixed; only the last
// (growing) placement ever recomputes.
func (b *PlacementBackend) fragmentHash(t *engine.Table, idx, lo, hi int) (string, error) {
	key := fragHashKey{ident: t.Identity(), idx: idx, lo: lo, hi: hi}
	b.fragMu.Lock()
	if h, ok := b.fragHashes[key]; ok {
		b.fragMu.Unlock()
		return h, nil
	}
	b.fragMu.Unlock()
	h, err := t.RangeContentHash(FragmentName(t.Name(), idx), lo, hi)
	if err != nil {
		return "", err
	}
	b.fragMu.Lock()
	b.fragHashes[key] = h
	b.fragMu.Unlock()
	return h, nil
}

// ---------------------------------------------------------------------
// Query routing

// Run implements core.Backend.
func (b *PlacementBackend) Run(ctx context.Context, q *engine.Query) (*engine.Result, error) {
	results, err := b.scatter(ctx, q, nil)
	if err != nil {
		return nil, err
	}
	res := results[0]
	if len(q.OrderBy) > 0 {
		if err := res.Sort(q.OrderBy); err != nil {
			return nil, err
		}
	}
	if q.Limit > 0 && len(res.Rows) > q.Limit {
		res.Rows = res.Rows[:q.Limit]
	}
	return res, nil
}

// RunSharedScan implements core.Backend.
func (b *PlacementBackend) RunSharedScan(ctx context.Context, q *engine.Query, gsets []engine.GroupingSet) ([]*engine.Result, error) {
	if len(gsets) == 0 {
		return nil, fmt.Errorf("cluster: RunSharedScan needs at least one grouping set")
	}
	return b.scatter(ctx, q, gsets)
}

// placementTask is one placement's slice of a query: the sub-range of
// the query's row window falling inside the placement.
type placementTask struct {
	idx          int
	subLo, subHi int // absolute rows to scan, within the placement
	lo, hi       int // the placement's full bounds (fragment extent)
}

// scatter cuts the query's row window along placement boundaries,
// routes each piece to a live owner, and merges the partials in range
// order — byte-identical to a single-node scan.
func (b *PlacementBackend) scatter(ctx context.Context, q *engine.Query, gsets []engine.GroupingSet) ([]*engine.Result, error) {
	t, err := b.ex.Catalog().Table(q.Table)
	if err != nil {
		return nil, err
	}
	rows := t.NumRows()
	lo, hi := 0, rows
	if q.RowHi > 0 {
		lo, hi = q.RowLo, q.RowHi
	}
	if hi > rows {
		hi = rows
	}

	span := b.span()
	var tasks []placementTask
	if hi > lo {
		for idx := lo / span; idx*span < hi; idx++ {
			pLo, pHi := fragmentBounds(rows, span, idx)
			sLo, sHi := pLo, pHi
			if sLo < lo {
				sLo = lo
			}
			if sHi > hi {
				sHi = hi
			}
			if sHi > sLo {
				tasks = append(tasks, placementTask{idx: idx, subLo: sLo, subHi: sHi, lo: pLo, hi: pHi})
			}
		}
	}

	if b.NumWorkers() == 0 || len(tasks) == 0 {
		// Nothing to route (no workers, or an empty window): run
		// whole-range locally, preserving exact semantics.
		if gsets == nil {
			res, err := b.ex.Run(ctx, q)
			if err != nil {
				return nil, err
			}
			return []*engine.Result{res}, nil
		}
		return b.ex.RunSharedScan(ctx, q, gsets)
	}

	b.scatters.Add(1)

	outs := make([][]*engine.Partial, len(tasks))
	errs := make([]error, len(tasks))
	sem := make(chan struct{}, maxConcurrent(b.cfg.MaxConcurrent, len(tasks)))
	var wg sync.WaitGroup
	for i, task := range tasks {
		wg.Add(1)
		go func(i int, task placementTask) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			span := obs.TraceFrom(ctx).StartSpan("placement-exec").
				SetAttr("placement", strconv.Itoa(task.idx)).
				SetAttr("rows", strconv.Itoa(task.subLo)+":"+strconv.Itoa(task.subHi))
			outs[i], errs[i] = b.execPlacement(ctx, t, q, gsets, task, len(tasks))
			span.Finish()
		}(i, task)
	}
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	merged := outs[0]
	for i := 1; i < len(outs); i++ {
		for s, p := range outs[i] {
			if err := merged[s].Merge(p); err != nil {
				return nil, err
			}
		}
	}
	results := make([]*engine.Result, len(merged))
	for s, p := range merged {
		results[s] = p.Finalize()
	}
	return results, nil
}

// maxConcurrent is how many of n ranges run at once under limit (0 =
// all of them).
func maxConcurrent(limit, n int) int {
	if limit <= 0 || limit > n {
		return n
	}
	return limit
}

// execPlacement runs one placement task on its owners in ring order,
// with per-owner retries and a degraded fallback: when every owner is
// down (or none holds the fragment), the range runs on the
// coordinator's replica.
func (b *PlacementBackend) execPlacement(ctx context.Context, t *engine.Table, q *engine.Query, gsets []engine.GroupingSet, task placementTask, nRanges int) ([]*engine.Partial, error) {
	owners := b.ownersFor(q.Table, task.idx)
	fragName := FragmentName(q.Table, task.idx)

	var lastErr error
	queryFault := false
	for _, m := range owners {
		if queryFault {
			break
		}
		if !m.usable(time.Now(), b.cfg.Cooldown) {
			lastErr = fmt.Errorf("cluster: worker %s is cooling down after failure", m.w.ID())
			continue
		}
		if _, held := m.hold(fragName); !held {
			// Known not to hold the fragment (rebalance never landed, or
			// shipped elsewhere): not a candidate, and not its fault.
			lastErr = fmt.Errorf("cluster: worker %s does not hold fragment %s", m.w.ID(), fragName)
			continue
		}
		attempts := 1 + b.cfg.Retries
		ownerFault := false
		for attempt := 0; attempt < attempts; attempt++ {
			if attempt > 0 {
				b.retriesN.Add(1)
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			b.shardCalls.Add(1)
			t0 := time.Now()
			ps, err := b.execOnOwner(ctx, m, t, q, gsets, task, fragName)
			d := time.Since(t0)
			if obsM := b.obsM.Load(); obsM != nil {
				obsM.rpcSeconds.With(m.w.ID()).Observe(d.Seconds())
			}
			if err == nil {
				m.markSuccess(d)
				return ps, nil
			}
			lastErr = err
			if ctx.Err() != nil {
				return nil, err // cancelled, not a worker fault
			}
			var qf *queryFaultError
			if errors.As(err, &qf) {
				// Deterministic in the query (unserializable predicate,
				// mutated mid-scatter): no owner can do better — run the
				// range locally without penalizing anyone.
				queryFault = true
				ownerFault = false
				break
			}
			ownerFault = true
			var mm *FingerprintMismatchError
			if errors.As(err, &mm) {
				// The worker's fragment diverged: permanent for this
				// owner until rebalanced, try the next owner.
				b.mismatches.Add(1)
				m.clearHold(fragName)
				break
			}
		}
		if ownerFault {
			m.markFailure(time.Now())
		}
	}

	if lastErr == nil {
		lastErr = fmt.Errorf("cluster: placement %s has no owners", fragName)
	}
	if b.cfg.DisableFailover && !queryFault {
		return nil, fmt.Errorf("cluster: placement %s failed for rows [%d,%d): %w", fragName, task.subLo, task.subHi, lastErr)
	}
	// Degraded path: the coordinator's full replica covers every
	// placement. Fair-share the local scan parallelism, as a mass
	// failover lands every range here concurrently.
	b.failovers.Add(1)
	sub := *q
	sub.RowLo, sub.RowHi = task.subLo, task.subHi
	sub.Parallelism = max(1, q.Parallelism/nRanges)
	sub.OrderBy, sub.Limit = nil, 0 // ordering is applied after the merge
	return b.ex.RunPartials(ctx, &sub, gsets)
}

// execOnOwner encodes the task as a fragment-local shard request and
// runs it on one owner. Row coordinates are rebased to the fragment
// (whose row 0 is absolute row task.lo) and SampleBase is advanced by
// the same offset, so the worker's scan is positionally
// indistinguishable from the same rows in a whole-table scan.
func (b *PlacementBackend) execOnOwner(ctx context.Context, m *member, t *engine.Table, q *engine.Query, gsets []engine.GroupingSet, task placementTask, fragName string) ([]*engine.Partial, error) {
	fragHash, err := b.fragmentHash(t, task.idx, task.lo, task.hi)
	if err != nil {
		return nil, &queryFaultError{err: err}
	}
	req, err := EncodeShardRequest(q, gsets, fragHash, task.subLo-task.lo, task.subHi-task.lo, q.Parallelism)
	if err != nil {
		// Not distributable (e.g. a predicate with no SQL wire form).
		return nil, &queryFaultError{err: err}
	}
	req.Table = fragName
	req.SampleBase = q.SampleBase + task.lo
	resp, err := m.w.ExecPartials(ctx, req)
	if err != nil {
		var mm *FingerprintMismatchError
		if errors.As(err, &mm) {
			// Distinguish real divergence from version skew: if the
			// coordinator's fragment hash moved (an append grew the last
			// placement mid-scatter), the worker is ahead, not wrong.
			if cur, herr := t.RangeContentHash(fragName, task.lo, min(task.hi, t.NumRows())); herr == nil && cur != fragHash {
				return nil, &queryFaultError{err: fmt.Errorf("cluster: table %q mutated mid-scatter: %w", q.Table, err)}
			}
		}
		return nil, err
	}
	want := len(gsets)
	if want == 0 {
		want = 1
	}
	if len(resp.Partials) != want {
		return nil, fmt.Errorf("cluster: worker %s returned %d partials, want %d", m.w.ID(), len(resp.Partials), want)
	}
	return resp.Partials, nil
}

// ---------------------------------------------------------------------
// Ingest: the append path in placement mode

// ShardIngestStatus reports one owner's outcome for a forwarded
// append to one fragment.
type ShardIngestStatus struct {
	ID string `json:"id"`
	OK bool   `json:"ok"`
	// Rows is the fragment's post-append row count and ContentHash its
	// post-append digest (both zero-valued on error).
	Rows        int    `json:"rows,omitempty"`
	ContentHash string `json:"contentHash,omitempty"`
	// Diverged means the owner applied the append but its fragment
	// hash no longer matches the coordinator's — permanent drift, the
	// owner is marked unhealthy.
	Diverged bool   `json:"diverged,omitempty"`
	Error    string `json:"error,omitempty"`
}

// IngestSummary is the coordinator-side outcome of a batched append.
type IngestSummary struct {
	Table       string              `json:"table"`
	Appended    int                 `json:"appended"`
	Rows        int                 `json:"rows"`
	ContentHash string              `json:"contentHash"`
	Shards      []ShardIngestStatus `json:"shards,omitempty"`
}

// Ingest applies a batched append to the coordinator's replica (the
// durability seam), then forwards exactly the delta rows to the owners
// of the placements the delta falls into — splitting the batch at
// placement boundaries — and verifies each touched fragment's
// post-append ContentHash. A placement born by this append is shipped
// whole to its owners. One batch is in flight fleet-wide at a time
// (ingestMu), so owners applying identical deltas in identical order
// necessarily agree on fragment content. Fan-out is proportional to
// Replication, not the worker count.
func (b *PlacementBackend) Ingest(ctx context.Context, table string, rows [][]any) (*IngestSummary, error) {
	b.ingestMu.Lock()
	defer b.ingestMu.Unlock()

	t, err := b.ex.Catalog().Table(table)
	if err != nil {
		return nil, err
	}
	typed, err := t.ParseRows(rows)
	if err != nil {
		return nil, err
	}
	oldRows := t.NumRows()
	total, err := b.ex.Catalog().Append(t, typed)
	if err != nil {
		return nil, err
	}
	chash, err := t.ContentHash()
	if err != nil {
		return nil, err
	}
	b.ingests.Add(1)
	b.ingestRows.Add(int64(len(rows)))
	sum := &IngestSummary{Table: table, Appended: len(rows), Rows: total, ContentHash: chash}

	span := b.span()
	for idx := oldRows / span; idx*span < total; idx++ {
		pLo, pHi := fragmentBounds(total, span, idx)
		fragName := FragmentName(table, idx)
		expected, err := b.fragmentHash(t, idx, pLo, pHi)
		if err != nil {
			return nil, err
		}
		// The batch rows landing in this placement.
		segLo, segHi := pLo-oldRows, pHi-oldRows
		if segLo < 0 {
			segLo = 0
		}
		for _, m := range b.ownersFor(table, idx) {
			st := ShardIngestStatus{ID: m.w.ID() + "/" + fragName}
			if _, ok := m.hold(fragName); ok && pLo < oldRows {
				// The owner already holds this (partial) fragment:
				// forward only the delta rows.
				req := &IngestRequest{Table: fragName, Rows: rows[segLo:segHi], Verify: true}
				resp, err := m.w.Ingest(ctx, req)
				switch {
				case err != nil:
					st.Error = err.Error()
					m.markFailure(time.Now())
					m.clearHold(fragName)
				case resp.ContentHash != expected:
					st.Rows, st.ContentHash = resp.Rows, resp.ContentHash
					st.Diverged = true
					st.Error = fmt.Sprintf("fragment diverged after append (want %s, got %s)", expected, resp.ContentHash)
					b.mismatches.Add(1)
					m.markFailure(time.Now())
					m.clearHold(fragName)
				default:
					st.OK = true
					st.Rows, st.ContentHash = resp.Rows, resp.ContentHash
					m.setHold(fragName, expected)
				}
			} else {
				// New placement (or the owner missed it): ship whole.
				if _, err := b.shipFragment(ctx, m, t, idx, pLo, pHi, expected); err != nil {
					st.Error = err.Error()
					m.markFailure(time.Now())
				} else {
					st.OK = true
					st.Rows, st.ContentHash = pHi-pLo, expected
				}
			}
			sum.Shards = append(sum.Shards, st)
		}
	}
	return sum, nil
}

// ---------------------------------------------------------------------
// Rebalancing

// RebalanceReport describes one rebalance pass.
type RebalanceReport struct {
	Epoch uint64 `json:"epoch"`
	// Shipped and Dropped count fragment movements this pass;
	// BytesMoved is the serialized size of everything shipped.
	Shipped    int   `json:"shipped"`
	Dropped    int   `json:"dropped"`
	BytesMoved int64 `json:"bytesMoved"`
	// PerWorker is each worker's fragment count after the pass.
	PerWorker map[string]int `json:"perWorker"`
	// Errors lists workers that could not be brought in line; the map
	// converges on a later pass once they are reachable (or removed).
	Errors []string `json:"errors,omitempty"`
}

// Rebalance diffs every worker's fragment inventory against the
// ring's current assignment and reconciles: ship owned-but-missing
// (or diverged) fragments from the coordinator's replica, drop
// no-longer-owned ones. Ingest is held for the duration, so the
// shipped bytes are a consistent cut of every table.
func (b *PlacementBackend) Rebalance(ctx context.Context) (*RebalanceReport, error) {
	b.ingestMu.Lock()
	defer b.ingestMu.Unlock()
	return b.rebalanceLocked(ctx)
}

func (b *PlacementBackend) rebalanceLocked(ctx context.Context) (*RebalanceReport, error) {
	b.rebalances.Add(1)
	rep := &RebalanceReport{Epoch: b.Epoch(), PerWorker: map[string]int{}}

	b.mu.RLock()
	members := make(map[string]*member, len(b.workers))
	for id, m := range b.workers {
		members[id] = m
	}
	b.mu.RUnlock()

	span := b.span()
	for _, table := range b.ex.Catalog().TableNames() {
		t, err := b.ex.Catalog().Table(table)
		if err != nil {
			continue // dropped between listing and lookup
		}
		rows := t.NumRows()
		n := placementCount(rows, span)
		// wanted[worker id] per placement, from the ring.
		for idx := 0; idx < n; idx++ {
			pLo, pHi := fragmentBounds(rows, span, idx)
			fragName := FragmentName(table, idx)
			owners := map[string]bool{}
			for _, m := range b.ownersFor(table, idx) {
				owners[m.w.ID()] = true
			}
			var expected string
			for id, m := range members {
				has, held := m.hold(fragName)
				switch {
				case owners[id]:
					if expected == "" {
						if expected, err = b.fragmentHash(t, idx, pLo, pHi); err != nil {
							return nil, err
						}
					}
					if held && has == expected {
						continue
					}
					nbytes, err := b.shipFragment(ctx, m, t, idx, pLo, pHi, expected)
					if err != nil {
						rep.Errors = append(rep.Errors, fmt.Sprintf("%s %s: %v", id, fragName, err))
						m.markFailure(time.Now())
						continue
					}
					rep.Shipped++
					rep.BytesMoved += int64(nbytes)
				case held:
					if err := m.w.DropTable(ctx, fragName); err != nil {
						rep.Errors = append(rep.Errors, fmt.Sprintf("%s drop %s: %v", id, fragName, err))
						m.markFailure(time.Now())
						continue
					}
					m.clearHold(fragName)
					b.fragDropped.Add(1)
					rep.Dropped++
				}
			}
		}
	}
	for id, m := range members {
		rep.PerWorker[id] = m.holdCount()
	}
	return rep, nil
}

// shipFragment extracts rows [lo,hi) of t, serializes them as the
// fragment table, pushes the snapshot to the worker, and verifies the
// ContentHash handshake. Returns the snapshot's size in bytes.
func (b *PlacementBackend) shipFragment(ctx context.Context, m *member, t *engine.Table, idx, lo, hi int, expected string) (int, error) {
	fragName := FragmentName(t.Name(), idx)
	frag, err := t.ExtractRange(fragName, lo, hi)
	if err != nil {
		return 0, err
	}
	var buf bytes.Buffer
	if err := engine.WriteTableSnapshot(&buf, frag); err != nil {
		return 0, err
	}
	resp, err := m.w.SyncTable(ctx, fragName, buf.Bytes())
	if err != nil {
		return 0, err
	}
	if resp.ContentHash != expected {
		return 0, &FingerprintMismatchError{Shard: m.w.ID(), Table: fragName, Want: expected, Got: resp.ContentHash}
	}
	m.setHold(fragName, expected)
	b.fragShipped.Add(1)
	b.moveBytes.Add(int64(buf.Len()))
	return buf.Len(), nil
}

// ---------------------------------------------------------------------
// Introspection

// ShardStatus is one worker's health and accounting snapshot.
type ShardStatus struct {
	ID          string    `json:"id"`
	Healthy     bool      `json:"healthy"`
	Failures    int64     `json:"failures"`
	LastFailure time.Time `json:"lastFailure,omitzero"`
	Execs       int64     `json:"execs"`
	AvgMillis   float64   `json:"avgMillis"`
}

// PlacementWorkerStatus is one worker's health snapshot plus its
// fragment count.
type PlacementWorkerStatus struct {
	ShardStatus
	Fragments int `json:"fragments"`
}

// Status snapshots every worker, sorted by ID.
func (b *PlacementBackend) Status() []PlacementWorkerStatus {
	b.mu.RLock()
	members := make([]*member, 0, len(b.workers))
	for _, m := range b.workers {
		members = append(members, m)
	}
	b.mu.RUnlock()
	out := make([]PlacementWorkerStatus, 0, len(members))
	for _, m := range members {
		m.mu.Lock()
		st := PlacementWorkerStatus{
			ShardStatus: ShardStatus{
				ID:          m.w.ID(),
				Healthy:     m.healthy,
				Failures:    m.failures,
				LastFailure: m.lastFailure,
				Execs:       m.execs,
			},
			Fragments: len(m.holds),
		}
		if m.execs > 0 {
			st.AvgMillis = float64(m.execNanos) / float64(m.execs) / 1e6
		}
		m.mu.Unlock()
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// PlacementStats is the backend's cumulative counters plus the
// current ownership shape.
type PlacementStats struct {
	Replication      int     `json:"replication"`
	PlacementChunks  int     `json:"placementChunks"`
	Epoch            uint64  `json:"epoch"`
	Workers          int     `json:"workers"`
	Placements       int     `json:"placements"`
	MaxPerWorker     int     `json:"maxPerWorker"`
	MeanPerWorker    float64 `json:"meanPerWorker"`
	Scatters         int64   `json:"scatters"`
	RangeCalls       int64   `json:"rangeCalls"`
	Retries          int64   `json:"retries"`
	Failovers        int64   `json:"failovers"`
	Mismatches       int64   `json:"mismatches"`
	Ingests          int64   `json:"ingests"`
	IngestRows       int64   `json:"ingestRows"`
	Rebalances       int64   `json:"rebalances"`
	FragmentsShipped int64   `json:"fragmentsShipped"`
	FragmentsDropped int64   `json:"fragmentsDropped"`
	RebalanceBytes   int64   `json:"rebalanceBytes"`
}

// Counters snapshots the backend counters. Placements is the total
// fragment count across tables at the current table sizes;
// Max/MeanPerWorker describe ownership skew over held fragments.
func (b *PlacementBackend) Counters() PlacementStats {
	st := PlacementStats{
		Replication:      b.cfg.Replication,
		PlacementChunks:  b.cfg.PlacementChunks,
		Epoch:            b.Epoch(),
		Workers:          b.NumWorkers(),
		Scatters:         b.scatters.Load(),
		RangeCalls:       b.shardCalls.Load(),
		Retries:          b.retriesN.Load(),
		Failovers:        b.failovers.Load(),
		Mismatches:       b.mismatches.Load(),
		Ingests:          b.ingests.Load(),
		IngestRows:       b.ingestRows.Load(),
		Rebalances:       b.rebalances.Load(),
		FragmentsShipped: b.fragShipped.Load(),
		FragmentsDropped: b.fragDropped.Load(),
		RebalanceBytes:   b.moveBytes.Load(),
	}
	span := b.span()
	for _, name := range b.ex.Catalog().TableNames() {
		if t, err := b.ex.Catalog().Table(name); err == nil {
			st.Placements += placementCount(t.NumRows(), span)
		}
	}
	var total, maxN int
	for _, ws := range b.Status() {
		total += ws.Fragments
		if ws.Fragments > maxN {
			maxN = ws.Fragments
		}
	}
	st.MaxPerWorker = maxN
	if st.Workers > 0 {
		st.MeanPerWorker = float64(total) / float64(st.Workers)
	}
	return st
}

// PlacementOwner is one owner's view of a placement in a Dump.
type PlacementOwner struct {
	Worker string `json:"worker"`
	// Held reports whether the worker's verified inventory carries the
	// fragment at the expected hash.
	Held bool `json:"held"`
}

// PlacementInfo is one placement in a Dump.
type PlacementInfo struct {
	Index       int              `json:"index"`
	RowLo       int              `json:"rowLo"`
	RowHi       int              `json:"rowHi"`
	Fragment    string           `json:"fragment"`
	ContentHash string           `json:"contentHash"`
	Owners      []PlacementOwner `json:"owners"`
}

// TablePlacements is one table's placement map in a Dump.
type TablePlacements struct {
	Table      string          `json:"table"`
	Rows       int             `json:"rows"`
	Placements []PlacementInfo `json:"placements"`
}

// PlacementDump is the full placement map (the /api/placement body).
type PlacementDump struct {
	Replication     int               `json:"replication"`
	PlacementChunks int               `json:"placementChunks"`
	Epoch           uint64            `json:"epoch"`
	Workers         []string          `json:"workers"`
	Tables          []TablePlacements `json:"tables"`
}

// Dump snapshots the placement map: every table's placements, each
// with its expected content hash, assigned owners, and whether each
// owner verifiably holds it.
func (b *PlacementBackend) Dump() (*PlacementDump, error) {
	b.mu.RLock()
	workers := b.ring.Members()
	epoch := b.epoch
	b.mu.RUnlock()
	d := &PlacementDump{
		Replication:     b.cfg.Replication,
		PlacementChunks: b.cfg.PlacementChunks,
		Epoch:           epoch,
		Workers:         workers,
	}
	span := b.span()
	for _, name := range b.ex.Catalog().TableNames() {
		t, err := b.ex.Catalog().Table(name)
		if err != nil {
			continue
		}
		rows := t.NumRows()
		tp := TablePlacements{Table: name, Rows: rows}
		for idx := 0; idx < placementCount(rows, span); idx++ {
			lo, hi := fragmentBounds(rows, span, idx)
			fragName := FragmentName(name, idx)
			hash, err := b.fragmentHash(t, idx, lo, hi)
			if err != nil {
				return nil, err
			}
			pi := PlacementInfo{Index: idx, RowLo: lo, RowHi: hi, Fragment: fragName, ContentHash: hash}
			for _, m := range b.ownersFor(name, idx) {
				held, ok := m.hold(fragName)
				pi.Owners = append(pi.Owners, PlacementOwner{Worker: m.w.ID(), Held: ok && held == hash})
			}
			tp.Placements = append(tp.Placements, pi)
		}
		d.Tables = append(d.Tables, tp)
	}
	return d, nil
}

// HealthCheck probes every worker once and updates health state.
func (b *PlacementBackend) HealthCheck(ctx context.Context) []PlacementWorkerStatus {
	b.mu.RLock()
	members := make([]*member, 0, len(b.workers))
	for _, m := range b.workers {
		members = append(members, m)
	}
	b.mu.RUnlock()
	var wg sync.WaitGroup
	for _, m := range members {
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			if err := m.w.Health(ctx); err != nil {
				m.markFailure(time.Now())
			} else {
				m.mu.Lock()
				m.healthy = true
				m.mu.Unlock()
			}
		}(m)
	}
	wg.Wait()
	return b.Status()
}
