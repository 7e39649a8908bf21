package engine

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// OrderKey is one ORDER BY term.
type OrderKey struct {
	Column string
	Desc   bool
}

// Query is a physical aggregation query: scan Table, keep rows passing
// the Bernoulli sample and the WHERE predicate, group by the GroupBy
// attributes (composite key), and compute the aggregates. It is the
// shape of every query SeeDB's optimizer emits.
type Query struct {
	Table string
	// Where filters rows before grouping; nil means all rows.
	Where Predicate
	// SampleFraction in (0,1) applies Bernoulli sampling before the
	// WHERE clause; values outside the range disable sampling.
	SampleFraction float64
	// SampleSeed makes the sample deterministic.
	SampleSeed uint64
	// SampleBase is the absolute row index this table's row 0 maps to.
	// Single-node tables leave it 0; a cluster worker scanning a
	// placement fragment sets it to the fragment's first absolute row so
	// the Bernoulli sample picks exactly the rows a single-node scan of
	// the full table would pick in that range.
	SampleBase int
	// GroupBy lists grouping attributes; empty means one global group.
	GroupBy []string
	// Aggs lists the aggregate outputs; must be non-empty.
	Aggs []AggSpec
	// OrderBy optionally orders the result rows.
	OrderBy []OrderKey
	// Limit truncates the result when > 0.
	Limit int
	// Parallelism partitions the scan across workers when > 1.
	Parallelism int
	// RowLo/RowHi restrict the scan to rows [RowLo, RowHi) when RowHi > 0.
	// SeeDB's phased execution uses ranges to stream the table in
	// chunks, the way a wrapper would page through ctid ranges.
	RowLo int
	RowHi int
	// BinWidths optionally bins numeric or timestamp grouping columns:
	// a column listed here groups by floor(value/width)·width and the
	// result key is the bin's lower bound. This is the "binning"
	// operation of the paper's §1 analysis workflow, applied to
	// continuous dimensions.
	BinWidths map[string]float64
}

// ExecStats exposes executor-level counters used by the experiments to
// show *why* an optimization wins (fewer table scans, fewer rows read).
type ExecStats struct {
	Queries    atomic.Int64 // logical queries executed
	TableScans atomic.Int64 // physical scans performed (grouping sets share one)
	RowsRead   atomic.Int64 // rows visited across all scans
}

// Snapshot returns the current counter values.
func (s *ExecStats) Snapshot() (queries, scans, rows int64) {
	return s.Queries.Load(), s.TableScans.Load(), s.RowsRead.Load()
}

// Reset zeroes the counters.
func (s *ExecStats) Reset() {
	s.Queries.Store(0)
	s.TableScans.Store(0)
	s.RowsRead.Store(0)
}

// Executor runs queries against tables in a Catalog, recording column
// access patterns as it goes (the raw data behind SeeDB's
// access-frequency pruning).
type Executor struct {
	cat   *Catalog
	stats ExecStats

	// pstore, when set, enables incremental execution: scans merge
	// cached per-chunk partials and only visit missing chunks (see
	// PartialStore). Atomic so it can be installed on a live executor.
	pstore atomic.Pointer[PartialStore]

	// refScan routes aggregation scans through the retained
	// row-at-a-time reference implementation instead of the compiled
	// chunk kernels. The two paths are byte-identical by construction;
	// the reference exists for differential tests and for measuring the
	// kernel speedup (see SetReferenceScan).
	refScan atomic.Bool
}

// NewExecutor returns an executor over the catalog.
func NewExecutor(cat *Catalog) *Executor { return &Executor{cat: cat} }

// Catalog returns the backing catalog.
func (e *Executor) Catalog() *Catalog { return e.cat }

// Stats returns the executor's counters.
func (e *Executor) Stats() *ExecStats { return &e.stats }

// SetPartialStore installs (or, with nil, removes) the chunk-partial
// store, switching aggregation queries to the incremental execution
// path. Safe on a live executor; in-flight queries keep the store they
// started with.
func (e *Executor) SetPartialStore(s *PartialStore) { e.pstore.Store(s) }

// PartialStore returns the installed chunk-partial store, if any.
func (e *Executor) PartialStore() *PartialStore { return e.pstore.Load() }

// SetReferenceScan switches aggregation scans to the row-at-a-time
// reference implementation (true) or the default chunk-kernel pipeline
// (false). Reference mode reproduces the pre-kernel engine end to end:
// rows flow through bound closures one at a time AND the dense
// group layout is restricted to its original eligibility (a single
// unbinned string attribute), with every other shape taking the generic
// hash path. Both modes produce byte-identical results — group state is
// a pure function of (rows, chunk tags) and results are key-sorted — so
// differential tests double as cross-validation of the generalized
// dense layout against the hash path, and the kernel benchmark's
// baseline is an honest pre-rewrite measurement. Safe on a live
// executor.
func (e *Executor) SetReferenceScan(on bool) { e.refScan.Store(on) }

// GroupingSet pairs one grouping-attribute list with the aggregates to
// compute for it. RunSharedScan evaluates many GroupingSets in a
// single pass over the table — the engine primitive behind SeeDB's
// "combine multiple group-bys" optimization: each view family keeps
// its own (smaller) aggregate list while sharing the scan.
type GroupingSet struct {
	By   []string
	Aggs []AggSpec
	// BinWidths bins numeric/timestamp grouping columns (see
	// Query.BinWidths).
	BinWidths map[string]float64
}

// Run executes a single aggregation query.
func (e *Executor) Run(ctx context.Context, q *Query) (*Result, error) {
	results, err := e.runSets(ctx, q, []GroupingSet{{By: q.GroupBy, Aggs: q.Aggs, BinWidths: q.BinWidths}})
	if err != nil {
		return nil, err
	}
	res := results[0]
	if len(q.OrderBy) > 0 {
		if err := res.sortBy(q.OrderBy); err != nil {
			return nil, err
		}
	}
	if q.Limit > 0 && len(res.Rows) > q.Limit {
		res.Rows = res.Rows[:q.Limit]
	}
	return res, nil
}

// RunGroupingSets executes one scan that simultaneously groups by every
// attribute list in sets, returning one result per set (in order), all
// computing the query's aggregate list — SQL GROUPING SETS semantics.
func (e *Executor) RunGroupingSets(ctx context.Context, q *Query, sets [][]string) ([]*Result, error) {
	if len(sets) == 0 {
		return nil, fmt.Errorf("engine: RunGroupingSets needs at least one set")
	}
	gsets := make([]GroupingSet, len(sets))
	for i, by := range sets {
		gsets[i] = GroupingSet{By: by, Aggs: q.Aggs, BinWidths: q.BinWidths}
	}
	return e.runSets(ctx, q, gsets)
}

// RunSharedScan executes one scan that feeds every grouping set, each
// with its own aggregate list. q.GroupBy and q.Aggs are ignored; the
// rest of the query (table, where, sampling, row range, parallelism)
// applies to the shared scan.
func (e *Executor) RunSharedScan(ctx context.Context, q *Query, gsets []GroupingSet) ([]*Result, error) {
	if len(gsets) == 0 {
		return nil, fmt.Errorf("engine: RunSharedScan needs at least one grouping set")
	}
	return e.runSets(ctx, q, gsets)
}

// ---------------------------------------------------------------------
// Deterministic chunk grid
//
// Every table's row space is divided into fixed-size cells of ChunkRows
// rows (boundary i at i*ChunkRows). Scans fold float sums per grid cell
// and combine the cell partials exactly (see exactFloat), so aggregate
// results depend only on the table contents and the query — never on
// scan parallelism or on how a cluster backend splits the row range —
// provided every partition boundary lies on the grid. splitAligned and
// placement fragments only ever produce grid-aligned boundaries; arbitrary
// RowLo/RowHi ranges (phased execution) remain deterministic per range
// because cell partials cut at a range edge are still a pure function
// of (table, range).
//
// The grid is ABSOLUTE: boundaries are multiples of ChunkRows, not
// fractions of the current row count. That makes it append-stable —
// appending rows never moves an existing boundary, so a cell that was
// fully populated ("sealed") before an append holds exactly the same
// rows after it. The chunk-partial store (pstore.go) relies on this:
// per-cell partials cached before an append remain byte-valid, and a
// query after the append only has to scan the cells the append touched.

// ChunkRows is the fixed number of rows per grid cell. 1024 keeps the
// exact-fold overhead negligible while giving even small tables enough
// boundaries for cluster backends to split, and bounds the incremental
// re-scan after an append to (delta + ChunkRows) rows.
const ChunkRows = 1024

// chunkStart returns the first row of grid cell c.
func chunkStart(c int) int { return c * ChunkRows }

// chunkOf returns the grid cell containing row r.
func chunkOf(r int) int {
	if r < 0 {
		return 0
	}
	return r / ChunkRows
}

// alignToGrid returns the smallest grid boundary >= r.
func alignToGrid(r int) int {
	if r <= 0 {
		return 0
	}
	return ((r + ChunkRows - 1) / ChunkRows) * ChunkRows
}

// splitAligned cuts [lo,hi) into at most parts contiguous sub-ranges
// whose interior boundaries all lie on the chunk grid. Empty sub-ranges
// are dropped, so fewer than parts ranges may come back.
func splitAligned(lo, hi, parts int) [][2]int {
	if parts < 1 {
		parts = 1
	}
	n := hi - lo
	var out [][2]int
	prev := lo
	for k := 1; k < parts; k++ {
		b := alignToGrid(lo + k*n/parts)
		if b <= prev {
			continue
		}
		if b >= hi {
			break
		}
		out = append(out, [2]int{prev, b})
		prev = b
	}
	if hi > prev {
		out = append(out, [2]int{prev, hi})
	}
	return out
}

// Sort orders the result rows by the given keys (exported for the
// cluster coordinator, which applies ORDER BY after merging placements).
func (r *Result) Sort(keys []OrderKey) error { return r.sortBy(keys) }

// runSets is the shared implementation: one scan, many groupers. With
// a partial store installed, the scan is served incrementally from
// cached chunk partials instead (identical bytes, see
// runPartialsChunked).
func (e *Executor) runSets(ctx context.Context, q *Query, gsets []GroupingSet) ([]*Result, error) {
	if ps, err := e.runPartialsChunked(ctx, q, gsets); err == nil {
		results := make([]*Result, len(ps))
		for i, p := range ps {
			results[i] = p.Finalize()
		}
		return results, nil
	} else if !errors.Is(err, errChunkPathNA) {
		return nil, err
	}
	groupers, err := e.runGroupers(ctx, q, gsets, true)
	if err != nil {
		return nil, err
	}
	return finalizeGroupers(groupers)
}

// runGroupers executes the scan and returns the merged groupers, for
// callers that finalize (Run and friends) or export partition-mergeable
// partials (RunPartials). resultsOnly must be false when partials will
// be exported — it licenses slim accumulator updates that skip state
// finalization never reads (see bindAggs).
func (e *Executor) runGroupers(ctx context.Context, q *Query, gsets []GroupingSet, resultsOnly bool) ([]*grouper, error) {
	for _, gs := range gsets {
		if len(gs.Aggs) == 0 {
			return nil, fmt.Errorf("engine: query on %q has a grouping set with no aggregates", q.Table)
		}
	}
	t, err := e.cat.Table(q.Table)
	if err != nil {
		return nil, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()

	// Record the access pattern: every column this query touches.
	allAggs := e.recordQueryAccess(t, q, gsets)

	var where BoundPredicate
	if q.Where != nil {
		if where, err = q.Where.Bind(t); err != nil {
			return nil, err
		}
	}
	fs, err := buildFilterSet(t, allAggs)
	if err != nil {
		return nil, err
	}
	smp := newSampler(q.SampleFraction, q.SampleSeed, q.SampleBase)

	lo, hi := 0, t.rows
	if q.RowHi > 0 {
		if q.RowLo < 0 || q.RowLo > q.RowHi || q.RowHi > t.rows {
			return nil, fmt.Errorf("engine: row range [%d,%d) invalid for table %q with %d rows",
				q.RowLo, q.RowHi, q.Table, t.rows)
		}
		lo, hi = q.RowLo, q.RowHi
	}
	n := hi - lo
	workers := q.Parallelism
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = max(1, n)
	}

	// Plans (bound aggregates, key encoders, fast group layout) are
	// built ONCE per query and shared read-only; groupers instantiated
	// from them are cheap per-worker arenas.
	ref := e.refScan.Load()
	plans, err := buildGrouperPlans(t, gsets, fs, ref, resultsOnly)
	if err != nil {
		return nil, err
	}

	e.stats.Queries.Add(1)
	e.stats.TableScans.Add(1)
	e.stats.RowsRead.Add(int64(n))

	if workers == 1 {
		groupers := newGroupers(plans)
		if err := e.scanRange(ctx, t, lo, hi, smp, q.Where, where, fs, groupers, ref); err != nil {
			return nil, err
		}
		return groupers, nil
	}

	// Parallel path: each worker owns private groupers over a
	// grid-aligned row range; partials are merged pairwise at the end.
	// Grid alignment plus exact chunk folding makes the merged state —
	// and therefore the result bytes — independent of the worker count.
	ranges := splitAligned(lo, hi, workers)
	partials := make([][]*grouper, len(ranges))
	errs := make([]error, len(ranges))
	var wg sync.WaitGroup
	for w, rng := range ranges {
		partials[w] = newGroupers(plans)
		wg.Add(1)
		go func(w, wlo, whi int) {
			defer wg.Done()
			// Bound filter closures and compiled kernels only read
			// column data; each worker compiles its own scanKernels so
			// chunk scratch buffers are never shared.
			errs[w] = e.scanRange(ctx, t, wlo, whi, smp, q.Where, where, fs, partials[w], ref)
		}(w, rng[0], rng[1])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	merged := partials[0]
	for w := 1; w < len(ranges); w++ {
		for s := range merged {
			merged[s].mergeFrom(partials[w][s])
		}
	}
	return merged, nil
}

// scanRange drives one partition through either the compiled chunk
// kernels (default) or the row-at-a-time reference scan.
func (e *Executor) scanRange(ctx context.Context, t *Table, lo, hi int, smp *sampler,
	wherePred Predicate, whereBound BoundPredicate, fs *filterSet, groupers []*grouper, ref bool) error {
	if ref {
		return scanPartitionRows(ctx, lo, hi, smp, whereBound, fs, groupers)
	}
	sk, err := compileScan(t, wherePred, fs, smp)
	if err != nil {
		return err
	}
	return sk.scanPartition(ctx, lo, hi, groupers)
}

// scanPartitionRows is the retained row-at-a-time reference scan: it
// drives rows [lo,hi) through sampling, filtering, and every grouper
// one row at a time. Per-aggregate filters are deduplicated in fs and
// evaluated once per row, no matter how many aggregates or grouping
// sets share them. The current (absolute) grid cell is threaded into
// every accumulator update so float sums fold per cell. The compiled
// kernel pipeline (scanKernels.scanPartition) replays exactly this
// row order and chunk tagging, which is what the differential tests
// pin; keep the two in lockstep when changing either.
func scanPartitionRows(ctx context.Context, lo, hi int, smp *sampler, where BoundPredicate, fs *filterSet, groupers []*grouper) error {
	const cancelCheckMask = 0x3FFF
	single := len(groupers) == 1
	fvals := make([]bool, len(fs.bound))
	cell := chunkOf(lo)
	next := min(hi, chunkStart(cell+1))
	chunk := int32(cell + 1) // 1-based: 0 marks "nothing pending"
	for row := lo; row < hi; row++ {
		if row >= next {
			cell = chunkOf(row)
			chunk = int32(cell + 1)
			next = min(hi, chunkStart(cell+1))
		}
		if row&cancelCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("engine: scan cancelled: %w", err)
			}
		}
		if smp != nil && !smp.keep(row) {
			continue
		}
		if where != nil && !where(row) {
			continue
		}
		for i, f := range fs.bound {
			fvals[i] = f(row)
		}
		if single {
			groupers[0].process(row, chunk, fvals)
			continue
		}
		for _, g := range groupers {
			g.process(row, chunk, fvals)
		}
	}
	return nil
}

// filterSet deduplicates the per-aggregate filter predicates of a
// query (by interface identity) and binds each once.
type filterSet struct {
	preds []Predicate
	bound []BoundPredicate
	index map[Predicate]int
}

func buildFilterSet(t *Table, aggs []AggSpec) (*filterSet, error) {
	fs := &filterSet{index: map[Predicate]int{}}
	for _, a := range aggs {
		if a.Filter == nil {
			continue
		}
		if _, ok := fs.index[a.Filter]; ok {
			continue
		}
		b, err := a.Filter.Bind(t)
		if err != nil {
			return nil, err
		}
		fs.index[a.Filter] = len(fs.bound)
		fs.preds = append(fs.preds, a.Filter)
		fs.bound = append(fs.bound, b)
	}
	return fs, nil
}

// buildGrouperPlans binds one plan per grouping set. legacy restricts
// the dense layout to its pre-kernel eligibility (see SetReferenceScan);
// resultsOnly marks plans whose groupers only ever finalize results
// (never export partials), enabling slim accumulator updates.
func buildGrouperPlans(t *Table, gsets []GroupingSet, fs *filterSet, legacy, resultsOnly bool) ([]*grouperPlan, error) {
	out := make([]*grouperPlan, len(gsets))
	for i, gs := range gsets {
		p, err := newGrouperPlan(t, gs, fs, legacy, resultsOnly)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// newGroupers instantiates one grouper arena per plan.
func newGroupers(plans []*grouperPlan) []*grouper {
	out := make([]*grouper, len(plans))
	for i, p := range plans {
		out[i] = p.newGrouper()
	}
	return out
}

func finalizeGroupers(groupers []*grouper) ([]*Result, error) {
	results := make([]*Result, len(groupers))
	for i, g := range groupers {
		results[i] = g.result()
	}
	return results, nil
}

// ---------------------------------------------------------------------
// grouper plan: per-query bound state for one grouping-attribute list

// measKind classifies how the kernel path reads an aggregate's measure.
type measKind uint8

const (
	measCountStar measKind = iota // COUNT(*): no column read
	measFloat                     // FLOAT measure, direct slice access
	measInt                       // INT measure, converted per row
	measOther                     // non-numeric measure: presence only (COUNT)
)

// boundAgg is an AggSpec bound to a table: measure access plus the
// index of its (shared, pre-evaluated) filter in the query filterSet.
type boundAgg struct {
	spec      AggSpec
	get       func(row int) (float64, bool) // reference path; nil for COUNT(*)
	filterIdx int                           // -1 when unfiltered
	countOnly bool
	slim      bool // result-only COUNT/SUM/AVG: skip sumsq/min/max updates

	// Kernel path: direct column access, resolved once at bind time.
	kind  measKind
	f64   []float64
	i64   []int64
	nulls *nullBitmap // nil when the measure column has no NULLs
	col   Column      // measOther only
}

func bindAggs(t *Table, aggs []AggSpec, fs *filterSet, resultsOnly bool) ([]boundAgg, error) {
	out := make([]boundAgg, len(aggs))
	for i, a := range aggs {
		ba := boundAgg{spec: a, filterIdx: -1}
		// Plans that never export partials can skip the accumulator
		// fields these aggregates' finalization does not read.
		ba.slim = resultsOnly &&
			(a.Func == AggCount || a.Func == AggSum || a.Func == AggAvg)
		if a.Column == "" {
			if a.Func != AggCount {
				return nil, fmt.Errorf("engine: %s requires a column", a.Func)
			}
			ba.countOnly = true
			ba.kind = measCountStar
		} else {
			col, err := t.Column(a.Column)
			if err != nil {
				return nil, err
			}
			if a.Func != AggCount && !col.Type().Numeric() {
				return nil, fmt.Errorf("engine: %s(%s): column is %v, need numeric", a.Func, a.Column, col.Type())
			}
			ba.get = measureGetter(col)
			switch c := col.(type) {
			case *FloatColumn:
				ba.kind, ba.f64, ba.nulls = measFloat, c.Floats(), activeNulls(&c.nulls)
			case *IntColumn:
				ba.kind, ba.i64, ba.nulls = measInt, c.Ints(), activeNulls(&c.nulls)
			default:
				ba.kind, ba.col = measOther, col
			}
		}
		if a.Filter != nil {
			idx, ok := fs.index[a.Filter]
			if !ok {
				return nil, fmt.Errorf("engine: internal: filter for %s not registered", a.Name())
			}
			ba.filterIdx = idx
		}
		out[i] = ba
	}
	return out, nil
}

// measureGetter returns a fast float accessor for the column. For
// non-numeric columns it returns a presence getter (sufficient for
// COUNT).
func measureGetter(col Column) func(row int) (float64, bool) {
	switch c := col.(type) {
	case *FloatColumn:
		vals := c.Floats()
		if !c.nulls.anySet() {
			return func(row int) (float64, bool) { return vals[row], true }
		}
		return func(row int) (float64, bool) {
			if c.nulls.get(row) {
				return 0, false
			}
			return vals[row], true
		}
	case *IntColumn:
		vals := c.Ints()
		if !c.nulls.anySet() {
			return func(row int) (float64, bool) { return float64(vals[row]), true }
		}
		return func(row int) (float64, bool) {
			if c.nulls.get(row) {
				return 0, false
			}
			return float64(vals[row]), true
		}
	default:
		return func(row int) (float64, bool) {
			if col.IsNull(row) {
				return 0, false
			}
			return 0, true
		}
	}
}

// fastKey maps one grouping column's rows to small dense integer codes
// in [0, card]: code card is the NULL group, codes below it enumerate
// the non-null key space (dictionary codes for strings, bin indices
// offset by qmin for binned or small-range int/time columns).
type fastKey struct {
	typ   Type
	codes []int32  // string path: dictionary codes, -1 = NULL
	dict  []string // string path: code -> value
	vals  []int64  // int/time path: raw values
	nulls *nullBitmap
	width int64   // int/time path: bin width (1 = unbinned)
	qmin  int64   // int/time path: lowest occupied bin index
	base  int64   // qmin*width: lowest bin's floor, so v-base >= 0
	inv   float64 // 1/width when the reciprocal trick applies, else 0
	card  int     // non-null code count; slot card = NULL
}

// binCode maps a non-null value to its dense bin code with a reciprocal
// multiply instead of a hardware divide (~10x cheaper per row). u =
// v-base is non-negative, so the float estimate of u/width truncates to
// floor and is off by at most one; the integer remainder check makes it
// exact. Only set up when width < 2^40 (see int64FastKey), which keeps
// u < 2^16*width small enough that the estimate's error stays below 1.
func (k *fastKey) binCode(v int64) int32 {
	u := v - k.base
	q := int64(float64(u) * k.inv)
	r := u - q*k.width
	if r < 0 {
		q--
	} else if r >= k.width {
		q++
	}
	return int32(q)
}

// codeOf maps a row to its dense code (reference path; the kernel path
// uses fillSlots).
func (k *fastKey) codeOf(row int) int {
	if k.codes != nil {
		c := k.codes[row]
		if c < 0 {
			return k.card
		}
		return int(c)
	}
	if k.nulls != nil && k.nulls.get(row) {
		return k.card
	}
	return int(floorDiv(k.vals[row], k.width) - k.qmin)
}

// valueOf materializes the boxed key value for a code — identical to
// what the generic key encoder would have produced for any row in the
// bin: dict[code] for strings, (qmin+code)*width = floor(v/width)*width
// for int/time.
func (k *fastKey) valueOf(code int) Value {
	if code == k.card {
		return NullValue(k.typ)
	}
	if k.codes != nil {
		return String(k.dict[code])
	}
	v := (k.qmin + int64(code)) * k.width
	if k.typ == TypeTime {
		return Value{Kind: TypeTime, I: v}
	}
	return Int(v)
}

// fillSlots folds one key dimension into the per-row slot codes for a
// chunk's selection vector. first=true initializes slots; otherwise
// slots become slot*(card+1)+code (mixed radix, matching slotKey).
// dense=true means sel[j] == j for the whole chunk, so the column is
// streamed directly without the selection-vector indirection.
func (k *fastKey) fillSlots(start int, sel []int32, slots []int32, first, dense bool) {
	dim := int32(k.card + 1)
	nullSlot := int32(k.card)
	if k.codes != nil {
		if dense {
			codes := k.codes[start : start+len(slots)]
			if first {
				for j, c := range codes {
					if c < 0 {
						c = nullSlot
					}
					slots[j] = c
				}
				return
			}
			for j, c := range codes {
				if c < 0 {
					c = nullSlot
				}
				slots[j] = slots[j]*dim + c
			}
			return
		}
		codes := k.codes[start:]
		if first {
			for j, off := range sel {
				c := codes[off]
				if c < 0 {
					c = nullSlot
				}
				slots[j] = c
			}
			return
		}
		for j, off := range sel {
			c := codes[off]
			if c < 0 {
				c = nullSlot
			}
			slots[j] = slots[j]*dim + c
		}
		return
	}
	w, qmin := k.width, k.qmin
	if k.nulls == nil {
		if dense {
			vals := k.vals[start : start+len(slots)]
			switch {
			case w == 1 && first:
				for j, v := range vals {
					slots[j] = int32(v - qmin)
				}
			case w == 1:
				for j, v := range vals {
					slots[j] = slots[j]*dim + int32(v-qmin)
				}
			case k.inv != 0 && first:
				for j, v := range vals {
					slots[j] = k.binCode(v)
				}
			case k.inv != 0:
				for j, v := range vals {
					slots[j] = slots[j]*dim + k.binCode(v)
				}
			case first:
				for j, v := range vals {
					slots[j] = int32(floorDiv(v, w) - qmin)
				}
			default:
				for j, v := range vals {
					slots[j] = slots[j]*dim + int32(floorDiv(v, w)-qmin)
				}
			}
			return
		}
		vals := k.vals[start:]
		if w == 1 {
			if first {
				for j, off := range sel {
					slots[j] = int32(vals[off] - qmin)
				}
			} else {
				for j, off := range sel {
					slots[j] = slots[j]*dim + int32(vals[off]-qmin)
				}
			}
			return
		}
		if k.inv != 0 {
			if first {
				for j, off := range sel {
					slots[j] = k.binCode(vals[off])
				}
			} else {
				for j, off := range sel {
					slots[j] = slots[j]*dim + k.binCode(vals[off])
				}
			}
			return
		}
		if first {
			for j, off := range sel {
				slots[j] = int32(floorDiv(vals[off], w) - qmin)
			}
		} else {
			for j, off := range sel {
				slots[j] = slots[j]*dim + int32(floorDiv(vals[off], w)-qmin)
			}
		}
		return
	}
	vals := k.vals[start:]
	nb := k.nulls
	for j, off := range sel {
		c := nullSlot
		if !nb.get(start + int(off)) {
			if w == 1 {
				c = int32(vals[off] - qmin)
			} else {
				c = int32(floorDiv(vals[off], w) - qmin)
			}
		}
		if first {
			slots[j] = c
		} else {
			slots[j] = slots[j]*dim + c
		}
	}
}

// Fast-layout budgets: dense slots (including per-dimension NULL slots)
// and total accumulators are bounded so a wide composite key or a huge
// dictionary falls back to the hash path instead of allocating a
// mostly-empty arena.
const (
	fastSlotLimit = 1 << 16
	fastAccLimit  = 1 << 18
)

// grouperPlan is the per-query bound state for one grouping set: bound
// aggregates, key columns, and either a dense fast layout or generic
// key encoders. Plans are immutable after construction and shared by
// every worker's grouper; building one may scan column ranges (memoized
// per table), so it must happen once per query, not per partition.
type grouperPlan struct {
	set     []string
	aggs    []boundAgg
	nAggs   int
	keyCols []Column

	// fast path: nil when the generic hash layout is used.
	fast      []fastKey
	fastSlots int // product of (card+1) over fast

	// generic path: stateless per-column encoders.
	encs []keyEncoder
}

func newGrouperPlan(t *Table, gs GroupingSet, fs *filterSet, legacy, resultsOnly bool) (*grouperPlan, error) {
	p := &grouperPlan{set: gs.By, nAggs: len(gs.Aggs)}
	var err error
	if p.aggs, err = bindAggs(t, gs.Aggs, fs, resultsOnly); err != nil {
		return nil, err
	}
	for _, name := range p.set {
		col, err := t.Column(name)
		if err != nil {
			return nil, err
		}
		if w := gs.BinWidths[name]; w != 0 {
			if w < 0 {
				return nil, fmt.Errorf("engine: bin width for %q must be positive, got %v", name, w)
			}
			if col.Type() == TypeString {
				return nil, fmt.Errorf("engine: cannot bin STRING column %q", name)
			}
		}
		p.keyCols = append(p.keyCols, col)
	}
	if p.tryFastLayout(t, gs, legacy) {
		return p, nil
	}
	for i, col := range p.keyCols {
		enc, err := newKeyEncoder(col, gs.BinWidths[p.set[i]])
		if err != nil {
			return nil, err
		}
		p.encs = append(p.encs, enc)
	}
	return p, nil
}

// tryFastLayout installs the dense array-indexed layout when every key
// column (at most two) maps to small dense codes and the slot and
// accumulator budgets hold. legacy narrows eligibility to the
// pre-kernel engine's single-unbinned-string fast path.
func (p *grouperPlan) tryFastLayout(t *Table, gs GroupingSet, legacy bool) bool {
	if len(p.set) == 0 || len(p.set) > 2 {
		return false
	}
	if legacy {
		if len(p.set) != 1 || gs.BinWidths[p.set[0]] != 0 {
			return false
		}
		if _, ok := p.keyCols[0].(*StringColumn); !ok {
			return false
		}
	}
	keys := make([]fastKey, len(p.set))
	slots := 1
	for i, name := range p.set {
		fk, ok := newFastKey(t, p.keyCols[i], gs.BinWidths[name])
		if !ok {
			return false
		}
		dim := fk.card + 1
		if slots > fastSlotLimit/dim {
			return false
		}
		slots *= dim
		keys[i] = fk
	}
	if slots*p.nAggs > fastAccLimit {
		return false
	}
	p.fast, p.fastSlots = keys, slots
	return true
}

func newFastKey(t *Table, col Column, binWidth float64) (fastKey, bool) {
	switch c := col.(type) {
	case *StringColumn:
		// binWidth != 0 on STRING was already rejected.
		return fastKey{typ: TypeString, codes: c.Codes(), dict: c.Dict(), nulls: activeNulls(&c.nulls), card: c.Cardinality()}, true
	case *IntColumn:
		return int64FastKey(t, col.Name(), TypeInt, c.Ints(), &c.nulls, binWidth)
	case *TimeColumn:
		return int64FastKey(t, col.Name(), TypeTime, c.Nanos(), &c.nulls, binWidth)
	}
	return fastKey{}, false
}

// int64FastKey builds the dense-code mapping for an INT/TIME key when
// its occupied bin range is small enough. The column's value range is
// memoized on the table and extended incrementally, so this stays
// O(appended delta) per query on a growing table.
func int64FastKey(t *Table, name string, typ Type, vals []int64, nb *nullBitmap, binWidth float64) (fastKey, bool) {
	w := int64(binWidth)
	if w < 1 {
		w = 1 // unbinned (width 0) and sub-1 widths, matching newKeyEncoder
	}
	ci, ok := t.byName[name]
	if !ok {
		return fastKey{}, false
	}
	vmin, vmax, any := t.int64RangeLocked(ci)
	if !any {
		// Every row is NULL (or the table is empty): one NULL slot.
		return fastKey{typ: typ, vals: vals, nulls: activeNulls(nb), width: w, card: 0}, true
	}
	qmin, qmax := floorDiv(vmin, w), floorDiv(vmax, w)
	span := uint64(qmax) - uint64(qmin) // wrap-safe bin-range width
	if span >= fastSlotLimit {
		return fastKey{}, false
	}
	k := fastKey{typ: typ, vals: vals, nulls: activeNulls(nb), width: w, qmin: qmin, card: int(span) + 1}
	if w < 1<<40 {
		// v-base stays below 2^16*width < 2^56, where the float bin
		// estimate is within one of exact (see binCode).
		k.base = qmin * w
		k.inv = 1 / float64(w)
	}
	return k, true
}

// slotKey materializes the boxed group key for a dense slot (mixed-
// radix decode; the last key varies fastest, matching fillSlots).
func (p *grouperPlan) slotKey(slot int) []Value {
	key := make([]Value, len(p.fast))
	for i := len(p.fast) - 1; i >= 0; i-- {
		fk := &p.fast[i]
		dim := fk.card + 1
		key[i] = fk.valueOf(slot % dim)
		slot /= dim
	}
	return key
}

// floorDiv returns floor(v/w) for w >= 1 (Go's integer division
// truncates toward zero).
func floorDiv(v, w int64) int64 {
	q := v / w
	if v%w != 0 && v < 0 {
		q--
	}
	return q
}

// ---------------------------------------------------------------------
// grouper: aggregation state for one grouping-attribute list

// grouper aggregates rows into groups keyed by a list of attributes.
// Two layouts are used, chosen by the shared plan:
//
//   - fast path: every key column maps to small dense codes (unbinned
//     dictionary strings, binned or small-range int/time), composed
//     into one mixed-radix slot — groups live in a dense slice indexed
//     by slot, no hashing. SeeDB's dominant one- and two-dimension
//     group-bys all take this path.
//   - generic path: composite keys encoded to a byte string, hash map
//     from key to group slot.
//
// Accumulators for all aggregates of a group are stored contiguously.
// Groupers are cheap arenas over their (immutable, shared) plan and
// support reset() for reuse across scan segments.
type grouper struct {
	plan *grouperPlan

	// fast path
	fastAccs []accumulator // fastSlots * nAggs
	fastSeen []bool        // whether the group appeared at all
	slots    []int32       // per-chunk slot codes (kernel path scratch)

	// generic path
	buf  []byte
	m    map[string]int
	keys [][]Value
	accs []accumulator // len(keys) * nAggs
}

// newGrouper instantiates an empty arena over the plan.
func (p *grouperPlan) newGrouper() *grouper {
	g := &grouper{plan: p}
	if p.fast != nil {
		g.fastAccs = make([]accumulator, p.fastSlots*p.nAggs)
		g.fastSeen = make([]bool, p.fastSlots)
		g.slots = make([]int32, ChunkRows)
	} else {
		g.m = make(map[string]int)
	}
	return g
}

// reset clears accumulated state so the arena can be reused for the
// next scan segment. Fast-path state is cleared sparsely (only touched
// slots), so resetting between small segments costs O(groups seen),
// not O(layout). Exported partials own their state (AccState digit
// slices are fresh copies and key []Value slices are never mutated
// afterwards), so reuse after partial() is safe.
func (g *grouper) reset() {
	if g.fastAccs != nil {
		nA := g.plan.nAggs
		for slot, seen := range g.fastSeen {
			if !seen {
				continue
			}
			g.fastSeen[slot] = false
			accs := g.fastAccs[slot*nA : (slot+1)*nA]
			for i := range accs {
				accs[i] = accumulator{}
			}
		}
		return
	}
	if len(g.keys) == 0 {
		return
	}
	g.m = make(map[string]int, len(g.keys))
	g.keys = g.keys[:0]
	g.accs = g.accs[:0]
}

// keyEncoder appends row's key bytes for one column and materializes
// the boxed key value. Encoders are stateless and shared via the plan.
type keyEncoder struct {
	encode func(row int, buf []byte) []byte
	value  func(row int) Value
}

// binFloor returns the lower bound of v's bin for the given width.
func binFloor(v, width float64) float64 { return math.Floor(v/width) * width }

func appendU64(buf []byte, v uint64) []byte {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	return append(buf, tmp[:]...)
}

func newKeyEncoder(col Column, binWidth float64) (keyEncoder, error) {
	switch c := col.(type) {
	case *StringColumn:
		codes := c.Codes()
		return keyEncoder{
			encode: func(row int, buf []byte) []byte {
				var tmp [4]byte
				binary.LittleEndian.PutUint32(tmp[:], uint32(codes[row]))
				return append(buf, tmp[:]...)
			},
			value: func(row int) Value { return c.Value(row) },
		}, nil
	case *IntColumn:
		return int64KeyEncoder(c.Ints(), activeNulls(&c.nulls), binWidth, TypeInt), nil
	case *TimeColumn:
		return int64KeyEncoder(c.Nanos(), activeNulls(&c.nulls), binWidth, TypeTime), nil
	case *FloatColumn:
		vals := c.Floats()
		nb := activeNulls(&c.nulls)
		bin := func(v float64) float64 { return v }
		if binWidth > 0 {
			width := binWidth
			bin = func(v float64) float64 { return binFloor(v, width) }
		}
		if nb == nil {
			// No NULLs: skip the per-row null check entirely.
			return keyEncoder{
				encode: func(row int, buf []byte) []byte {
					return append(appendU64(buf, math.Float64bits(bin(vals[row]))), 0)
				},
				value: func(row int) Value { return Float(bin(vals[row])) },
			}, nil
		}
		return keyEncoder{
			encode: func(row int, buf []byte) []byte {
				if nb.get(row) {
					return append(appendU64(buf, 0), 1)
				}
				return append(appendU64(buf, math.Float64bits(bin(vals[row]))), 0)
			},
			value: func(row int) Value {
				if nb.get(row) {
					return NullValue(TypeFloat)
				}
				return Float(bin(vals[row]))
			},
		}, nil
	}
	// A silent catch-all here once collapsed every row of an unknown
	// column kind into one bogus group (empty key bytes, NULL value);
	// unknown kinds are a planning error, not a degenerate group-by.
	return keyEncoder{}, fmt.Errorf("engine: cannot group by column %q: unsupported column kind %T", col.Name(), col)
}

// int64KeyEncoder builds the key encoder for INT/TIME columns. Integral
// bins: width rounded up to at least 1 so bin lower bounds stay
// integers. The null branch is resolved once here, not per row.
func int64KeyEncoder(vals []int64, nb *nullBitmap, binWidth float64, typ Type) keyEncoder {
	w := int64(binWidth)
	if w < 1 {
		w = 1
	}
	lower := func(v int64) int64 { return v }
	if w > 1 {
		lower = func(v int64) int64 { return floorDiv(v, w) * w }
	}
	mk := func(v int64) Value { return Int(v) }
	if typ == TypeTime {
		mk = func(v int64) Value { return Value{Kind: TypeTime, I: v} }
	}
	if nb == nil {
		return keyEncoder{
			encode: func(row int, buf []byte) []byte {
				return append(appendU64(buf, uint64(lower(vals[row]))), 0)
			},
			value: func(row int) Value { return mk(lower(vals[row])) },
		}
	}
	return keyEncoder{
		encode: func(row int, buf []byte) []byte {
			if nb.get(row) {
				return append(appendU64(buf, 0), 1)
			}
			return append(appendU64(buf, uint64(lower(vals[row]))), 0)
		},
		value: func(row int) Value {
			if nb.get(row) {
				return NullValue(typ)
			}
			return mk(lower(vals[row]))
		},
	}
}

// process folds one row into the group state; chunk is the row's
// (1-based) grid cell and fvals holds the pre-evaluated shared filter
// outcomes for this row. This is the row-at-a-time reference path.
func (g *grouper) process(row int, chunk int32, fvals []bool) {
	p := g.plan
	var accs []accumulator
	if g.fastAccs != nil {
		slot := 0
		for i := range p.fast {
			fk := &p.fast[i]
			slot = slot*(fk.card+1) + fk.codeOf(row)
		}
		g.fastSeen[slot] = true
		accs = g.fastAccs[slot*p.nAggs : (slot+1)*p.nAggs]
	} else {
		accs = g.genericSlot(row)
	}
	for i := range p.aggs {
		a := &p.aggs[i]
		if a.filterIdx >= 0 && !fvals[a.filterIdx] {
			continue
		}
		if a.countOnly {
			accs[i].addCountOnly()
			continue
		}
		if v, ok := a.get(row); ok {
			accs[i].addValue(v, chunk)
		}
	}
}

// genericSlot hashes the row's encoded key, creating the group on
// first sight, and returns its accumulator block.
func (g *grouper) genericSlot(row int) []accumulator {
	p := g.plan
	g.buf = g.buf[:0]
	for _, e := range p.encs {
		g.buf = e.encode(row, g.buf)
	}
	slot, ok := g.m[string(g.buf)]
	if !ok {
		slot = len(g.keys)
		g.m[string(g.buf)] = slot
		key := make([]Value, len(p.encs))
		for i, e := range p.encs {
			key[i] = e.value(row)
		}
		g.keys = append(g.keys, key)
		g.accs = append(g.accs, make([]accumulator, p.nAggs)...)
	}
	return g.accs[slot*p.nAggs : (slot+1)*p.nAggs]
}

// processChunk folds one chunk's selected rows (ascending in-chunk
// offsets in sel, absolute rows start+off) into the group state.
// fbits holds the pre-evaluated shared filter bitmaps for the chunk.
// Rows are consumed in the same ascending order — and accumulators see
// the same values with the same chunk tags — as the row-at-a-time
// reference, so the folded state is byte-identical.
func (g *grouper) processChunk(start int, chunk int32, sel []int32, fbits [][]uint64, dense bool) {
	p := g.plan
	if g.fastAccs == nil {
		for _, off := range sel {
			row := start + int(off)
			accs := g.genericSlot(row)
			for i := range p.aggs {
				a := &p.aggs[i]
				if a.filterIdx >= 0 && !bitAt(fbits[a.filterIdx], off) {
					continue
				}
				if a.countOnly {
					accs[i].addCountOnly()
					continue
				}
				if v, ok := a.get(row); ok {
					accs[i].addValue(v, chunk)
				}
			}
		}
		return
	}

	// Fast path, fused: compute every selected row's dense slot once,
	// mark group existence, then stream each aggregate's measure slice
	// over the selection vector.
	slots := g.slots[:len(sel)]
	for ki := range p.fast {
		p.fast[ki].fillSlots(start, sel, slots, ki == 0, dense)
	}
	for _, s := range slots {
		g.fastSeen[s] = true
	}
	accs, nA := g.fastAccs, p.nAggs
	for i := range p.aggs {
		a := &p.aggs[i]
		var fb []uint64
		if a.filterIdx >= 0 {
			fb = fbits[a.filterIdx]
		}
		switch a.kind {
		case measCountStar:
			if fb == nil {
				for _, s := range slots {
					accs[int(s)*nA+i].count++
				}
				continue
			}
			for j, off := range sel {
				if bitAt(fb, off) {
					accs[int(slots[j])*nA+i].count++
				}
			}
		case measFloat:
			// addValue is open-coded (fold check + inlinable addHot) so
			// the per-row arithmetic inlines into these loops; the fold
			// branch only fires on an accumulator's first touch per chunk.
			vals := a.f64[start:]
			if a.slim && a.nulls == nil {
				switch {
				case fb == nil && dense:
					dv := vals[:len(slots)]
					for j, v := range dv {
						ac := &accs[int(slots[j])*nA+i]
						if ac.chunk != chunk {
							ac.fold()
							ac.chunk = chunk
						}
						ac.addSlim(v)
					}
				case fb == nil:
					for j, off := range sel {
						ac := &accs[int(slots[j])*nA+i]
						if ac.chunk != chunk {
							ac.fold()
							ac.chunk = chunk
						}
						ac.addSlim(vals[off])
					}
				default:
					for j, off := range sel {
						if bitAt(fb, off) {
							ac := &accs[int(slots[j])*nA+i]
							if ac.chunk != chunk {
								ac.fold()
								ac.chunk = chunk
							}
							ac.addSlim(vals[off])
						}
					}
				}
				continue
			}
			switch {
			case fb == nil && a.nulls == nil:
				if dense {
					vals := vals[:len(slots)]
					for j, v := range vals {
						ac := &accs[int(slots[j])*nA+i]
						if ac.chunk != chunk {
							ac.fold()
							ac.chunk = chunk
						}
						ac.addHot(v)
					}
					continue
				}
				for j, off := range sel {
					ac := &accs[int(slots[j])*nA+i]
					if ac.chunk != chunk {
						ac.fold()
						ac.chunk = chunk
					}
					ac.addHot(vals[off])
				}
			case fb == nil:
				for j, off := range sel {
					if !a.nulls.get(start + int(off)) {
						ac := &accs[int(slots[j])*nA+i]
						if ac.chunk != chunk {
							ac.fold()
							ac.chunk = chunk
						}
						ac.addHot(vals[off])
					}
				}
			case a.nulls == nil:
				for j, off := range sel {
					if bitAt(fb, off) {
						ac := &accs[int(slots[j])*nA+i]
						if ac.chunk != chunk {
							ac.fold()
							ac.chunk = chunk
						}
						ac.addHot(vals[off])
					}
				}
			default:
				for j, off := range sel {
					if bitAt(fb, off) && !a.nulls.get(start+int(off)) {
						ac := &accs[int(slots[j])*nA+i]
						if ac.chunk != chunk {
							ac.fold()
							ac.chunk = chunk
						}
						ac.addHot(vals[off])
					}
				}
			}
		case measInt:
			vals := a.i64[start:]
			if a.slim && a.nulls == nil {
				switch {
				case fb == nil && dense:
					dv := vals[:len(slots)]
					for j, v := range dv {
						ac := &accs[int(slots[j])*nA+i]
						if ac.chunk != chunk {
							ac.fold()
							ac.chunk = chunk
						}
						ac.addSlim(float64(v))
					}
				case fb == nil:
					for j, off := range sel {
						ac := &accs[int(slots[j])*nA+i]
						if ac.chunk != chunk {
							ac.fold()
							ac.chunk = chunk
						}
						ac.addSlim(float64(vals[off]))
					}
				default:
					for j, off := range sel {
						if bitAt(fb, off) {
							ac := &accs[int(slots[j])*nA+i]
							if ac.chunk != chunk {
								ac.fold()
								ac.chunk = chunk
							}
							ac.addSlim(float64(vals[off]))
						}
					}
				}
				continue
			}
			switch {
			case fb == nil && a.nulls == nil:
				if dense {
					vals := vals[:len(slots)]
					for j, v := range vals {
						ac := &accs[int(slots[j])*nA+i]
						if ac.chunk != chunk {
							ac.fold()
							ac.chunk = chunk
						}
						ac.addHot(float64(v))
					}
					continue
				}
				for j, off := range sel {
					ac := &accs[int(slots[j])*nA+i]
					if ac.chunk != chunk {
						ac.fold()
						ac.chunk = chunk
					}
					ac.addHot(float64(vals[off]))
				}
			case fb == nil:
				for j, off := range sel {
					if !a.nulls.get(start + int(off)) {
						ac := &accs[int(slots[j])*nA+i]
						if ac.chunk != chunk {
							ac.fold()
							ac.chunk = chunk
						}
						ac.addHot(float64(vals[off]))
					}
				}
			case a.nulls == nil:
				for j, off := range sel {
					if bitAt(fb, off) {
						ac := &accs[int(slots[j])*nA+i]
						if ac.chunk != chunk {
							ac.fold()
							ac.chunk = chunk
						}
						ac.addHot(float64(vals[off]))
					}
				}
			default:
				for j, off := range sel {
					if bitAt(fb, off) && !a.nulls.get(start+int(off)) {
						ac := &accs[int(slots[j])*nA+i]
						if ac.chunk != chunk {
							ac.fold()
							ac.chunk = chunk
						}
						ac.addHot(float64(vals[off]))
					}
				}
			}
		default: // measOther: presence only (COUNT over non-numeric)
			for j, off := range sel {
				if fb != nil && !bitAt(fb, off) {
					continue
				}
				if !a.col.IsNull(start + int(off)) {
					accs[int(slots[j])*nA+i].addValue(0, chunk)
				}
			}
		}
	}
}

// mergeFrom folds another grouper's partial state (same plan, different
// row partition) into g.
func (g *grouper) mergeFrom(o *grouper) {
	nA := g.plan.nAggs
	if g.fastAccs != nil {
		for slot := range o.fastSeen {
			if !o.fastSeen[slot] {
				continue
			}
			g.fastSeen[slot] = true
			dst := g.fastAccs[slot*nA : (slot+1)*nA]
			src := o.fastAccs[slot*nA : (slot+1)*nA]
			for i := range dst {
				dst[i].merge(&src[i])
			}
		}
		return
	}
	for key, oslot := range o.m {
		slot, ok := g.m[key]
		if !ok {
			slot = len(g.keys)
			g.m[key] = slot
			g.keys = append(g.keys, o.keys[oslot])
			g.accs = append(g.accs, make([]accumulator, nA)...)
		}
		dst := g.accs[slot*nA : (slot+1)*nA]
		src := o.accs[oslot*nA : (oslot+1)*nA]
		for i := range dst {
			dst[i].merge(&src[i])
		}
	}
}

// result materializes the grouper state as a Result with rows sorted by
// group key so output is deterministic.
func (g *grouper) result() *Result {
	p := g.plan
	cols := make([]string, 0, len(p.set)+p.nAggs)
	cols = append(cols, p.set...)
	for _, a := range p.aggs {
		cols = append(cols, a.spec.Name())
	}
	res := &Result{Columns: cols}

	emit := func(key []Value, accs []accumulator) {
		row := make([]Value, 0, len(key)+p.nAggs)
		row = append(row, key...)
		for i := range accs {
			row = append(row, accs[i].finalize(p.aggs[i].spec.Func))
		}
		res.Rows = append(res.Rows, row)
	}

	if g.fastAccs != nil {
		for slot, seen := range g.fastSeen {
			if !seen {
				continue
			}
			emit(p.slotKey(slot), g.fastAccs[slot*p.nAggs:(slot+1)*p.nAggs])
		}
	} else {
		for slot := range g.keys {
			emit(g.keys[slot], g.accs[slot*p.nAggs:(slot+1)*p.nAggs])
		}
	}

	// Deterministic output order: sort by the grouping key columns.
	keys := make([]OrderKey, len(p.set))
	for i, s := range p.set {
		keys[i] = OrderKey{Column: s}
	}
	if len(keys) > 0 {
		_ = res.sortBy(keys)
	}
	return res
}

// ---------------------------------------------------------------------
// Scan (projection) and sampling helpers

// Scan returns up to limit rows of the named columns matching where
// (nil = all). It backs the frontend's sample-data panes and the CLI.
func (e *Executor) Scan(ctx context.Context, table string, columns []string, where Predicate, limit int) (*Result, error) {
	t, err := e.cat.Table(table)
	if err != nil {
		return nil, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()

	if len(columns) == 0 {
		for _, def := range t.Schema() {
			columns = append(columns, def.Name)
		}
	}
	cols := make([]Column, len(columns))
	for i, name := range columns {
		if cols[i], err = t.Column(name); err != nil {
			return nil, err
		}
	}
	var bound BoundPredicate
	if where != nil {
		if bound, err = where.Bind(t); err != nil {
			return nil, err
		}
	}
	e.cat.RecordAccess(table, columns...)
	e.stats.Queries.Add(1)
	e.stats.TableScans.Add(1)

	res := &Result{Columns: append([]string(nil), columns...)}
	for row := 0; row < t.rows; row++ {
		if row&0x3FFF == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("engine: scan cancelled: %w", err)
			}
		}
		if bound != nil && !bound(row) {
			continue
		}
		out := make([]Value, len(cols))
		for i, c := range cols {
			out[i] = c.Value(row)
		}
		res.Rows = append(res.Rows, out)
		if limit > 0 && len(res.Rows) >= limit {
			break
		}
	}
	e.stats.RowsRead.Add(int64(t.rows))
	return res, nil
}

// MaterializeSample builds an in-memory Bernoulli sample of a table.
// The sample is returned (not registered); callers register it under
// the chosen name if they want it query-able. This is the "construct a
// sample of the dataset that can fit in memory" optimization.
func (e *Executor) MaterializeSample(table, name string, fraction float64, seed uint64) (*Table, error) {
	t, err := e.cat.Table(table)
	if err != nil {
		return nil, err
	}
	smp := newSampler(fraction, seed, 0)
	if smp == nil {
		return t.Clone(name), nil
	}
	t.mu.RLock()
	var sel []int32
	for row := 0; row < t.rows; row++ {
		if smp.keep(row) {
			sel = append(sel, int32(row))
		}
	}
	t.mu.RUnlock()
	return t.Gather(name, sel), nil
}
