package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"seedb/internal/engine"
)

// ExecCache is the seam between plan execution and the service layer's
// view-result cache. Keys are content-addressed digests of everything
// that determines an exec-unit query's output — table fingerprint,
// grouping structure, aggregate list, predicate, sampling, and row
// range — so a hit is always safe to reuse and invalidation is
// implicit: mutating or reloading a table changes its fingerprint and
// the old entries simply age out.
//
// The fingerprint keying is all-or-nothing per table VERSION, but a
// miss caused by an append is no longer an all-or-nothing recompute:
// the engine's chunk-partial store (engine.PartialStore, installed by
// the service layer) answers the recompute by merging the previous
// version's sealed-chunk partials with a scan of just the appended
// delta — byte-identical to a cold scan, per the engine's exact
// accumulators — so the query against version v+Δ costs O(Δ) even
// though its cache entry is new. The two layers compose: this cache
// de-duplicates identical queries within a version, the partial store
// carries the work across versions.
//
// GetOrCompute returns the cached results for key, or runs compute,
// stores its (immutable) results, and returns them. Implementations
// must de-duplicate concurrent misses on the same key (singleflight)
// so that identical in-flight queries share one table scan. compute
// reports whether its results may be stored: plan execution returns
// cacheable=false when it detects the table mutated mid-scan, so
// results observed under a newer table version are never published
// under the older version's key. Results handed out must never be
// mutated by callers; plan execution only reads them.
type ExecCache interface {
	GetOrCompute(ctx context.Context, key string, compute func() (results []*engine.Result, cacheable bool, err error)) ([]*engine.Result, error)
}

// execCacheKey digests one exec-unit engine call into a stable
// content-addressed key. Everything that can change the result bytes
// is included. Scan parallelism deliberately is NOT: the engine folds
// float partials on a fixed per-table chunk grid and combines them with
// exact summation, so SUM/AVG bytes are identical across parallelism
// settings and placement topologies — one cached entry serves them all. The
// backend layout signature IS included: in-process layouts are provably
// result-identical, but a remote fleet could run a heterogeneous build,
// so entries are never shared across execution layouts.
//
// The plan portion (predicate, sampling, grouping sets, bin widths,
// aggregates) is engine.PlanSignature — the same digest the engine's
// chunk-partial store keys on — so the two caches can never drift on
// what "same plan" means. This layer adds what the engine's signature
// deliberately omits: table fingerprint, execution layout, the phased
// row range, and the exploration operator that issued the query.
//
// The operator is part of the key even though an engine query's result
// does not depend on it: entries stay partitioned per operator family,
// matching RunSignature's semantics, at the cost of not sharing the
// operator-independent comparison scan across operators. The engine's
// chunk-partial store deliberately does NOT key on the operator: it
// sits below the operator seam and is content-addressed purely by plan
// shape (engine.PlanSignature), so sealed-chunk partials remain
// reusable across operators and table versions alike.
func execCacheKey(fingerprint, layout, operator string, q *engine.Query, gsets []engine.GroupingSet) string {
	var b strings.Builder
	b.Grow(256)
	b.WriteString(fingerprint)
	b.WriteByte('\n')
	b.WriteString(operator)
	b.WriteByte('\n')
	b.WriteString(layout)
	b.WriteByte('\n')
	// The phased row range selects which rows feed the aggregation, so
	// it is part of the content address.
	b.WriteString(strconv.Itoa(q.RowLo))
	b.WriteByte(',')
	b.WriteString(strconv.Itoa(q.RowHi))
	b.WriteByte('\n')
	if gsets == nil {
		gsets = []engine.GroupingSet{{By: q.GroupBy, Aggs: q.Aggs, BinWidths: q.BinWidths}}
	}
	b.WriteString(engine.PlanSignature(q, gsets))
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// RunSignature digests a whole Recommend request — table version,
// analyst query, and the full effective option set — into the
// request-coalescing key the service layer's scheduler uses: two
// requests with the same signature are guaranteed to produce
// byte-identical Results (modulo the wall-clock and executor-counter
// stats), so concurrent duplicates can safely share one pipeline run.
// It lives next to execCacheKey deliberately: execCacheKey
// de-duplicates work at the exec-unit level within a run, RunSignature
// de-duplicates entire runs. Options are normalized first so requests
// that spell the defaults differently (metric "" vs "emd", Parallelism
// 0 vs GOMAXPROCS) still coalesce; options that fail validation keep
// their raw spelling and fail identically inside the shared run.
func RunSignature(fingerprint string, q Query, opts Options) string {
	if n, err := opts.normalize(); err == nil {
		opts = n
	}
	var b strings.Builder
	b.Grow(512)
	b.WriteString("run\n")
	b.WriteString(fingerprint)
	b.WriteByte('\n')
	b.WriteString(q.Table)
	b.WriteByte('\n')
	writePredicate(&b, q.Predicate)
	b.WriteByte('\n')
	// Options is a flat struct of scalars and ordered slices, so the
	// %+v rendering is deterministic and covers every knob. This only
	// stays true while Options contains value kinds exclusively — a
	// pointer or func field would render as a per-request address and
	// silently disable coalescing. TestRunSignatureOptionsAreValueOnly
	// guards that property against future fields.
	fmt.Fprintf(&b, "%+v", opts)
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:16])
}

// traceSeq distinguishes repeat runs of the same signature; trace IDs
// must be unique per run where signatures deliberately are not.
var traceSeq atomic.Int64

// RunTraceID derives the observability trace ID for one pipeline run
// from its coalescing signature. It lives next to RunSignature
// deliberately: the signature prefix makes re-runs of the same request
// visually groupable in a trace ring, while the sequence suffix keeps
// every run distinct. Requests coalesced onto a shared run share that
// run's trace ID.
func RunTraceID(sig string) string {
	sum := sha256.Sum256([]byte(sig))
	return fmt.Sprintf("t-%s-%d", hex.EncodeToString(sum[:6]), traceSeq.Add(1))
}

func writePredicate(b *strings.Builder, p engine.Predicate) {
	if p == nil {
		b.WriteString("<nil>")
		return
	}
	b.WriteString(p.String())
}
