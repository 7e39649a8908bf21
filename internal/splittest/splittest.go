// Package splittest provides a test backend that cuts every engine scan
// into a fixed number of grid-aligned ranges. The recommendation
// pipeline hands each view query only the scan parallelism its plan
// leaves over (1 once there are at least Options.Parallelism exec
// units), so setting Options.Parallelism alone does not split every
// scan; installing this backend does. Tests use it to pin that results
// are byte-identical for every split.
package splittest

import (
	"context"
	"strconv"
	"sync/atomic"

	"seedb/internal/engine"
)

// Backend forwards every query to the in-process executor with
// Parallelism set to N, so the executor scans N grid-aligned ranges
// concurrently and merges their partials exactly. It satisfies
// core.Backend.
type Backend struct {
	ex    *engine.Executor
	n     int
	scans atomic.Int64
}

// New wraps ex; n < 1 is treated as 1.
func New(ex *engine.Executor, n int) *Backend {
	return &Backend{ex: ex, n: max(n, 1)}
}

// Scans counts the queries forwarded with Parallelism N — every scan
// the pipeline issued through this backend.
func (b *Backend) Scans() int64 { return b.scans.Load() }

func (b *Backend) split(q *engine.Query) *engine.Query {
	b.scans.Add(1)
	sub := *q
	sub.Parallelism = b.n
	return &sub
}

// Run implements core.Backend.
func (b *Backend) Run(ctx context.Context, q *engine.Query) (*engine.Result, error) {
	return b.ex.Run(ctx, b.split(q))
}

// RunSharedScan implements core.Backend.
func (b *Backend) RunSharedScan(ctx context.Context, q *engine.Query, gsets []engine.GroupingSet) ([]*engine.Result, error) {
	return b.ex.RunSharedScan(ctx, b.split(q), gsets)
}

// Signature implements core.Backend.
func (b *Backend) Signature() string { return "split(n=" + strconv.Itoa(b.n) + ")" }
