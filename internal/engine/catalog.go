package engine

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// ErrNotDurable marks an append that applied in memory but failed to
// reach the write-ahead log: a crash before the next successful log
// write would lose it. HTTP layers map it to a server error (the data
// was valid; the durability machinery faulted), never a client error.
var ErrNotDurable = errors.New("append applied but not durable")

// ErrNoTable marks a lookup of a table name the catalog does not hold.
var ErrNoTable = errors.New("no table named")

// Catalog is the named-table registry plus the access-pattern tracker
// that SeeDB's Metadata Collector reads. The paper's access-frequency
// pruning ("SEEDB tracks access patterns for each table to identify the
// most frequently accessed columns") is fed from here: every executed
// query records which columns it touched.
type Catalog struct {
	mu       sync.RWMutex
	tables   map[string]*Table
	accesses map[string]map[string]int64 // table -> column -> touch count

	// Durability seam (see Append). appendMu serializes the
	// capture-version → append → log sequence so WAL records are written
	// in exactly the order their version numbers claim; without it two
	// concurrent appends could log out of order and replay would skip
	// an acked batch.
	appendMu sync.Mutex
	sink     AppendSink
}

// AppendSink receives every batch appended through Catalog.Append,
// after it has been applied, keyed by the table's pre-append mutation
// version. The write-ahead log (internal/wal.Store) implements it; a
// sink that returns an error fails the append call (the rows are in
// memory but NOT durable — callers must not ack them as durable).
type AppendSink interface {
	LogAppend(t *Table, prevVersion uint64, rows [][]Value) error
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{
		tables:   make(map[string]*Table),
		accesses: make(map[string]map[string]int64),
	}
}

// Register adds a table; it fails if the name is taken.
func (c *Catalog) Register(t *Table) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[t.Name()]; ok {
		return fmt.Errorf("engine: table %q already registered", t.Name())
	}
	c.tables[t.Name()] = t
	return nil
}

// SetAppendSink installs (or, with nil, removes) the durability sink.
// Once installed, every append routed through Catalog.Append is logged
// to the sink before the call returns.
func (c *Catalog) SetAppendSink(s AppendSink) {
	c.appendMu.Lock()
	c.sink = s
	c.appendMu.Unlock()
}

// Append applies a batch of rows to a registered table through the
// durability seam: with an AppendSink installed the batch is logged —
// keyed by the table's pre-append mutation version — before Append
// returns, so a caller that acks after Append acks durable data. All
// ingest paths (DB.Append, /api/ingest, cluster forwarding) route
// through here; Table.Append remains the raw in-memory path for
// loaders and tests.
func (c *Catalog) Append(t *Table, rows [][]Value) (int, error) {
	c.appendMu.Lock()
	defer c.appendMu.Unlock()
	if c.sink == nil {
		return t.Append(rows)
	}
	prev := t.Version()
	n, err := t.Append(rows)
	if err != nil || len(rows) == 0 {
		return n, err
	}
	if err := c.sink.LogAppend(t, prev, rows); err != nil {
		// The rows are live in memory but the log write failed: a crash
		// now would lose them. Failing the call keeps the ack honest;
		// the client retries against a store that will re-apply or
		// re-log idempotently at the version check.
		return n, fmt.Errorf("engine: table %q: %w: %v", t.Name(), ErrNotDurable, err)
	}
	return n, nil
}

// Drop removes a table by name; missing tables are a no-op so callers
// can drop defensively.
func (c *Catalog) Drop(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.tables, name)
	delete(c.accesses, name)
}

// Table looks up a table by name.
func (c *Catalog) Table(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("engine: %w %q", ErrNoTable, name)
	}
	return t, nil
}

// TableNames returns all registered table names, sorted.
func (c *Catalog) TableNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// RecordAccess bumps the access counter of the given columns of a
// table. The executor calls this once per query with every column the
// query referenced (grouping, aggregation, and predicate columns alike).
func (c *Catalog) RecordAccess(table string, columns ...string) {
	if len(columns) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.accesses[table]
	if !ok {
		m = make(map[string]int64)
		c.accesses[table] = m
	}
	for _, col := range columns {
		m[col]++
	}
}

// AccessCount returns how many queries have touched table.column.
func (c *Catalog) AccessCount(table, column string) int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.accesses[table][column]
}

// AccessCounts returns a copy of the per-column access counters for a
// table. Columns never touched are absent from the map.
func (c *Catalog) AccessCounts(table string) map[string]int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[string]int64, len(c.accesses[table]))
	for col, n := range c.accesses[table] {
		out[col] = n
	}
	return out
}

// ResetAccessCounts clears the access history for a table (all tables
// if name is empty). Experiments use this to start from a clean slate.
func (c *Catalog) ResetAccessCounts(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if name == "" {
		c.accesses = make(map[string]map[string]int64)
		return
	}
	delete(c.accesses, name)
}
