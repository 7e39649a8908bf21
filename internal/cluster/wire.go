// Package cluster implements SeeDB's data-partitioned execution layer:
// PlacementBackend, a core.Backend that cuts every table into
// chunk-aligned placements held by workers, routes each engine query's
// row window to the owners of those placements, and merges the
// partition-mergeable partials back into results byte-identical to a
// single-node scan.
//
// Workers are plain seedb servers (or in-process MemberShards)
// exposing /api/shard/exec, /api/shard/health, /api/shard/sync and
// /api/shard/drop; the coordinator keeps the authoritative replica,
// verifies fragment content hashes on every exchange, retries failed
// owners, moves to the next owner, and falls back to executing a range
// on its own replica (the degraded path) when no owner is reachable.
package cluster

import (
	"fmt"
	"strings"

	"seedb/internal/engine"
	"seedb/internal/sql"
)

// ShardRequest is the wire form of one placement's slice of an engine
// query: everything a worker needs to run RunPartials over [RowLo,
// RowHi) of the fragment it holds. Predicates travel as SQL text (the
// same dialect the analyst front door parses).
type ShardRequest struct {
	Table string `json:"table"`
	// ContentHash pins the table data the coordinator planned against
	// (engine.Table.ContentHash — equal data hashes equal across
	// processes); a worker whose replica differs must refuse (HTTP
	// 409), which the coordinator treats as permanent shard failure.
	ContentHash    string  `json:"contentHash,omitempty"`
	WhereSQL       string  `json:"where,omitempty"`
	SampleFraction float64 `json:"sampleFraction,omitempty"`
	SampleSeed     uint64  `json:"sampleSeed,omitempty"`
	// SampleBase is the absolute row index the target table's row 0
	// maps to (engine.Query.SampleBase). Zero for whole-table shards;
	// the placement layer sets it so sampled fragment scans pick
	// exactly the rows a single-node scan would.
	SampleBase  int                `json:"sampleBase,omitempty"`
	RowLo       int                `json:"rowLo"`
	RowHi       int                `json:"rowHi"`
	Parallelism int                `json:"parallelism,omitempty"`
	Sets        []ShardGroupingSet `json:"sets"`
}

// ShardGroupingSet mirrors engine.GroupingSet on the wire.
type ShardGroupingSet struct {
	By        []string           `json:"by,omitempty"`
	BinWidths map[string]float64 `json:"binWidths,omitempty"`
	Aggs      []ShardAgg         `json:"aggs"`
}

// ShardAgg mirrors engine.AggSpec; the per-aggregate filter travels as
// SQL text like the WHERE clause.
type ShardAgg struct {
	Func      string `json:"func"`
	Column    string `json:"column,omitempty"`
	Alias     string `json:"alias,omitempty"`
	FilterSQL string `json:"filter,omitempty"`
}

// ShardResponse carries the worker's partials plus the content hash of
// the replica that produced them.
type ShardResponse struct {
	ContentHash string            `json:"contentHash"`
	Partials    []*engine.Partial `json:"partials"`
}

// IngestRequest is the wire form of a batched append: loosely-typed
// rows (JSON numbers/strings/nulls) that every node coerces against
// its own replica's schema. The coercion is deterministic, so a
// coordinator and its workers derive identical columns — verified
// after the fact by comparing post-append content hashes.
type IngestRequest struct {
	Table string  `json:"table"`
	Rows  [][]any `json:"rows"`
	// Verify asks the node to compute and return its post-append
	// ContentHash. Hashing is O(table), so it is opt-in: coordinators
	// always set it when forwarding (replica re-verification is the
	// point), while a plain client streaming batches into a single
	// node can skip it and keep ingest O(delta).
	Verify bool `json:"verify,omitempty"`
}

// IngestResponse reports a node's table state after applying an
// append.
type IngestResponse struct {
	Table string `json:"table"`
	// Appended is how many rows this request added; Rows is the
	// table's new total.
	Appended int `json:"appended"`
	Rows     int `json:"rows"`
	// ContentHash digests the post-append table, so the coordinator
	// can verify the replica still carries byte-identical data. Empty
	// unless the request set Verify.
	ContentHash string `json:"contentHash,omitempty"`
}

// EncodeShardRequest lowers (q, gsets) restricted to rows [lo,hi) into
// the wire form. It fails when a predicate cannot be rendered as SQL —
// callers treat that as "this query cannot be distributed" and run the
// range locally instead.
func EncodeShardRequest(q *engine.Query, gsets []engine.GroupingSet, contentHash string, lo, hi, parallelism int) (*ShardRequest, error) {
	req := &ShardRequest{
		Table:          q.Table,
		ContentHash:    contentHash,
		SampleFraction: q.SampleFraction,
		SampleSeed:     q.SampleSeed,
		SampleBase:     q.SampleBase,
		RowLo:          lo,
		RowHi:          hi,
		Parallelism:    parallelism,
	}
	var err error
	if req.WhereSQL, err = renderPredicateSQL(q.Where); err != nil {
		return nil, err
	}
	if gsets == nil {
		gsets = []engine.GroupingSet{{By: q.GroupBy, Aggs: q.Aggs, BinWidths: q.BinWidths}}
	}
	for _, gs := range gsets {
		wgs := ShardGroupingSet{By: gs.By, BinWidths: gs.BinWidths}
		for _, a := range gs.Aggs {
			wa := ShardAgg{Func: a.Func.String(), Column: a.Column, Alias: a.Alias}
			if wa.FilterSQL, err = renderPredicateSQL(a.Filter); err != nil {
				return nil, err
			}
			wgs.Aggs = append(wgs.Aggs, wa)
		}
		req.Sets = append(req.Sets, wgs)
	}
	return req, nil
}

// Decode rebuilds the engine query and grouping sets against the
// worker's catalog. Filter predicates are parsed once per distinct SQL
// string and the instance reused, preserving the engine's
// filter-deduplication (identical filters are evaluated once per row).
func (r *ShardRequest) Decode(cat *engine.Catalog) (*engine.Query, []engine.GroupingSet, error) {
	preds := map[string]engine.Predicate{}
	parse := func(sqlText string) (engine.Predicate, error) {
		if sqlText == "" {
			return nil, nil
		}
		if p, ok := preds[sqlText]; ok {
			return p, nil
		}
		_, p, err := sql.AnalystQuery(fmt.Sprintf("SELECT * FROM %s WHERE %s", r.Table, sqlText), cat)
		if err != nil {
			return nil, fmt.Errorf("cluster: parsing shard predicate %q: %w", sqlText, err)
		}
		preds[sqlText] = p
		return p, nil
	}
	q := &engine.Query{
		Table:          r.Table,
		SampleFraction: r.SampleFraction,
		SampleSeed:     r.SampleSeed,
		SampleBase:     r.SampleBase,
		RowLo:          r.RowLo,
		RowHi:          r.RowHi,
		Parallelism:    r.Parallelism,
	}
	var err error
	if q.Where, err = parse(r.WhereSQL); err != nil {
		return nil, nil, err
	}
	var gsets []engine.GroupingSet
	for _, wgs := range r.Sets {
		gs := engine.GroupingSet{By: wgs.By, BinWidths: wgs.BinWidths}
		for _, wa := range wgs.Aggs {
			fn, err := engine.ParseAggFunc(wa.Func)
			if err != nil {
				return nil, nil, err
			}
			spec := engine.AggSpec{Func: fn, Column: wa.Column, Alias: wa.Alias}
			if spec.Filter, err = parse(wa.FilterSQL); err != nil {
				return nil, nil, err
			}
			gs.Aggs = append(gs.Aggs, spec)
		}
		gsets = append(gsets, gs)
	}
	if len(gsets) == 0 {
		return nil, nil, fmt.Errorf("cluster: shard request carries no grouping sets")
	}
	return q, gsets, nil
}

// renderPredicateSQL renders a predicate tree as parseable SQL text.
// It mirrors Predicate.String but quotes timestamp literals (the SQL
// front door coerces quoted strings against TIMESTAMP columns), so the
// text round-trips through the worker's parser. nil and TruePred
// render empty (no WHERE clause).
func renderPredicateSQL(p engine.Predicate) (string, error) {
	if p == nil {
		return "", nil
	}
	switch pred := p.(type) {
	case engine.TruePred:
		return "", nil
	case *engine.ComparePred:
		return fmt.Sprintf("%s %s %s", pred.Column, pred.Op, renderValueSQL(pred.Value)), nil
	case *engine.InPred:
		parts := make([]string, len(pred.Values))
		for i, v := range pred.Values {
			parts[i] = renderValueSQL(v)
		}
		kw := "IN"
		if pred.Negate {
			kw = "NOT IN"
		}
		return fmt.Sprintf("%s %s (%s)", pred.Column, kw, strings.Join(parts, ", ")), nil
	case *engine.NullPred:
		return pred.String(), nil
	case *engine.AndPred:
		return renderJoinSQL(pred.Children, true)
	case *engine.OrPred:
		return renderJoinSQL(pred.Children, false)
	case *engine.NotPred:
		child, err := renderPredicateSQL(pred.Child)
		if err != nil {
			return "", err
		}
		if child == "" {
			return "", fmt.Errorf("cluster: cannot render NOT TRUE")
		}
		return "NOT (" + child + ")", nil
	default:
		return "", fmt.Errorf("cluster: predicate %T has no SQL wire form", p)
	}
}

// renderJoinSQL renders a conjunction (and=true) or disjunction. The
// SQL dialect has no TRUE literal, so TruePred children (which render
// empty) are folded algebraically: TRUE is the identity of AND and
// absorbs OR entirely.
func renderJoinSQL(children []engine.Predicate, and bool) (string, error) {
	var parts []string
	for _, c := range children {
		s, err := renderPredicateSQL(c)
		if err != nil {
			return "", err
		}
		if s == "" {
			if and {
				continue // TRUE AND x = x
			}
			return "", nil // TRUE OR x = TRUE: no constraint at all
		}
		parts = append(parts, "("+s+")")
	}
	sep := " OR "
	if and {
		sep = " AND "
	}
	return strings.Join(parts, sep), nil
}

// renderValueSQL renders a literal: strings quoted with ” escaping,
// timestamps quoted so the worker's parser re-coerces them, numbers in
// full precision.
func renderValueSQL(v engine.Value) string {
	if v.Null {
		return "NULL"
	}
	switch v.Kind {
	case engine.TypeString, engine.TypeTime:
		return "'" + strings.ReplaceAll(v.Format(), "'", "''") + "'"
	default:
		return v.Format()
	}
}
