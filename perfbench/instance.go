package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sort"
	"time"

	"seedb"
	"seedb/internal/frontend"
	"seedb/internal/sql"
	"seedb/internal/stats"
)

// ingestLog collects the latency of every DB.Append a workload makes.
type ingestLog struct {
	lat  []float64 // ms per batch
	rows int64
	busy time.Duration // time inside Append
}

// appendTimed appends one batch and records how long the call took.
func (l *ingestLog) appendTimed(db *seedb.DB, rows [][]seedb.Value) error {
	start := time.Now()
	_, err := db.Append(tableName, rows)
	d := time.Since(start)
	if err != nil {
		return err
	}
	l.lat = append(l.lat, ms(d))
	l.rows += int64(len(rows))
	l.busy += d
	return nil
}

// loadInstance opens a fresh instance and loads src into it through
// DB.Append in 2,000-row batches, the ingest path every workload's
// table goes through. The table and the instance are new, so nothing
// about them is memoized yet.
func loadInstance(src *seedb.Table, ingest *ingestLog) (*seedb.DB, error) {
	db := seedb.Open()
	t, err := seedb.NewTable(tableName, src.Schema())
	if err != nil {
		return nil, err
	}
	if err := db.RegisterTable(t); err != nil {
		return nil, err
	}
	for lo := 0; lo < src.NumRows(); lo += batchRows {
		hi := min(lo+batchRows, src.NumRows())
		if err := ingest.appendTimed(db, tableRows(src, lo, hi)); err != nil {
			return nil, fmt.Errorf("loading rows %d-%d: %w", lo, hi, err)
		}
	}
	return db, nil
}

// clusterDims returns the dimensions the pruner clusters by Cramér's V
// for a query filtering on predCols, listed as the program lists them:
// the unbinned dimensions other than the predicate's columns that
// survive low-variance pruning, sorted by name. The collector memoizes
// clusterings on the exact column list and keeps each pair's state
// under its ordered names, so only this list makes a direct
// CorrelationClusters call do the work the query's Recommend then
// reuses.
func clusterDims(ts *stats.TableStats, schema seedb.Schema, predCols []string, opts seedb.Options) []string {
	skip := map[string]bool{}
	for _, c := range predCols {
		skip[c] = true
	}
	var dims []string
	for _, def := range schema {
		cs, err := ts.Column(def.Name)
		if err != nil || skip[def.Name] || !cs.IsDimension(opts.MaxGroupsPerDim) {
			continue
		}
		if opts.PruneLowVariance && (cs.Distinct <= 1 || cs.NormEntropy < opts.VarianceMinEntropy) {
			continue
		}
		dims = append(dims, def.Name)
	}
	sort.Strings(dims)
	return dims
}

// predicateColumns returns the columns an analyst query's WHERE clause
// filters on.
func predicateColumns(db *seedb.DB, q string) ([]string, error) {
	_, where, _, err := sql.AnalystQueryExplore(q, db.Engine().Executor().Catalog())
	if err != nil || where == nil {
		return nil, err
	}
	return where.Columns(), nil
}

// warmMetadata collects the table's statistics and the Cramér's V state
// of every pair of its dimensions, as an analyst's first request would:
// any query's dimension list is a sorted subset of the full one, so its
// clustering reuses these pairs.
func warmMetadata(db *seedb.DB) error {
	t, err := db.Table(tableName)
	if err != nil {
		return err
	}
	col := db.Engine().Collector()
	opts := seedb.DefaultOptions()
	_, err = col.CorrelationClusters(t, clusterDims(col.Stats(t), t.Schema(), nil, opts), opts.CorrelationThreshold)
	return err
}

// httpServer is the real frontend served on a loopback port.
type httpServer struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func startHTTP(db *seedb.DB) (*httpServer, error) {
	handler := frontend.NewWithConfig(db, seedb.ServeConfig{}, nil, log.New(io.Discard, "", 0))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s := &httpServer{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: handler}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed once stop runs
	}()
	return s, nil
}

// stop shuts the server down and waits for in-flight requests.
func (s *httpServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // the benchmark is done with it either way
	<-s.done
}
