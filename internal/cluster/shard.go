package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"seedb/internal/engine"
	"seedb/internal/obs"
)

// Shard executes partial aggregation over an assigned row range of a
// table (or fragment) a worker holds. Implementations: RemoteShard
// (HTTP worker node) and MemberShard (in-process worker).
type Shard interface {
	// ID names the shard for logs, stats, and failure accounting.
	ID() string
	// ExecPartials runs the request and returns partition-mergeable
	// partials, one per grouping set.
	ExecPartials(ctx context.Context, req *ShardRequest) (*ShardResponse, error)
	// Health probes liveness (and, for remote shards, data presence).
	Health(ctx context.Context) error
}

// ExecShardRequest is the single worker-side implementation behind
// both MemberShard and the HTTP /api/shard/exec handler: verify the
// replica's content hash, decode the wire query, run partials. The
// returned status is what an HTTP server should answer with on error
// (a 409 still carries a response so the coordinator learns this
// replica's hash).
func ExecShardRequest(ctx context.Context, ex *engine.Executor, req *ShardRequest) (*ShardResponse, int, error) {
	t, err := ex.Catalog().Table(req.Table)
	if err != nil {
		return nil, http.StatusNotFound, err
	}
	fp, err := t.ContentHash()
	if err != nil {
		return nil, http.StatusInternalServerError, err
	}
	if req.ContentHash != "" && fp != req.ContentHash {
		return &ShardResponse{ContentHash: fp}, http.StatusConflict,
			&FingerprintMismatchError{Shard: "local", Table: req.Table, Want: req.ContentHash, Got: fp}
	}
	q, gsets, err := req.Decode(ex.Catalog())
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	partials, err := ex.RunPartials(ctx, q, gsets)
	if err != nil {
		return nil, http.StatusInternalServerError, err
	}
	return &ShardResponse{ContentHash: fp, Partials: partials}, http.StatusOK, nil
}

// queryFaultError marks a failure that is deterministic in the query
// itself — an unserializable predicate, or a request the worker
// rejected as malformed. Retrying would fail identically and the shard
// is not at fault, so the coordinator neither retries nor penalizes
// worker health; the range just runs on the local replica.
type queryFaultError struct{ err error }

func (e *queryFaultError) Error() string { return e.err.Error() }
func (e *queryFaultError) Unwrap() error { return e.err }

// FingerprintMismatchError reports a worker whose table replica
// diverged from the coordinator's. It is permanent until the operator
// reloads data, so the coordinator marks the shard unhealthy instead
// of retrying.
type FingerprintMismatchError struct {
	Shard string
	Table string
	Want  string
	Got   string
}

func (e *FingerprintMismatchError) Error() string {
	return fmt.Sprintf("cluster: shard %s table %q replica diverged (want fingerprint %s, got %s)",
		e.Shard, e.Table, e.Want, e.Got)
}

// ---------------------------------------------------------------------
// RemoteShard

// RemoteShard executes shard requests on a worker node over HTTP (the
// worker is an ordinary seedb server; see the frontend's
// /api/shard/exec). The zero timeout uses DefaultRemoteTimeout.
type RemoteShard struct {
	id       string
	baseURL  string
	client   *http.Client
	maxReply int64
}

// DefaultRemoteTimeout bounds one shard exchange.
const DefaultRemoteTimeout = 30 * time.Second

// MaxReplyBytes bounds one decoded worker reply on the success path.
// Partials for a full view plan stay far below it; a larger reply is
// treated as a worker fault (retried, then failed over to the next
// owner or the coordinator), never as an unbounded allocation.
const MaxReplyBytes = 256 << 20

// decodeReply decodes one JSON reply of at most s.maxReply bytes.
func (s *RemoteShard) decodeReply(r io.Reader, v any) error {
	lr := &io.LimitedReader{R: r, N: s.maxReply + 1}
	err := json.NewDecoder(lr).Decode(v)
	if lr.N <= 0 {
		return fmt.Errorf("reply exceeds %d bytes", s.maxReply)
	}
	return err
}

// NewRemoteShard points a shard at a worker's base URL, e.g.
// "http://worker-3:8080".
func NewRemoteShard(baseURL string, timeout time.Duration) *RemoteShard {
	if timeout <= 0 {
		timeout = DefaultRemoteTimeout
	}
	return &RemoteShard{
		id:       baseURL,
		baseURL:  baseURL,
		client:   &http.Client{Timeout: timeout},
		maxReply: MaxReplyBytes,
	}
}

// ID implements Shard.
func (s *RemoteShard) ID() string { return s.id }

// URL returns the worker's base URL.
func (s *RemoteShard) URL() string { return s.baseURL }

// ExecPartials implements Shard.
func (s *RemoteShard) ExecPartials(ctx context.Context, req *ShardRequest) (*ShardResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, s.baseURL+"/api/shard/exec", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	// Propagate the run's trace ID so the worker records its spans under
	// the coordinator's trace ID in its own ring.
	if id := obs.TraceFrom(ctx).ID(); id != "" {
		hreq.Header.Set(obs.TraceHeader, id)
	}
	hres, err := s.client.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("cluster: shard %s: %w", s.id, err)
	}
	defer hres.Body.Close()
	if hres.StatusCode == http.StatusConflict {
		// The worker refused because its replica diverged; surface the
		// typed error (with the worker's own content hash) so the
		// coordinator stops retrying.
		msg, _ := io.ReadAll(io.LimitReader(hres.Body, 4096))
		var body struct {
			ContentHash string `json:"contentHash"`
		}
		got := string(bytes.TrimSpace(msg))
		if json.Unmarshal(msg, &body) == nil && body.ContentHash != "" {
			got = body.ContentHash
		}
		return nil, &FingerprintMismatchError{Shard: s.id, Table: req.Table, Want: req.ContentHash, Got: got}
	}
	if hres.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(hres.Body, 4096))
		err := fmt.Errorf("cluster: shard %s: HTTP %d: %s", s.id, hres.StatusCode, bytes.TrimSpace(msg))
		if hres.StatusCode == http.StatusBadRequest {
			// The worker parsed our request and rejected it: the query,
			// not the shard, is at fault.
			return nil, &queryFaultError{err: err}
		}
		return nil, err
	}
	var resp ShardResponse
	if err := s.decodeReply(hres.Body, &resp); err != nil {
		return nil, fmt.Errorf("cluster: shard %s: decoding response: %w", s.id, err)
	}
	return &resp, nil
}

// Ingest forwards a batched append to the worker's /api/ingest
// endpoint and returns its post-append table state.
func (s *RemoteShard) Ingest(ctx context.Context, req *IngestRequest) (*IngestResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, s.baseURL+"/api/ingest", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hres, err := s.client.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("cluster: shard %s ingest: %w", s.id, err)
	}
	defer hres.Body.Close()
	if hres.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(hres.Body, 4096))
		return nil, fmt.Errorf("cluster: shard %s ingest: HTTP %d: %s", s.id, hres.StatusCode, bytes.TrimSpace(msg))
	}
	var resp IngestResponse
	if err := s.decodeReply(hres.Body, &resp); err != nil {
		return nil, fmt.Errorf("cluster: shard %s ingest: decoding response: %w", s.id, err)
	}
	return &resp, nil
}

// TableSyncer is the shard capability behind fragment shipping: report
// the worker's table content hashes, and accept a wholesale table
// replacement from the coordinator's serialized snapshot.
type TableSyncer interface {
	TableHashes(ctx context.Context) (map[string]string, error)
	SyncTable(ctx context.Context, table string, snapshot []byte) (*SyncResponse, error)
}

// SyncResponse is the worker's post-replacement table state, which the
// coordinator verifies against its own ContentHash — the same
// handshake every routed request uses.
type SyncResponse struct {
	Table       string `json:"table"`
	Rows        int    `json:"rows"`
	ContentHash string `json:"contentHash"`
}

// TableHashes implements TableSyncer over GET /api/shard/health, which
// already reports every replica table's content hash.
func (s *RemoteShard) TableHashes(ctx context.Context) (map[string]string, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, s.baseURL+"/api/shard/health", nil)
	if err != nil {
		return nil, err
	}
	hres, err := s.client.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("cluster: shard %s hashes: %w", s.id, err)
	}
	defer hres.Body.Close()
	if hres.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: shard %s hashes: HTTP %d", s.id, hres.StatusCode)
	}
	var body struct {
		Tables map[string]struct {
			ContentHash string `json:"contentHash"`
		} `json:"tables"`
	}
	if err := s.decodeReply(hres.Body, &body); err != nil {
		return nil, fmt.Errorf("cluster: shard %s hashes: decoding response: %w", s.id, err)
	}
	hashes := make(map[string]string, len(body.Tables))
	for name, t := range body.Tables {
		hashes[name] = t.ContentHash
	}
	return hashes, nil
}

// SyncTable implements TableSyncer: it streams a serialized table
// snapshot to the worker's /api/shard/sync endpoint, which replaces
// its replica wholesale and reports the post-replacement hash.
func (s *RemoteShard) SyncTable(ctx context.Context, table string, snapshot []byte) (*SyncResponse, error) {
	u := s.baseURL + "/api/shard/sync?table=" + url.QueryEscape(table)
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(snapshot))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/octet-stream")
	hres, err := s.client.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("cluster: shard %s sync: %w", s.id, err)
	}
	defer hres.Body.Close()
	if hres.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(hres.Body, 4096))
		return nil, fmt.Errorf("cluster: shard %s sync %q: HTTP %d: %s", s.id, table, hres.StatusCode, bytes.TrimSpace(msg))
	}
	var resp SyncResponse
	if err := s.decodeReply(hres.Body, &resp); err != nil {
		return nil, fmt.Errorf("cluster: shard %s sync: decoding response: %w", s.id, err)
	}
	return &resp, nil
}

// DropTable asks the worker to remove a table (fragment) it no longer
// owns, via POST /api/shard/drop. Dropping a name the worker does not
// hold succeeds — rebalance converges by re-issuing drops.
func (s *RemoteShard) DropTable(ctx context.Context, name string) error {
	u := s.baseURL + "/api/shard/drop?table=" + url.QueryEscape(name)
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, u, nil)
	if err != nil {
		return err
	}
	hres, err := s.client.Do(hreq)
	if err != nil {
		return fmt.Errorf("cluster: shard %s drop: %w", s.id, err)
	}
	defer hres.Body.Close()
	if hres.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(hres.Body, 4096))
		return fmt.Errorf("cluster: shard %s drop %q: HTTP %d: %s", s.id, name, hres.StatusCode, bytes.TrimSpace(msg))
	}
	return nil
}

// Health implements Shard: GET /api/shard/health must answer 200.
func (s *RemoteShard) Health(ctx context.Context) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, s.baseURL+"/api/shard/health", nil)
	if err != nil {
		return err
	}
	hres, err := s.client.Do(hreq)
	if err != nil {
		return err
	}
	defer hres.Body.Close()
	if hres.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: shard %s health: HTTP %d", s.id, hres.StatusCode)
	}
	return nil
}
