package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"seedb/internal/engine"
)

// PlacementWorker is what the placement layer needs from a worker
// node: shard execution plus fragment lifecycle (ship, list, append,
// drop). RemoteShard implements it over HTTP; MemberShard implements
// it in-process.
type PlacementWorker interface {
	Shard
	TableSyncer
	Ingest(ctx context.Context, req *IngestRequest) (*IngestResponse, error)
	DropTable(ctx context.Context, name string) error
}

// MemberShard is an in-process placement worker with its OWN catalog
// and executor: it genuinely holds only the fragments shipped to it,
// so single-binary tests exercise the same data movement a remote
// fleet does — including the failure mode where a fragment was never
// shipped. The root-package golden placement tests are built on it
// (they cannot import the HTTP frontend without an import cycle).
type MemberShard struct {
	id  string
	cat *engine.Catalog
	ex  *engine.Executor

	// gate, when set, is consulted before every operation with the
	// operation name ("exec", "ingest", "sync", "drop", "hashes",
	// "health"); a non-nil result simulates the worker being
	// unreachable. Fault-injection tests flip it mid-run.
	gate atomic.Pointer[func(op string) error]
}

// NewMemberShard creates an empty in-process worker.
func NewMemberShard(id string) *MemberShard {
	cat := engine.NewCatalog()
	return &MemberShard{id: id, cat: cat, ex: engine.NewExecutor(cat)}
}

// ID implements Shard.
func (m *MemberShard) ID() string { return m.id }

// Catalog exposes the worker's private catalog so tests can assert
// which fragments it actually holds.
func (m *MemberShard) Catalog() *engine.Catalog { return m.cat }

// SetGate installs (or, with nil, removes) the fault-injection hook.
func (m *MemberShard) SetGate(gate func(op string) error) {
	if gate == nil {
		m.gate.Store(nil)
		return
	}
	m.gate.Store(&gate)
}

func (m *MemberShard) pass(op string) error {
	if g := m.gate.Load(); g != nil {
		return (*g)(op)
	}
	return nil
}

// Health implements Shard.
func (m *MemberShard) Health(context.Context) error { return m.pass("health") }

// ExecPartials implements Shard against the worker's own catalog —
// the same ExecShardRequest path a remote worker's HTTP handler runs,
// content-hash verification included.
func (m *MemberShard) ExecPartials(ctx context.Context, req *ShardRequest) (*ShardResponse, error) {
	if err := m.pass("exec"); err != nil {
		return nil, err
	}
	resp, _, err := ExecShardRequest(ctx, m.ex, req)
	if err != nil {
		var mm *FingerprintMismatchError
		if errors.As(err, &mm) {
			mm.Shard = m.id
		}
		return nil, err
	}
	return resp, nil
}

// Ingest appends a forwarded batch to one of the worker's fragments.
func (m *MemberShard) Ingest(ctx context.Context, req *IngestRequest) (*IngestResponse, error) {
	if err := m.pass("ingest"); err != nil {
		return nil, err
	}
	t, err := m.cat.Table(req.Table)
	if err != nil {
		return nil, fmt.Errorf("cluster: member %s: %w", m.id, err)
	}
	typed, err := t.ParseRows(req.Rows)
	if err != nil {
		return nil, err
	}
	total, err := m.cat.Append(t, typed)
	if err != nil {
		return nil, err
	}
	resp := &IngestResponse{Table: req.Table, Appended: len(req.Rows), Rows: total}
	if req.Verify {
		if resp.ContentHash, err = t.ContentHash(); err != nil {
			return nil, err
		}
	}
	return resp, nil
}

// TableHashes implements TableSyncer: the content hash of every
// fragment this worker holds.
func (m *MemberShard) TableHashes(ctx context.Context) (map[string]string, error) {
	if err := m.pass("hashes"); err != nil {
		return nil, err
	}
	out := map[string]string{}
	for _, name := range m.cat.TableNames() {
		t, err := m.cat.Table(name)
		if err != nil {
			continue
		}
		h, err := t.ContentHash()
		if err != nil {
			return nil, err
		}
		out[name] = h
	}
	return out, nil
}

// SyncTable implements TableSyncer: accept a serialized fragment and
// swap it in wholesale, exactly like a remote worker's /api/shard/sync.
func (m *MemberShard) SyncTable(ctx context.Context, table string, snapshot []byte) (*SyncResponse, error) {
	if err := m.pass("sync"); err != nil {
		return nil, err
	}
	t, err := engine.ReadTable(bytes.NewReader(snapshot))
	if err != nil {
		return nil, fmt.Errorf("cluster: member %s: parsing sync snapshot: %w", m.id, err)
	}
	if t.Name() != table {
		return nil, fmt.Errorf("cluster: member %s: sync snapshot is of table %q, not %q", m.id, t.Name(), table)
	}
	chash, err := t.ContentHash()
	if err != nil {
		return nil, err
	}
	m.cat.Drop(table)
	if err := m.cat.Register(t); err != nil {
		return nil, err
	}
	return &SyncResponse{Table: table, Rows: t.NumRows(), ContentHash: chash}, nil
}

// DropTable removes a fragment this worker no longer owns.
func (m *MemberShard) DropTable(ctx context.Context, name string) error {
	if err := m.pass("drop"); err != nil {
		return err
	}
	m.cat.Drop(name)
	return nil
}
