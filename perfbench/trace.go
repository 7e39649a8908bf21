package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"seedb/internal/core"
	"seedb/internal/engine"
	"seedb/internal/obs"
)

// Span names recorded around the calls into each layer.
const (
	spanRequest      = "request"
	spanStats        = "stats.collect"
	spanCramers      = "stats.cramers"
	spanScan         = "engine.scan"
	spanScatter      = "cluster.scatter"
	spanCacheCompute = "service.cache_compute"
)

// span is one timed call. Spans of one request share its run key (the
// run's trace ID where the service layer assigned one); Parent is the
// request span's ID once resolved.
type span struct {
	ID     int64     `json:"id"`
	Parent int64     `json:"parent,omitempty"`
	Name   string    `json:"name"`
	Key    string    `json:"key,omitempty"`
	Start  time.Time `json:"-"`
	End    time.Time `json:"-"`
	// Offsets from the recorder's start, filled in when written out.
	StartMs float64 `json:"startMs"`
	DurMs   float64 `json:"durMs"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// recorder keeps every span of a traced run in memory until the end.
type recorder struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
	calls atomic.Int64 // backend calls observed (Run + RunSharedScan)
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

type parentKey struct{}

// withParent marks ctx as belonging to request span id. Calls made on
// the request's own goroutines (direct DB calls) carry it; calls made
// on scheduler goroutines carry the run's trace instead.
func withParent(ctx context.Context, id int64) context.Context {
	return context.WithValue(ctx, parentKey{}, id)
}

func (r *recorder) newID() int64 { return r.next.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// child records a span for a call made under ctx.
func (r *recorder) child(ctx context.Context, name string, start, end time.Time) {
	s := span{ID: r.newID(), Name: name, Start: start, End: end}
	if p, ok := ctx.Value(parentKey{}).(int64); ok {
		s.Parent = p
	}
	s.Key = obs.TraceFrom(ctx).ID()
	r.add(s)
}

// timed runs f as a child span of request id.
func (r *recorder) timed(id int64, name string, f func()) {
	start := time.Now()
	f()
	r.add(span{ID: r.newID(), Parent: id, Name: name, Start: start, End: time.Now()})
}

// request records a finished request span.
func (r *recorder) request(id int64, key string, start, end time.Time) {
	r.add(span{ID: id, Name: spanRequest, Key: key, Start: start, End: end})
}

// tree resolves parents and returns each request with its children.
// A child without a direct parent belongs to the request with the
// same run key whose interval contains it; with one request in flight
// at a time that is exactly its caller.
func (r *recorder) tree() []requestSpans {
	r.mu.Lock()
	all := append([]span(nil), r.spans...)
	r.mu.Unlock()
	var reqs []requestSpans
	idx := map[int64]int{}
	for _, s := range all {
		if s.Name == spanRequest {
			idx[s.ID] = len(reqs)
			reqs = append(reqs, requestSpans{req: s})
		}
	}
	for _, s := range all {
		if s.Name == spanRequest {
			continue
		}
		if s.Parent == 0 {
			for _, q := range reqs {
				if q.req.Key == s.Key && !s.Start.Before(q.req.Start) && !s.End.After(q.req.End) {
					s.Parent = q.req.ID
					break
				}
			}
		}
		if i, ok := idx[s.Parent]; ok {
			reqs[i].children = append(reqs[i].children, s)
		}
	}
	return reqs
}

// requestSpans is one request and the layer calls made for it.
type requestSpans struct {
	req      span
	children []span
}

// covered returns how much of the request's interval the named
// children cover (all children when names is empty). Children run in
// parallel, so overlapping intervals count once.
func (q requestSpans) covered(names ...string) time.Duration {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	var iv [][2]time.Time
	for _, c := range q.children {
		if len(want) == 0 || want[c.Name] {
			iv = append(iv, [2]time.Time{c.Start, c.End})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	var curS, curE time.Time
	for i, v := range iv {
		if i == 0 || v[0].After(curE) {
			if i > 0 {
				total += curE.Sub(curS)
			}
			curS, curE = v[0], v[1]
		} else if v[1].After(curE) {
			curE = v[1]
		}
	}
	if len(iv) > 0 {
		total += curE.Sub(curS)
	}
	return total
}

// write dumps every span, parented by request, as JSON.
func (r *recorder) write(path string, env envBlock, workload string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	type reqDump struct {
		Request  span   `json:"request"`
		Children []span `json:"children"`
	}
	out := struct {
		Env      envBlock  `json:"env"`
		Workload string    `json:"workload"`
		Requests []reqDump `json:"requests"`
	}{Env: env, Workload: workload}
	off := func(s span) span {
		s.StartMs = ms(s.Start.Sub(r.t0))
		s.DurMs = ms(s.dur())
		return s
	}
	for _, q := range r.tree() {
		d := reqDump{Request: off(q.req)}
		for _, c := range q.children {
			d.Children = append(d.Children, off(c))
		}
		out.Requests = append(out.Requests, d)
	}
	b, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// tracedBackend forwards every call to the wrapped backend and records
// a span around it. It only observes: Signature is forwarded too, so
// exec-cache keys are unchanged.
type tracedBackend struct {
	inner core.Backend
	rec   *recorder
	name  string
}

func (b *tracedBackend) Run(ctx context.Context, q *engine.Query) (*engine.Result, error) {
	start := time.Now()
	res, err := b.inner.Run(ctx, q)
	b.rec.child(ctx, b.name, start, time.Now())
	b.rec.calls.Add(1)
	return res, err
}

func (b *tracedBackend) RunSharedScan(ctx context.Context, q *engine.Query, gsets []engine.GroupingSet) ([]*engine.Result, error) {
	start := time.Now()
	res, err := b.inner.RunSharedScan(ctx, q, gsets)
	b.rec.child(ctx, b.name, start, time.Now())
	b.rec.calls.Add(1)
	return res, err
}

func (b *tracedBackend) Signature() string { return b.inner.Signature() }

// tracedCache forwards lookups to the wrapped exec cache and records a
// span around every compute the cache asks for (a miss).
type tracedCache struct {
	inner core.ExecCache
	rec   *recorder
}

func (c *tracedCache) GetOrCompute(ctx context.Context, key string, compute func() ([]*engine.Result, bool, error)) ([]*engine.Result, error) {
	return c.inner.GetOrCompute(ctx, key, func() ([]*engine.Result, bool, error) {
		start := time.Now()
		res, ok, err := compute()
		c.rec.child(ctx, spanCacheCompute, start, time.Now())
		return res, ok, err
	})
}

// installTracing wraps the engine's backend and exec cache (if any) in
// the observing decorators. scanName names the backend spans.
func installTracing(eng *core.Engine, rec *recorder, scanName string) {
	eng.SetBackend(&tracedBackend{inner: eng.Backend(), rec: rec, name: scanName})
	if c := eng.Cache(); c != nil {
		eng.SetCache(&tracedCache{inner: c, rec: rec})
	}
}
