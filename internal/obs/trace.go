package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// TraceHeader is the HTTP header carrying a run's trace ID: set on
// coordinator responses and propagated coordinator→worker on
// /api/shard/exec so a placed run's worker-side spans share the
// coordinator's trace ID.
const TraceHeader = "X-Seedb-Trace"

// maxSpans bounds a single trace's span count so a pathological run
// (thousands of cache lookups) cannot grow memory without bound.
const maxSpans = 512

// Span is one timed segment of a trace. Create via Trace.StartSpan;
// a nil *Span is a no-op so instrumentation never branches.
type Span struct {
	tr    *Trace
	name  string
	start time.Time
	end   time.Time
	attrs []spanAttr
}

type spanAttr struct{ k, v string }

// SetAttr attaches a key/value annotation and returns the span for
// chaining.
func (s *Span) SetAttr(k, v string) *Span {
	if s == nil {
		return nil
	}
	s.tr.mu.Lock()
	s.attrs = append(s.attrs, spanAttr{k, v})
	s.tr.mu.Unlock()
	return s
}

// Finish stamps the span's end time.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.end = time.Now()
	s.tr.mu.Unlock()
}

// Trace collects the spans of one pipeline run. A nil *Trace is a
// no-op (StartSpan returns a nil no-op span).
type Trace struct {
	id    string
	start time.Time
	mu    sync.Mutex
	spans []*Span
}

// ID returns the trace ID ("" for a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// StartSpan begins a named span. Spans past the per-trace cap are
// dropped (a nil span is returned) rather than growing without bound.
func (t *Trace) StartSpan(name string) *Span {
	if t == nil {
		return nil
	}
	sp := &Span{tr: t, name: name, start: time.Now()}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		return nil
	}
	t.spans = append(t.spans, sp)
	return sp
}

// SpanDump is the immutable JSON form of a completed span. Times are
// millisecond offsets from the trace start so a dump is readable
// without timestamp math.
type SpanDump struct {
	Name        string            `json:"name"`
	StartMillis float64           `json:"startMillis"`
	DurMillis   float64           `json:"durMillis"`
	Attrs       map[string]string `json:"attrs,omitempty"`
}

// TraceDump is the immutable JSON form of a completed trace.
type TraceDump struct {
	ID         string     `json:"id"`
	Start      time.Time  `json:"start"`
	WallMillis float64    `json:"wallMillis"`
	Spans      []SpanDump `json:"spans"`
}

func (t *Trace) dump(end time.Time) TraceDump {
	d := TraceDump{
		ID:         t.id,
		Start:      t.start,
		WallMillis: millis(end.Sub(t.start)),
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, sp := range t.spans {
		spEnd := sp.end
		if spEnd.IsZero() {
			spEnd = end // unfinished span: clamp to the trace end
		}
		sd := SpanDump{
			Name:        sp.name,
			StartMillis: millis(sp.start.Sub(t.start)),
			DurMillis:   millis(spEnd.Sub(sp.start)),
		}
		if len(sp.attrs) > 0 {
			sd.Attrs = make(map[string]string, len(sp.attrs))
			for _, a := range sp.attrs {
				sd.Attrs[a.k] = a.v
			}
		}
		d.Spans = append(d.Spans, sd)
	}
	return d
}

func millis(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1000
}

// Tracer owns in-flight traces and a fixed-size ring of completed
// trace dumps, addressable by ID. A nil *Tracer is a no-op.
type Tracer struct {
	capN int
	mu   sync.Mutex
	ring []string // completed IDs, oldest first
	byID map[string]TraceDump
}

// NewTracer builds a tracer retaining the last capacity completed
// traces (minimum 1).
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{capN: capacity, byID: make(map[string]TraceDump)}
}

// New begins a trace with the given ID.
func (tr *Tracer) New(id string) *Trace {
	if tr == nil || id == "" {
		return nil
	}
	return &Trace{id: id, start: time.Now()}
}

// Finish completes t, snapshotting it into the ring buffer (evicting
// the oldest dump past capacity).
func (tr *Tracer) Finish(t *Trace) {
	if tr == nil || t == nil {
		return
	}
	d := t.dump(time.Now())
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if _, dup := tr.byID[d.ID]; dup {
		// Same ID finished twice (coordinator + local worker sharing a
		// ring): keep the newer dump, ring position unchanged.
		tr.byID[d.ID] = d
		return
	}
	tr.ring = append(tr.ring, d.ID)
	tr.byID[d.ID] = d
	for len(tr.ring) > tr.capN {
		delete(tr.byID, tr.ring[0])
		tr.ring = tr.ring[1:]
	}
}

// Get returns the completed trace with the given ID.
func (tr *Tracer) Get(id string) (TraceDump, bool) {
	if tr == nil {
		return TraceDump{}, false
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	d, ok := tr.byID[id]
	return d, ok
}

// Recent returns up to n completed traces, newest first.
func (tr *Tracer) Recent(n int) []TraceDump {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if n <= 0 || n > len(tr.ring) {
		n = len(tr.ring)
	}
	out := make([]TraceDump, 0, n)
	for i := len(tr.ring) - 1; i >= len(tr.ring)-n; i-- {
		out = append(out, tr.byID[tr.ring[i]])
	}
	return out
}

// Len reports how many completed traces are retained.
func (tr *Tracer) Len() int {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.ring)
}

type traceCtxKey struct{}
type captureCtxKey struct{}

// ContextWithTrace attaches t to ctx so downstream layers (cache,
// cluster, phased executor) can record spans against the run's trace.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, t)
}

// TraceFrom returns the trace attached to ctx, or nil.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return t
}

// IDCapture is a mutable cell the scheduler fills with the run's
// trace ID, letting the HTTP layer learn the ID of the (possibly
// coalesced) run its request attached to without changing any public
// call signature.
type IDCapture struct {
	v atomic.Value // string
}

// Set stores the trace ID (first writer wins; a coalesced attach and
// the run creator race benignly to the same value).
func (c *IDCapture) Set(id string) {
	if c == nil || id == "" {
		return
	}
	c.v.Store(id)
}

// Get returns the captured ID, or "".
func (c *IDCapture) Get() string {
	if c == nil {
		return ""
	}
	s, _ := c.v.Load().(string)
	return s
}

// WithIDCapture attaches a fresh capture cell to ctx and returns it.
func WithIDCapture(ctx context.Context) (context.Context, *IDCapture) {
	c := &IDCapture{}
	return context.WithValue(ctx, captureCtxKey{}, c), c
}

// IDCaptureFrom returns the capture cell attached to ctx, or nil.
func IDCaptureFrom(ctx context.Context) *IDCapture {
	c, _ := ctx.Value(captureCtxKey{}).(*IDCapture)
	return c
}

// Hub bundles the two observability facilities a server carries.
type Hub struct {
	Metrics *Registry
	Traces  *Tracer
}

// NewHub builds a hub with an empty registry and a 256-trace ring.
func NewHub() *Hub {
	return &Hub{Metrics: NewRegistry(), Traces: NewTracer(256)}
}
