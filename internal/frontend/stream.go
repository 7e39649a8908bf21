package frontend

// GET /api/recommend/stream — progressive recommendations over
// Server-Sent Events.
//
// The blocking /api/recommend endpoint pays worst-case latency: the
// client sees nothing until the last view query finishes. This
// endpoint streams the same computation progressively: with phased
// execution (the "phases" parameter) the analyst watches the ranking
// converge while later phases are still running.
//
// Event types:
//
//	phase  — one interim (or final) ranking snapshot
//	prune  — views discarded by confidence-interval pruning this phase
//	done   — the finished recommendation; its payload is byte-identical
//	         to the blocking POST /api/recommend response body for the
//	         same request (modulo the trailing newline the blocking
//	         encoder appends)
//	error  — terminal failure ({"error": "..."})
//
// Every event carries an id of the form "<digest>:<seq>" where digest
// fingerprints (table version, SQL, effective options). A client that
// reconnects with a Last-Event-ID whose digest still matches skips the
// re-stream: the server re-runs the request through the blocking path
// — served from the exec cache that the original run warmed — and
// emits only the done event. A stale digest (the table changed, or
// different parameters) restarts the stream from scratch.
//
// The stream composes with every backend and scan split: on a
// placement cluster each phase is scattered, merged exactly, and only
// then snapshotted, so progressive delivery never changes result bytes
// (the done payload is pinned byte-identical to the blocking response
// across scan splits by TestStreamDoneMatchesBlocking).
import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"seedb"
	"seedb/internal/obs"
)

// streamEntryJSON is one ranked view inside a phase or prune event.
type streamEntryJSON struct {
	Title     string  `json:"title"`
	Dimension string  `json:"dimension"`
	Measure   string  `json:"measure"`
	Func      string  `json:"func"`
	BinWidth  float64 `json:"binWidth,omitempty"`
	Utility   float64 `json:"utility"`
	// Lower / Upper bound the true utility with the run's confidence;
	// equal to Utility on the final snapshot.
	Lower float64 `json:"lower"`
	Upper float64 `json:"upper"`
}

// streamPhaseJSON is the payload of a "phase" event.
type streamPhaseJSON struct {
	Phase       int     `json:"phase"`
	Phases      int     `json:"phases"`
	Final       bool    `json:"final"`
	Epsilon     float64 `json:"epsilon"`
	Survivors   int     `json:"survivors"`
	PrunedTotal int     `json:"prunedTotal"`
	// Ranking holds the current top views (capped at the request's k),
	// best first.
	Ranking []streamEntryJSON `json:"ranking"`
	// Trace is the run's trace ID (also in the X-Seedb-Trace response
	// header), present only with observability on. It rides on the
	// progress events, never on done — the done payload is pinned
	// byte-identical to the blocking response.
	Trace string `json:"trace,omitempty"`
}

// streamPruneJSON is the payload of a "prune" event.
type streamPruneJSON struct {
	Phase int               `json:"phase"`
	Views []streamEntryJSON `json:"views"`
	Trace string            `json:"trace,omitempty"`
}

func toStreamEntry(e seedb.ProgressEntry) streamEntryJSON {
	return streamEntryJSON{
		Title:     e.View.String(),
		Dimension: e.View.Dimension,
		Measure:   e.View.Measure,
		Func:      e.View.Func.String(),
		BinWidth:  e.View.BinWidth,
		Utility:   e.Utility,
		Lower:     e.Lower,
		Upper:     e.Upper,
	}
}

// streamRequestFromQuery maps URL query parameters onto the same
// request shape the blocking endpoint decodes from its JSON body (an
// EventSource can only GET). Tri-state toggles stay absent unless the
// parameter is present.
func streamRequestFromQuery(r *http.Request) (recommendRequest, error) {
	q := r.URL.Query()
	req := recommendRequest{
		SQL:            q.Get("sql"),
		Session:        q.Get("session"),
		Metric:         q.Get("metric"),
		Operator:       q.Get("operator"),
		ProbeDimension: q.Get("probeDimension"),
		ProbeMeasure:   q.Get("probeMeasure"),
		ProbeFunc:      q.Get("probeFunc"),
	}
	if q.Has("probeBin") {
		f, err := strconv.ParseFloat(q.Get("probeBin"), 64)
		if err != nil {
			return req, fmt.Errorf("frontend: bad probeBin %q", q.Get("probeBin"))
		}
		req.ProbeBin = f
	}
	intParam := func(name string) (*int, error) {
		if !q.Has(name) {
			return nil, nil
		}
		v, err := strconv.Atoi(q.Get(name))
		if err != nil {
			return nil, fmt.Errorf("frontend: bad %s %q", name, q.Get(name))
		}
		return &v, nil
	}
	boolParam := func(name string) (*bool, error) {
		if !q.Has(name) {
			return nil, nil
		}
		v, err := strconv.ParseBool(q.Get(name))
		if err != nil {
			return nil, fmt.Errorf("frontend: bad %s %q", name, q.Get(name))
		}
		return &v, nil
	}
	if k, err := intParam("k"); err != nil {
		return req, err
	} else if k != nil {
		req.K = *k
	}
	if n, err := boolParam("normalized"); err != nil {
		return req, err
	} else if n != nil {
		req.Normalized = *n
	}
	var err error
	if req.ShowWorst, err = boolParam("showWorst"); err != nil {
		return req, err
	}
	if req.DisablePruning, err = boolParam("disablePruning"); err != nil {
		return req, err
	}
	if req.DisableCombining, err = boolParam("disableCombining"); err != nil {
		return req, err
	}
	if req.Phases, err = intParam("phases"); err != nil {
		return req, err
	}
	if q.Has("sampleFraction") {
		f, err := strconv.ParseFloat(q.Get("sampleFraction"), 64)
		if err != nil {
			return req, fmt.Errorf("frontend: bad sampleFraction %q", q.Get("sampleFraction"))
		}
		req.SampleFraction = &f
	}
	return req, nil
}

// streamDigest fingerprints everything that determines a stream's
// content: the table version, the SQL text, and the effective options.
// It prefixes every event id, so Last-Event-ID carries enough context
// to tell "resume this exact request" from "parameters or data
// changed, start over".
func (s *Server) streamDigest(table, sqlText string, opts seedb.Options) string {
	fp := ""
	if t, err := s.db.Table(table); err == nil {
		fp = t.Fingerprint()
	}
	sum := sha256.Sum256(fmt.Appendf(nil, "%s\n%s\n%+v", fp, sqlText, opts))
	return hex.EncodeToString(sum[:8])
}

// sseWriter frames Server-Sent Events. Every write flushes: streaming
// is the point.
type sseWriter struct {
	w  http.ResponseWriter
	fl http.Flusher
}

// event writes one SSE frame. id may be empty. v marshals to the data
// line; SSE terminates frames with a blank line.
func (s sseWriter) event(id, event string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if id != "" {
		if _, err := fmt.Fprintf(s.w, "id: %s\n", id); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(s.w, "event: %s\ndata: %s\n\n", event, data); err != nil {
		return err
	}
	s.fl.Flush()
	return nil
}

func (s sseWriter) error(err error) {
	_ = s.event("", "error", map[string]string{"error": err.Error()})
}

// handleRecommendStream serves GET /api/recommend/stream.
func (s *Server) handleRecommendStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, http.StatusInternalServerError, fmt.Errorf("frontend: response writer does not support streaming"))
		return
	}
	req, err := streamRequestFromQuery(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.SQL == "" {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("frontend: missing sql"))
		return
	}
	sess, err := s.session(req.Session)
	if err != nil {
		s.writeError(w, http.StatusNotFound, err)
		return
	}
	opts := s.optionsFrom(req, sess.Options())
	table, _, err := s.parseAnalystQuery(req.SQL)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	digest := s.streamDigest(table, req.SQL, opts)

	// Streams get their own, longer deadline: a multi-phase run is
	// SUPPOSED to outlive the blocking-request budget — that is the
	// point of streaming it. On expiry the client still gets a
	// terminal error event (the select below fires even while the
	// subscriber channel is quiet).
	ctx, cancel := context.WithTimeout(r.Context(), s.streamTimeout)
	defer cancel()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no") // defeat proxy buffering
	sse := sseWriter{w: w, fl: fl}

	// Resume: a reconnecting client whose Last-Event-ID digest still
	// matches this request gets just the final answer — recomputed
	// through the blocking path, which the original run's exec-cache
	// entries make cheap — instead of a full re-stream.
	lastID := r.Header.Get("Last-Event-ID")
	if lastID == "" {
		lastID = r.URL.Query().Get("lastEventId")
	}
	if d, _, ok := strings.Cut(lastID, ":"); ok && d == digest {
		capCtx, capt := obs.WithIDCapture(ctx)
		res, err := sess.RecommendSQL(capCtx, req.SQL, &opts)
		if id := capt.Get(); id != "" {
			w.Header().Set(obs.TraceHeader, id)
		}
		if err != nil {
			// Nothing has been flushed yet, so a shed can still answer
			// 503 + Retry-After; other failures stay stream errors.
			var ov *seedb.ErrOverloaded
			if errors.As(err, &ov) {
				s.writeRecommendError(w, err)
				return
			}
			sse.error(err)
			return
		}
		_ = sse.event(digest+":done", "done", s.recommendResponseFrom(res, req.Normalized))
		return
	}

	st, err := sess.RecommendSQLStream(ctx, req.SQL, &opts)
	if err != nil {
		// Admission and parse failures are synchronous and nothing has
		// been written yet, so they can still use plain HTTP statuses
		// (503 + Retry-After for a shed, 400 otherwise).
		s.writeRecommendError(w, err)
		return
	}
	// Nothing has been flushed yet, so the run's trace ID (shared by
	// every request coalesced onto it) can still travel as a header.
	traceID := st.TraceID()
	if traceID != "" {
		w.Header().Set(obs.TraceHeader, traceID)
	}
	sub := st.Subscribe(0)
	defer sub.Close()
	seq := 0
	for {
		var ev seedb.StreamEvent
		var ok bool
		select {
		case ev, ok = <-sub.Events():
			if !ok {
				return
			}
		case <-ctx.Done():
			// The stream deadline (or the client) expired while the run
			// was still working; terminate this subscriber with an error
			// event. The run itself keeps going if other requests are
			// attached to it.
			sse.error(ctx.Err())
			return
		}
		switch {
		case ev.Err != nil:
			sse.error(ev.Err)
			return
		case ev.Result != nil:
			_ = sse.event(digest+":done", "done", s.recommendResponseFrom(ev.Result, req.Normalized))
			return
		default:
			snap := ev.Snapshot
			seq++
			if len(snap.PrunedNow) > 0 {
				prune := streamPruneJSON{Phase: snap.Phase, Trace: traceID, Views: make([]streamEntryJSON, len(snap.PrunedNow))}
				for i, e := range snap.PrunedNow {
					prune.Views[i] = toStreamEntry(e)
				}
				if err := sse.event(fmt.Sprintf("%s:%d-prune", digest, seq), "prune", prune); err != nil {
					return
				}
			}
			phase := streamPhaseJSON{
				Phase:       snap.Phase,
				Phases:      snap.Phases,
				Final:       snap.Final,
				Epsilon:     snap.Epsilon,
				Survivors:   snap.Survivors,
				PrunedTotal: snap.PrunedTotal,
				Ranking:     []streamEntryJSON{},
				Trace:       traceID,
			}
			top := snap.Ranking
			if k := opts.K; k > 0 && len(top) > k {
				top = top[:k]
			}
			for _, e := range top {
				phase.Ranking = append(phase.Ranking, toStreamEntry(e))
			}
			if err := sse.event(fmt.Sprintf("%s:%d", digest, seq), "phase", phase); err != nil {
				return
			}
		}
	}
}
