package server

import (
	"net/http"
	"sync"
	"time"

	"igdb/internal/obs"
)

// QueryLogEntry is one recorded /sql statement that crossed the slow-query
// threshold (or any statement when the threshold is negative). Fingerprint
// links the entry to its aggregate under GET /debug/statements.
type QueryLogEntry struct {
	Time        time.Time   `json:"time"`
	RequestID   string      `json:"request_id,omitempty"`
	SQL         string      `json:"sql"`
	Fingerprint string      `json:"fingerprint,omitempty"`
	Rows        int         `json:"rows"`
	DurationMs  float64     `json:"duration_ms"`
	CacheHit    bool        `json:"cache_hit"`
	Err         string      `json:"error,omitempty"`
	Trace       []TraceSpan `json:"trace,omitempty"`
}

// TraceSpan is one executor span flattened for the slow-query log: where a
// slow statement actually spent its time (parse, exec, and — under EXPLAIN
// ANALYZE — each plan operator).
type TraceSpan struct {
	Name       string                 `json:"name"`
	Parent     string                 `json:"parent,omitempty"`
	StartMs    float64                `json:"start_ms"`
	DurationMs float64                `json:"duration_ms"`
	Attrs      map[string]interface{} `json:"attrs,omitempty"`
}

// traceFromSpan flattens a finished span tree into TraceSpan rows.
func traceFromSpan(sp *obs.Span) []TraceSpan {
	infos := sp.Flatten()
	if len(infos) == 0 {
		return nil
	}
	out := make([]TraceSpan, len(infos))
	for i, in := range infos {
		ts := TraceSpan{
			Name:       in.Name,
			Parent:     in.Parent,
			StartMs:    in.StartMs,
			DurationMs: in.DurationMs,
		}
		if len(in.Attrs) > 0 {
			ts.Attrs = make(map[string]interface{}, len(in.Attrs))
			for _, f := range in.Attrs {
				ts.Attrs[f.Key] = f.Val
			}
		}
		out[i] = ts
	}
	return out
}

// queryLog is a fixed-capacity ring buffer of slow queries. Writers never
// block readers for long: add and entries both take one short mutex.
type queryLog struct {
	mu   sync.Mutex
	buf  []QueryLogEntry // guarded by mu
	next int             // guarded by mu; index the next entry lands on
	full bool            // guarded by mu
}

func newQueryLog(capacity int) *queryLog {
	if capacity <= 0 {
		capacity = 128
	}
	return &queryLog{buf: make([]QueryLogEntry, capacity)}
}

func (q *queryLog) add(e QueryLogEntry) {
	q.mu.Lock()
	q.buf[q.next] = e
	q.next++
	if q.next == len(q.buf) {
		q.next = 0
		q.full = true
	}
	q.mu.Unlock()
}

// entries returns the recorded queries, newest first.
func (q *queryLog) entries() []QueryLogEntry {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := q.next
	if q.full {
		n = len(q.buf)
	}
	out := make([]QueryLogEntry, 0, n)
	for i := 0; i < n; i++ {
		idx := q.next - 1 - i
		if idx < 0 {
			idx += len(q.buf)
		}
		out = append(out, q.buf[idx])
	}
	return out
}

// handleQueryLog serves GET /debug/queries: the slow-query ring buffer,
// newest first, plus the active threshold.
func (s *Server) handleQueryLog(w http.ResponseWriter, r *http.Request) {
	entries := s.qlog.entries()
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"threshold_ms": float64(s.slowMin) / float64(time.Millisecond),
		"count":        len(entries),
		"queries":      entries,
	})
}
