package server

import (
	"net/http"
	"sync"
	"time"

	"igdb/internal/reldb"
)

// QueryLogEntry is one /sql request's record. handleSQL fills it as the
// request runs, reading the clock once at each stage's start and end, and
// recordSQL reads it at the handler's exit. An entry that crossed the
// slow-query threshold (any entry when the threshold is negative) is kept
// in the slow-query log with its Trace rendered. Fingerprint links the
// entry to its aggregate under GET /debug/statements.
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

	planHit               bool
	plan                  *reldb.PlanNode // an EXPLAIN's plan, with actuals under ANALYZE
	parseStart, execStart time.Time       // zero when the stage did not run
	parse, exec, total    time.Duration
}

// TraceSpan is one stage of a slow statement: where it actually spent its
// time (parse, exec, and — under EXPLAIN ANALYZE — each plan operator).
type TraceSpan struct {
	Name       string                 `json:"name"`
	Parent     string                 `json:"parent,omitempty"`
	StartMs    float64                `json:"start_ms"`
	DurationMs float64                `json:"duration_ms"`
	Attrs      map[string]interface{} `json:"attrs,omitempty"`
}

// recordSQL is the one reader of a /sql request's record. handleSQL defers
// it, so every exit path passes through it. It feeds the statement
// statistics, igdb_slow_queries_total and the slow-query log, and renders
// the trace only for an entry the log keeps.
func (s *Server) recordSQL(r *http.Request, q *QueryLogEntry) {
	q.total = time.Since(q.Time)
	s.stmts.record(q.Fingerprint, q)
	if q.SQL == "" || q.total < s.slowMin {
		return
	}
	s.metrics.slowQueries.Add(1)
	q.RequestID = RequestID(r)
	q.DurationMs = durMs(q.total)
	q.Trace = q.trace()
	s.qlog.add(*q)
}

// trace renders the record as rows: sql, then parse and exec where they
// ran, then each plan operator under exec or the operator above it.
// Operator time is inclusive from the start of the execution, so every
// operator row starts at exec's offset and covers the operators beneath
// it; operators fused into reldb's pipeline end together.
func (q *QueryLogEntry) trace() []TraceSpan {
	rows := []TraceSpan{{Name: "sql", DurationMs: durMs(q.total)}}
	if !q.parseStart.IsZero() {
		rows = append(rows, TraceSpan{Name: "parse", Parent: "sql",
			StartMs: durMs(q.parseStart.Sub(q.Time)), DurationMs: durMs(q.parse)})
	}
	if q.execStart.IsZero() {
		return rows
	}
	execMs := durMs(q.execStart.Sub(q.Time))
	rows = append(rows, TraceSpan{Name: "exec", Parent: "sql", StartMs: execMs, DurationMs: durMs(q.exec)})
	return appendOps(rows, q.plan, "exec", execMs)
}

// appendOps appends n and the operators beneath it in pre-order.
func appendOps(rows []TraceSpan, n *reldb.PlanNode, parent string, startMs float64) []TraceSpan {
	if n == nil {
		return rows
	}
	op := TraceSpan{Name: "op:" + n.Op, Parent: parent, StartMs: startMs, Attrs: map[string]interface{}{}}
	if n.Table != "" {
		op.Attrs["table"] = n.Table
	}
	if a := n.Actual; a != nil {
		op.DurationMs = durMs(time.Duration(a.TimeMs * float64(time.Millisecond)))
		op.Attrs["rows_in"], op.Attrs["rows_out"], op.Attrs["loops"] = a.RowsIn, a.RowsOut, a.Loops
	}
	rows = append(rows, op)
	for _, c := range n.Children {
		rows = appendOps(rows, c, op.Name, startMs)
	}
	return rows
}

func durMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

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
