package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"igdb/internal/reldb"
)

func TestStmtStatsRecord(t *testing.T) {
	ss := newStmtStats(4)
	ss.record("SELECT a FROM t WHERE a = ?", &QueryLogEntry{
		parse: time.Millisecond, exec: 2 * time.Millisecond,
		total: 4 * time.Millisecond, Rows: 10,
	})
	ss.record("SELECT a FROM t WHERE a = ?", &QueryLogEntry{
		total: 2 * time.Millisecond, Rows: 5, planHit: true,
	})
	ss.record("SELECT a FROM t WHERE a = ?", &QueryLogEntry{
		total: time.Millisecond, Err: "boom",
	})
	ss.record("", &QueryLogEntry{total: time.Hour}) // no fingerprint: dropped silently

	views, dropped := ss.snapshot()
	if dropped != 0 {
		t.Fatalf("dropped = %d, want 0", dropped)
	}
	if len(views) != 1 {
		t.Fatalf("distinct fingerprints = %d, want 1", len(views))
	}
	v := views[0]
	if v.Calls != 3 || v.Errors != 1 || v.Rows != 15 || v.PlanCacheHits != 1 {
		t.Fatalf("aggregate = %+v", v)
	}
	if v.TotalMs != 7 || v.MaxMs != 4 || v.ParseMs != 1 || v.ExecMs != 2 {
		t.Fatalf("timings = %+v", v)
	}
	if want := 7.0 / 3; v.MeanMs != want {
		t.Fatalf("mean = %v, want %v", v.MeanMs, want)
	}
}

func TestStmtStatsCapacity(t *testing.T) {
	ss := newStmtStats(2)
	ss.record("A", &QueryLogEntry{})
	ss.record("B", &QueryLogEntry{})
	ss.record("C", &QueryLogEntry{}) // over capacity: counted only in dropped
	ss.record("C", &QueryLogEntry{})
	ss.record("A", &QueryLogEntry{}) // existing fingerprints still aggregate

	views, dropped := ss.snapshot()
	if len(views) != 2 {
		t.Fatalf("distinct = %d, want 2", len(views))
	}
	if dropped != 2 {
		t.Fatalf("dropped = %d, want 2", dropped)
	}
	tot := ss.totals()
	if tot.distinct != 2 || tot.calls != 3 || tot.dropped != 2 {
		t.Fatalf("totals = %+v", tot)
	}
}

// TestStmtStatsConcurrent hammers the aggregator from many goroutines; run
// with -race this proves the mutex discipline.
func TestStmtStatsConcurrent(t *testing.T) {
	ss := newStmtStats(64)
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				fp := fmt.Sprintf("SELECT ? -- shape %d", i%16)
				ss.record(fp, &QueryLogEntry{total: time.Microsecond, Rows: 1})
				if i%10 == 0 {
					ss.snapshot()
					ss.totals()
				}
			}
		}(w)
	}
	wg.Wait()
	tot := ss.totals()
	if tot.calls != workers*perWorker {
		t.Fatalf("calls = %d, want %d", tot.calls, workers*perWorker)
	}
	if tot.distinct != 16 || tot.dropped != 0 {
		t.Fatalf("totals = %+v", tot)
	}
	if tot.rows != workers*perWorker {
		t.Fatalf("rows = %d, want %d", tot.rows, workers*perWorker)
	}
}

// statementsReport mirrors the GET /debug/statements body.
type statementsReport struct {
	Count             int            `json:"count"`
	DroppedExecutions uint64         `json:"dropped_executions"`
	Statements        []stmtStatView `json:"statements"`
}

func getStatements(t *testing.T, s *Server, query string) statementsReport {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/statements"+query, nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/statements status = %d: %s", rec.Code, rec.Body.String())
	}
	var rep statementsReport
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatalf("bad /debug/statements body: %v", err)
	}
	return rep
}

func TestStatementsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()

	// Three executions of the same shape (different literals), one of another.
	for _, q := range []string{
		`SELECT asn FROM asn_loc WHERE country = 'US' LIMIT 3`,
		`SELECT asn FROM asn_loc WHERE country = 'DE' LIMIT 5`,
		`SELECT asn FROM asn_loc WHERE country = 'JP' LIMIT 7`,
		`SELECT COUNT(*) FROM phys_nodes`,
	} {
		if rec, _ := postSQL(t, h, q); rec.Code != 200 {
			t.Fatalf("POST /sql %q = %d: %s", q, rec.Code, rec.Body.String())
		}
	}

	rep := getStatements(t, s, "")
	if rep.Count != 2 {
		t.Fatalf("count = %d, want 2 distinct fingerprints\n%+v", rep.Count, rep.Statements)
	}
	wantFP := reldb.Fingerprint(normalizeSQL(`SELECT asn FROM asn_loc WHERE country = 'US' LIMIT 3`))
	var found *stmtStatView
	for i := range rep.Statements {
		if rep.Statements[i].Fingerprint == wantFP {
			found = &rep.Statements[i]
		}
	}
	if found == nil {
		t.Fatalf("fingerprint %q not in report: %+v", wantFP, rep.Statements)
	}
	if found.Calls != 3 {
		t.Fatalf("calls = %d, want 3 (literals must collapse into one shape)", found.Calls)
	}
	if !strings.Contains(wantFP, "?") || strings.Contains(wantFP, "'US'") {
		t.Fatalf("fingerprint kept literals: %q", wantFP)
	}
	if found.TotalMs <= 0 || found.MeanMs <= 0 {
		t.Fatalf("timings not recorded: %+v", *found)
	}

	// ?top=1 truncates the list but count still reports every fingerprint.
	top := getStatements(t, s, "?top=1")
	if top.Count != 2 || len(top.Statements) != 1 {
		t.Fatalf("top=1: count=%d len=%d", top.Count, len(top.Statements))
	}

	// A result-cache hit still contributes a sample.
	if rec, resp := postSQL(t, h, `SELECT COUNT(*) FROM phys_nodes`); rec.Code != 200 || !resp.Cached {
		t.Fatalf("expected cached repeat, status=%d cached=%v", rec.Code, resp.Cached)
	}
	rep = getStatements(t, s, "")
	for _, v := range rep.Statements {
		if v.Fingerprint == reldb.Fingerprint(`SELECT COUNT(*) FROM phys_nodes`) {
			if v.Calls != 2 || v.ResultCacheHits != 1 {
				t.Fatalf("cached repeat not aggregated: %+v", v)
			}
		}
	}
}

func TestSQLExplainEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()

	rec, resp := postSQL(t, h, "EXPLAIN ANALYZE "+table2SQL)
	if rec.Code != 200 {
		t.Fatalf("EXPLAIN ANALYZE status = %d: %s", rec.Code, rec.Body.String())
	}
	if len(resp.Columns) != 1 || resp.Columns[0] != "plan" {
		t.Fatalf("columns = %v, want [plan]", resp.Columns)
	}
	if resp.Plan == nil {
		t.Fatalf("response has no structured plan: %s", rec.Body.String())
	}
	if resp.Plan.Actual == nil {
		t.Fatal("EXPLAIN ANALYZE root node has no actuals")
	}
	text := rec.Body.String()
	for _, want := range []string{"group", "hash_join", "actual:", "rows_out"} {
		if !strings.Contains(text, want) {
			t.Fatalf("plan output missing %q:\n%s", want, text)
		}
	}

	// EXPLAIN output must never be served from the result cache: actuals are
	// per-execution.
	rec2, resp2 := postSQL(t, h, "EXPLAIN ANALYZE "+table2SQL)
	if rec2.Code != 200 || resp2.Cached {
		t.Fatalf("repeat EXPLAIN: status=%d cached=%v", rec2.Code, resp2.Cached)
	}

	// Plain EXPLAIN works for non-SELECT without executing it (and without
	// tripping the read-only gate); ANALYZE of DML is still refused.
	rec3, resp3 := postSQL(t, h, `EXPLAIN DELETE FROM asn_loc WHERE asn = 1`)
	if rec3.Code != 200 || resp3.Plan == nil || resp3.Plan.Op != "delete" {
		t.Fatalf("EXPLAIN DELETE: status=%d plan=%+v", rec3.Code, resp3.Plan)
	}
	rec4, _ := postSQL(t, h, `EXPLAIN ANALYZE DELETE FROM asn_loc WHERE asn = 1`)
	if rec4.Code != 403 {
		t.Fatalf("EXPLAIN ANALYZE DELETE status = %d, want 403: %s", rec4.Code, rec4.Body.String())
	}
}

// TestSlowLogFingerprintAndTrace links /debug/queries entries to
// /debug/statements via the fingerprint, and checks the recorded span tree.
func TestSlowLogFingerprintAndTrace(t *testing.T) {
	s := newTestServer(t, Config{SlowQueryMin: -1}) // record every statement
	h := s.Handler()

	q := `SELECT asn FROM asn_loc WHERE country = 'US' LIMIT 2`
	if rec, _ := postSQL(t, h, q); rec.Code != 200 {
		t.Fatalf("POST /sql = %d", rec.Code)
	}
	if rec, _ := postSQL(t, h, "EXPLAIN ANALYZE "+q); rec.Code != 200 {
		t.Fatalf("EXPLAIN ANALYZE = %d", rec.Code)
	}

	entries := s.qlog.entries()
	if len(entries) != 2 {
		t.Fatalf("qlog entries = %d, want 2", len(entries))
	}
	// entries are newest-first: [0] is the EXPLAIN ANALYZE.
	ex, plain := entries[0], entries[1]
	if plain.Fingerprint != reldb.Fingerprint(normalizeSQL(q)) {
		t.Fatalf("plain fingerprint = %q", plain.Fingerprint)
	}
	if ex.Fingerprint != "EXPLAIN ANALYZE "+plain.Fingerprint {
		t.Fatalf("explain fingerprint = %q", ex.Fingerprint)
	}
	spanNames := func(tr []TraceSpan) map[string]bool {
		m := map[string]bool{}
		for _, ts := range tr {
			m[ts.Name] = true
		}
		return m
	}
	pn := spanNames(plain.Trace)
	if !pn["sql"] || !pn["parse"] || !pn["exec"] {
		t.Fatalf("plain trace missing stages: %+v", plain.Trace)
	}
	en := spanNames(ex.Trace)
	for _, want := range []string{"sql", "exec", "op:project", "op:scan", "op:filter"} {
		if !en[want] {
			t.Fatalf("explain trace missing %q: %+v", want, ex.Trace)
		}
	}
	// Operator spans carry the executor's actuals as attributes.
	for _, ts := range ex.Trace {
		if ts.Name == "op:filter" {
			if _, ok := ts.Attrs["rows_out"]; !ok {
				t.Fatalf("op:filter span has no rows_out attr: %+v", ts)
			}
		}
	}
	// parse and exec sit under sql, and each operator under exec or the
	// operator above it, listed before it. Operator time is inclusive from
	// the start of the execution, so every operator row starts where exec
	// does (to within the jitter of two clock reads).
	for _, tr := range [][]TraceSpan{plain.Trace, ex.Trace} {
		var exec *TraceSpan
		seen := map[string]bool{}
		for i, ts := range tr {
			switch {
			case ts.Name == "sql":
				if ts.Parent != "" {
					t.Errorf("sql has parent %q, want none", ts.Parent)
				}
			case ts.Name == "parse" || ts.Name == "exec":
				if ts.Parent != "sql" {
					t.Errorf("%s has parent %q, want sql", ts.Name, ts.Parent)
				}
				if ts.Name == "exec" {
					exec = &tr[i]
				}
			case strings.HasPrefix(ts.Name, "op:"):
				if (ts.Parent != "exec" && !strings.HasPrefix(ts.Parent, "op:")) || !seen[ts.Parent] {
					t.Errorf("%s has parent %q, want exec or an operator listed before it", ts.Name, ts.Parent)
				}
				if exec == nil || math.Abs(ts.StartMs-exec.StartMs) > 0.01 {
					t.Errorf("%s starts at %g ms, want exec's offset (exec: %+v)", ts.Name, ts.StartMs, exec)
				}
			default:
				t.Errorf("unexpected trace row %+v", ts)
			}
			seen[ts.Name] = true
		}
	}

	// The statement aggregator recorded both shapes with a parse/exec split.
	views, _ := s.stmts.snapshot()
	if len(views) != 2 {
		t.Fatalf("aggregator shapes = %d, want 2", len(views))
	}
	for _, v := range views {
		if v.ExecMs <= 0 {
			t.Fatalf("no exec time recorded: %+v", v)
		}
	}
}
