package server

import (
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// defaultStmtStatsSize bounds how many distinct fingerprints the aggregator
// tracks before new ones are counted only in aggregate.
const defaultStmtStatsSize = 512

// stmtStat aggregates every execution of one statement fingerprint.
type stmtStat struct {
	calls      uint64
	errors     uint64
	rows       uint64
	planHits   uint64
	resultHits uint64
	parseNs    uint64
	execNs     uint64
	totalNs    uint64
	maxNs      uint64
}

// stmtStats is the process-wide pg_stat_statements-style aggregator keyed
// by normalized fingerprint. It lives on the Server, not the snapshot, so
// statistics accumulate across snapshot swaps; the capacity bound keeps a
// hostile workload of unique statement shapes from growing the map without
// limit (executions past capacity are counted in dropped).
type stmtStats struct {
	mu      sync.Mutex
	m       map[string]*stmtStat // guarded by mu
	max     int
	dropped uint64 // guarded by mu; executions of fingerprints beyond capacity
}

func newStmtStats(max int) *stmtStats {
	if max <= 0 {
		max = defaultStmtStatsSize
	}
	return &stmtStats{m: make(map[string]*stmtStat), max: max}
}

// record adds one /sql request's record to fp's aggregate.
func (ss *stmtStats) record(fp string, q *QueryLogEntry) {
	if fp == "" {
		return
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	st, ok := ss.m[fp]
	if !ok {
		if len(ss.m) >= ss.max {
			ss.dropped++
			return
		}
		st = &stmtStat{}
		ss.m[fp] = st
	}
	st.calls++
	if q.Err != "" {
		st.errors++
	}
	st.rows += uint64(q.Rows)
	if q.planHit {
		st.planHits++
	}
	if q.CacheHit {
		st.resultHits++
	}
	st.parseNs += uint64(q.parse)
	st.execNs += uint64(q.exec)
	st.totalNs += uint64(q.total)
	if ns := uint64(q.total); ns > st.maxNs {
		st.maxNs = ns
	}
}

// stmtStatView is one fingerprint's aggregate as served by
// GET /debug/statements.
type stmtStatView struct {
	Fingerprint     string  `json:"fingerprint"`
	Calls           uint64  `json:"calls"`
	Errors          uint64  `json:"errors,omitempty"`
	Rows            uint64  `json:"rows"`
	TotalMs         float64 `json:"total_ms"`
	MeanMs          float64 `json:"mean_ms"`
	MaxMs           float64 `json:"max_ms"`
	ParseMs         float64 `json:"parse_ms"`
	ExecMs          float64 `json:"exec_ms"`
	PlanCacheHits   uint64  `json:"plan_cache_hits"`
	ResultCacheHits uint64  `json:"result_cache_hits"`
}

const nsPerMs = float64(time.Millisecond)

// snapshot returns every tracked fingerprint ordered by total time spent,
// costliest first (ties broken by fingerprint for determinism), plus the
// dropped-execution count.
func (ss *stmtStats) snapshot() ([]stmtStatView, uint64) {
	ss.mu.Lock()
	views := make([]stmtStatView, 0, len(ss.m))
	for fp, st := range ss.m {
		v := stmtStatView{
			Fingerprint:     fp,
			Calls:           st.calls,
			Errors:          st.errors,
			Rows:            st.rows,
			TotalMs:         float64(st.totalNs) / nsPerMs,
			MaxMs:           float64(st.maxNs) / nsPerMs,
			ParseMs:         float64(st.parseNs) / nsPerMs,
			ExecMs:          float64(st.execNs) / nsPerMs,
			PlanCacheHits:   st.planHits,
			ResultCacheHits: st.resultHits,
		}
		if st.calls > 0 {
			v.MeanMs = v.TotalMs / float64(st.calls)
		}
		views = append(views, v)
	}
	dropped := ss.dropped
	ss.mu.Unlock()
	sort.Slice(views, func(i, j int) bool {
		if views[i].TotalMs != views[j].TotalMs {
			return views[i].TotalMs > views[j].TotalMs
		}
		return views[i].Fingerprint < views[j].Fingerprint
	})
	return views, dropped
}

// stmtTotals are the aggregator-wide sums exposed on /metrics.
type stmtTotals struct {
	distinct int
	calls    uint64
	errors   uint64
	rows     uint64
	dropped  uint64
	parseNs  uint64
	execNs   uint64
}

func (ss *stmtStats) totals() stmtTotals {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	t := stmtTotals{distinct: len(ss.m), dropped: ss.dropped}
	for _, st := range ss.m {
		t.calls += st.calls
		t.errors += st.errors
		t.rows += st.rows
		t.parseNs += st.parseNs
		t.execNs += st.execNs
	}
	return t
}

// handleStatements serves GET /debug/statements: per-fingerprint statement
// statistics, costliest first. ?top=N truncates the list; entries link back
// to /debug/queries through the fingerprint field on slow-query entries.
func (s *Server) handleStatements(w http.ResponseWriter, r *http.Request) {
	views, dropped := s.stmts.snapshot()
	total := len(views)
	if top, err := strconv.Atoi(r.URL.Query().Get("top")); err == nil && top > 0 && top < len(views) {
		views = views[:top]
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"count":              total,
		"dropped_executions": dropped,
		"statements":         views,
	})
}
