package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"igdb/internal/geo"
	"igdb/internal/ingest"
	"igdb/internal/obs"
	"igdb/internal/reldb"
	"igdb/internal/render"
	"igdb/internal/wkt"
)

// maxSQLBody bounds the POST /sql request body.
const maxSQLBody = 1 << 20

// sqlResult is the cacheable part of a query response.
type sqlResult struct {
	Columns   []string        `json:"columns"`
	Rows      [][]interface{} `json:"rows"`
	RowCount  int             `json:"row_count"` // pre-truncation count
	Truncated bool            `json:"truncated,omitempty"`
}

// sqlResponse is the full POST /sql envelope. Plan is present only for
// EXPLAIN statements: the structured plan tree mirroring the text rows.
type sqlResponse struct {
	sqlResult
	Cached      bool            `json:"cached"`
	SnapshotSeq uint64          `json:"snapshot_seq"`
	ElapsedMs   float64         `json:"elapsed_ms"`
	Plan        *reldb.PlanNode `json:"plan,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	//lint:ignore errdrop a failed response write means the client went away; there is no one left to tell
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	body := map[string]string{"error": fmt.Sprintf(format, args...)}
	// Handlers receive the middleware's statusWriter, so the request ID is
	// recoverable here without changing every handler signature.
	if sw, ok := w.(*statusWriter); ok && sw.reqID != "" {
		body["request_id"] = sw.reqID
	}
	writeJSON(w, status, body)
}

// readSQL extracts the statement from a raw-text or {"sql": "..."} body.
func readSQL(r *http.Request) (string, error) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSQLBody+1))
	if err != nil {
		return "", fmt.Errorf("reading body: %v", err)
	}
	if len(body) > maxSQLBody {
		return "", fmt.Errorf("statement exceeds %d bytes", maxSQLBody)
	}
	trimmed := strings.TrimSpace(string(body))
	if strings.HasPrefix(trimmed, "{") {
		var req struct {
			SQL string `json:"sql"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			return "", fmt.Errorf("bad JSON body: %v", err)
		}
		trimmed = strings.TrimSpace(req.SQL)
	}
	if trimmed == "" {
		return "", fmt.Errorf("empty statement")
	}
	return trimmed, nil
}

// handleSQL serves POST /sql: read-only SELECT (or EXPLAIN / EXPLAIN
// ANALYZE) against the current snapshot, with plan and result caching.
// DDL/DML is refused with 403 before touching the database. The request
// fills one record, which recordSQL reads on every exit path.
func (s *Server) handleSQL(w http.ResponseWriter, r *http.Request) {
	q := &QueryLogEntry{Time: time.Now()}
	defer s.recordSQL(r, q)
	sql, err := readSQL(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	q.SQL = sql
	norm := normalizeSQL(sql)
	q.Fingerprint = reldb.Fingerprint(norm)
	snap := s.current()

	if snap.results != nil {
		if res, ok := snap.results.Get(norm); ok {
			s.metrics.resultHits.Add(1)
			q.Rows, q.CacheHit = res.RowCount, true
			writeJSON(w, http.StatusOK, sqlResponse{
				sqlResult:   *res,
				Cached:      true,
				SnapshotSeq: snap.seq,
				ElapsedMs:   durMs(time.Since(q.Time)),
			})
			return
		}
	}

	stmt, ok := snap.plans.Get(norm)
	q.planHit = ok
	if ok {
		s.metrics.planHits.Add(1)
	} else {
		s.metrics.planMisses.Add(1)
		q.parseStart = time.Now()
		stmt, err = snap.g.Rel.Prepare(norm)
		q.parse = time.Since(q.parseStart)
		if err != nil {
			q.Err = err.Error()
			if errors.Is(err, reldb.ErrNotSelect) {
				writeError(w, http.StatusForbidden, "read-only API: %v", err)
			} else {
				writeError(w, http.StatusBadRequest, "%v", err)
			}
			return
		}
		snap.plans.Put(norm, stmt)
	}
	isExplain := stmt.IsExplain()
	if snap.results != nil && !isExplain {
		// Counted here, not at lookup time, so rejected writes, parse
		// errors, and EXPLAIN — which can never produce a cacheable
		// result — do not drag the hit rate down.
		s.metrics.resultMisses.Add(1)
	}

	// The executor stops at the request deadline, so the limiter slot is
	// held exactly as long as the statement runs.
	q.execStart = time.Now()
	var rows *reldb.Rows
	if isExplain {
		q.plan, err = stmt.ExplainContext(r.Context())
	} else {
		rows, err = stmt.QueryContext(r.Context())
	}
	q.exec = time.Since(q.execStart)
	if err != nil {
		if r.Context().Err() != nil {
			s.metrics.rejected.Add(1)
			q.Err = "query exceeded the request deadline"
			writeError(w, http.StatusGatewayTimeout, "query exceeded the request deadline")
			return
		}
		q.Err = err.Error()
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if q.plan != nil {
		rows = q.plan.Rows()
	}

	q.Rows = rows.Len()
	res := &sqlResult{Columns: rows.Columns, RowCount: rows.Len()}
	n := rows.Len()
	if n > s.cfg.MaxResultRows {
		n = s.cfg.MaxResultRows
		res.Truncated = true
	}
	// One flat backing array for all marshalled rows instead of a fresh
	// slice per row; every executor row has exactly len(Columns) values.
	res.Rows = make([][]interface{}, n)
	flat := make([]interface{}, n*len(rows.Columns))
	for i := 0; i < n; i++ {
		w := len(rows.Rows[i])
		row := flat[:w:w]
		flat = flat[w:]
		for j, v := range rows.Rows[i] {
			row[j] = v.Interface()
		}
		res.Rows[i] = row
	}
	if snap.results != nil && !isExplain {
		// EXPLAIN ANALYZE re-executes on every call by design; caching its
		// one-shot plan text would serve stale actuals.
		snap.results.Put(norm, res)
	}
	writeJSON(w, http.StatusOK, sqlResponse{
		sqlResult:   *res,
		SnapshotSeq: snap.seq,
		ElapsedMs:   durMs(time.Since(q.Time)),
		Plan:        q.plan,
	})
}

// handleTables serves GET /tables: relation names and row counts.
func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	snap := s.current()
	type tableInfo struct {
		Name string `json:"name"`
		Rows int    `json:"rows"`
	}
	var tables []tableInfo
	for _, name := range snap.g.Rel.TableNames() {
		tables = append(tables, tableInfo{Name: name, Rows: snap.g.Rel.Table(name).Len()})
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"tables":       tables,
		"snapshot_seq": snap.seq,
	})
}

// handleExport serves GET /export/{layer}: one GIS layer streamed as
// GeoJSON, never buffering the whole document.
func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	layer := r.PathValue("layer")
	known := false
	for _, l := range render.Layers() {
		if l == layer {
			known = true
			break
		}
	}
	if !known {
		writeError(w, http.StatusNotFound, "unknown layer %q (have %s)", layer, strings.Join(render.Layers(), ", "))
		return
	}
	snap := s.current()
	w.Header().Set("Content-Type", "application/geo+json")
	if _, err := render.WriteLayerGeoJSON(w, snap.g.Rel, layer); err != nil {
		// Headers are already out; all we can do is log.
		s.logger.Error("export failed", obs.F("layer", layer),
			obs.F("request_id", RequestID(r)), obs.F("err", err))
	}
}

// handleFootprint serves GET /footprint/{asn}: the §4.1 geographic spatial
// extent of one AS — names, organizations, and located metros from asn_loc.
func (s *Server) handleFootprint(w http.ResponseWriter, r *http.Request) {
	asn, err := strconv.Atoi(r.PathValue("asn"))
	if err != nil || asn < 0 {
		writeError(w, http.StatusBadRequest, "bad ASN %q", r.PathValue("asn"))
		return
	}
	snap := s.current()
	texts := func(sql string) []string {
		rows, qerr := snap.g.Rel.Query(sql)
		if qerr != nil {
			return nil
		}
		var out []string
		for _, row := range rows.Rows {
			if t, ok := row[0].AsText(); ok && t != "" {
				out = append(out, t)
			}
		}
		return out
	}
	names := texts(fmt.Sprintf(`SELECT DISTINCT asn_name FROM asn_name WHERE asn = %d ORDER BY asn_name`, asn))
	orgs := texts(fmt.Sprintf(`SELECT DISTINCT organization FROM asn_org WHERE asn = %d ORDER BY organization`, asn))

	locRows, err := snap.g.Rel.Query(fmt.Sprintf(
		`SELECT DISTINCT metro, state_province, country, remote FROM asn_loc
		 WHERE asn = %d ORDER BY country, metro`, asn))
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	type metroInfo struct {
		Metro   string  `json:"metro"`
		State   string  `json:"state,omitempty"`
		Country string  `json:"country"`
		Lon     float64 `json:"lon"`
		Lat     float64 `json:"lat"`
		Remote  bool    `json:"remote,omitempty"`
	}
	metros := make([]metroInfo, 0, locRows.Len())
	countries := map[string]bool{}
	for _, row := range locRows.Rows {
		metro, _ := row[0].AsText()
		state, _ := row[1].AsText()
		country, _ := row[2].AsText()
		remote, _ := row[3].AsBool()
		mi := metroInfo{Metro: metro, State: state, Country: country, Remote: remote}
		if idx := snap.g.CityIndex(metro, state, country); idx >= 0 {
			loc := snap.g.CityLoc(idx)
			mi.Lon, mi.Lat = loc.Lon, loc.Lat
		}
		countries[country] = true
		metros = append(metros, mi)
	}
	if len(metros) == 0 && len(names) == 0 && len(orgs) == 0 {
		writeError(w, http.StatusNotFound, "AS%d is not in the database", asn)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"asn":           asn,
		"names":         names,
		"organizations": orgs,
		"countries":     len(countries),
		"metros":        metros,
		"snapshot_seq":  snap.seq,
	})
}

// handlePath serves GET /path?src=City-CC&dst=City-CC: the §4.2 shortest
// practical physical path between two metros, recovered through the paths
// pipeline and returned as GeoJSON.
func (s *Server) handlePath(w http.ResponseWriter, r *http.Request) {
	src := r.URL.Query().Get("src")
	dst := r.URL.Query().Get("dst")
	if src == "" || dst == "" {
		writeError(w, http.StatusBadRequest, "src and dst query parameters are required (metro labels like Austin-US)")
		return
	}
	snap := s.current()
	if snap.pipe == nil {
		writeError(w, http.StatusServiceUnavailable,
			"path inference unavailable on this degraded snapshot: %s", snap.pipeErr)
		return
	}
	a := snap.g.MetroIndex(src)
	b := snap.g.MetroIndex(dst)
	if a < 0 {
		writeError(w, http.StatusNotFound, "unknown metro %q", src)
		return
	}
	if b < 0 {
		writeError(w, http.StatusNotFound, "unknown metro %q", dst)
		return
	}
	cities, km, ok := snap.g.Paths.ShortestPracticalPath(a, b)
	if !ok {
		writeError(w, http.StatusNotFound, "no physical path between %q and %q", src, dst)
		return
	}
	line, routeKm := snap.pipe.InferredRoute([]int{a, b})
	if len(line) < 2 {
		writeError(w, http.StatusNotFound, "no route geometry between %q and %q", src, dst)
		return
	}
	via := make([]string, len(cities))
	for i, c := range cities {
		via[i] = snap.g.Cities[c].Metro()
	}
	straight := geo.Haversine(snap.g.CityLoc(a), snap.g.CityLoc(b))
	props := map[string]interface{}{
		"src":          src,
		"dst":          dst,
		"km":           routeKm,
		"shortest_km":  km,
		"straight_km":  straight,
		"via":          via,
		"snapshot_seq": snap.seq,
	}
	w.Header().Set("Content-Type", "application/geo+json")
	_, err := render.WriteFeatures(w, func(add func(wkt.Geometry, map[string]any) error) error {
		return add(wkt.NewLineString(line), props)
	})
	if err != nil {
		s.logger.Error("path export failed", obs.F("request_id", RequestID(r)), obs.F("err", err))
	}
}

// handleRebuild serves POST /admin/rebuild: synchronous re-ingest + atomic
// snapshot swap. 409 when a rebuild is already running.
func (s *Server) handleRebuild(w http.ResponseWriter, r *http.Request) {
	seq, buildTime, started, err := s.TryRebuild()
	if !started {
		writeError(w, http.StatusConflict, "rebuild already in progress")
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"snapshot_seq": seq,
		"build_ms":     float64(buildTime) / float64(time.Millisecond),
	})
}

// sourceHealth is one source's entry in the /healthz report.
type sourceHealth struct {
	Source     string `json:"source"`
	Status     string `json:"status"`
	AsOf       string `json:"as_of,omitempty"`
	Error      string `json:"error,omitempty"`
	RowsLoaded int    `json:"rows_loaded"`
}

// healthReport is the GET /healthz body.
type healthReport struct {
	Status          string         `json:"status"` // ok | degraded | stale | syncing
	Degraded        bool           `json:"degraded"`
	Stale           bool           `json:"stale"`
	SnapshotSeq     uint64         `json:"snapshot_seq"`
	SnapshotAgeS    float64        `json:"snapshot_age_s"`
	BuildMs         float64        `json:"build_ms"`
	Tables          int            `json:"tables"`
	Sources         []sourceHealth `json:"sources,omitempty"`
	Quarantined     []string       `json:"quarantined,omitempty"`
	PathsPipeline   string         `json:"paths_pipeline"` // "ok" or the failure
	LastRebuildErr  string         `json:"last_rebuild_error,omitempty"`
	LastRebuildUnix int64          `json:"last_rebuild_unix,omitempty"`

	// Replication topology. Role is always present; the rest only when this
	// server is a follower.
	Role string `json:"role"` // standalone | leader | follower
	// LeaderURL is the leader this follower replicates from.
	LeaderURL string `json:"leader_url,omitempty"`
	// LeaderSeq is the newest snapshot seq the leader has advertised.
	LeaderSeq uint64 `json:"leader_seq,omitempty"`
	// ReplicaLagS is seconds between the leader building the serving
	// snapshot and now; -1 before the first successful sync.
	ReplicaLagS float64 `json:"replica_lag_s,omitempty"`
	// LastFetchErr is the most recent failed poll or transfer — it names
	// the fault (checksum mismatch, connection refused, deadline, ...).
	// Empty after a successful sync.
	LastFetchErr string `json:"last_fetch_error,omitempty"`
	// LastFetchUnix is when the last successful sync finished.
	LastFetchUnix int64 `json:"last_fetch_unix,omitempty"`
}

// staleCutoff is the snapshot age past which /healthz reports "stale":
// StaleAfter when configured, else twice the periodic-rebuild interval.
func (s *Server) staleCutoff() time.Duration {
	if s.cfg.StaleAfter > 0 {
		return s.cfg.StaleAfter
	}
	if s.cfg.RebuildEvery > 0 {
		return 2 * s.cfg.RebuildEvery
	}
	return 0
}

// handleHealthz serves GET /healthz: a structured operator report — overall
// status (ok/degraded/stale), per-source build verdicts, snapshot age, and
// the most recent rebuild failure. Always 200 with a body; load balancers
// should key on .status, not the HTTP code.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := s.current()
	s.stateMu.Lock()
	lastErr, lastAt := s.lastRebuildErr, s.lastRebuildAt
	repl := s.repl
	s.stateMu.Unlock()
	role := s.Role()

	rep := healthReport{
		Status:        "ok",
		PathsPipeline: "ok",
		Role:          string(role),
		LeaderURL:     s.cfg.LeaderURL,
		LeaderSeq:     repl.leaderSeq,
		LastFetchErr:  repl.lastErr,
	}
	if !repl.lastSyncAt.IsZero() {
		rep.LastFetchUnix = repl.lastSyncAt.Unix()
	}
	if snap == nil {
		// A follower before its first successful sync: nothing to serve,
		// but the report says exactly why.
		rep.Status = "syncing"
		rep.Degraded = true
		rep.PathsPipeline = "no snapshot yet"
		rep.ReplicaLagS = -1
		writeJSON(w, http.StatusOK, rep)
		return
	}

	age := time.Since(snap.builtAt)
	rep.SnapshotSeq = snap.seq
	rep.SnapshotAgeS = age.Seconds()
	rep.BuildMs = float64(snap.buildTime) / float64(time.Millisecond)
	rep.Tables = len(snap.g.Rel.TableNames())
	rep.Quarantined = snap.g.QuarantinedSources()
	if role == RoleFollower {
		// The serving snapshot's builtAt is the leader's build instant, so
		// its age IS the replica lag.
		rep.ReplicaLagS = age.Seconds()
	}
	for _, st := range snap.g.SourceStatus {
		sh := sourceHealth{
			Source: st.Source, Status: st.Status,
			Error: st.Err, RowsLoaded: st.RowsLoaded,
		}
		if !st.AsOf.IsZero() {
			sh.AsOf = st.AsOf.UTC().Format(time.RFC3339)
		}
		rep.Sources = append(rep.Sources, sh)
	}
	if snap.pipe == nil {
		rep.PathsPipeline = snap.pipeErr
	}
	if lastErr != nil {
		rep.LastRebuildErr = lastErr.Error()
	}
	if !lastAt.IsZero() {
		rep.LastRebuildUnix = lastAt.Unix()
	}
	if cut := s.staleCutoff(); cut > 0 && age > cut {
		rep.Stale = true
		rep.Status = "stale"
	}
	if snap.g.Degraded() || snap.pipe == nil || lastErr != nil || repl.lastErr != "" {
		rep.Degraded = true
		rep.Status = "degraded"
	}
	writeJSON(w, http.StatusOK, rep)
}

// handleMetrics serves GET /metrics in Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	g := snapGauges{
		collectRetries: ingest.RetriesTotal(),
		repl:           s.replicaGauges(),
		stmt:           s.stmts.totals(),
	}
	if snap := s.current(); snap != nil {
		if snap.g.Degraded() || snap.pipe == nil || s.LastRebuildError() != nil {
			g.degraded = 1
		}
		g.seq = snap.seq
		g.age = time.Since(snap.builtAt)
		g.buildTime = snap.buildTime
		g.quarantined = len(snap.g.QuarantinedSources())
		g.sources = snap.g.SourceStatus
		g.stages = snap.g.BuildTrace.Stages()
		g.simScenarios = snap.simCount
		g.simTime = snap.simTime
	} else {
		g.degraded = 1 // a follower with nothing to serve is degraded by definition
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WriteTo(w, g)
}
