package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"igdb/internal/ingest"
	"igdb/internal/leakgate"
	"igdb/internal/obs"
	"igdb/internal/reldb"
	"igdb/internal/worldgen"
)

// TestMain fails the package when its tests leave goroutines running
// its code.
func TestMain(m *testing.M) { leakgate.Main(m, "igdb/internal/server") }

// table2SQL is the paper's Table 2 analysis (ASes with physical presence in
// the most countries) — the reference workload for the serving layer.
const table2SQL = `
	SELECT l.asn, MIN(n.asn_name) AS name, MIN(o.organization) AS org,
	       COUNT(DISTINCT l.country) AS countries
	FROM asn_loc l
	JOIN asn_name n ON n.asn = l.asn AND n.source = 'asrank'
	JOIN asn_org o ON o.asn = l.asn AND o.source = 'asrank'
	GROUP BY l.asn
	ORDER BY countries DESC, l.asn ASC
	LIMIT 11`

var (
	testOnce  sync.Once
	testStore *ingest.Store
)

// sharedStore builds one small-world snapshot store for the whole package.
func sharedStore(t testing.TB) *ingest.Store {
	t.Helper()
	testOnce.Do(func() {
		w := worldgen.Generate(worldgen.SmallConfig())
		store := ingest.NewStore("")
		if err := ingest.Collect(w, store, time.Unix(1780000000, 0).UTC()); err != nil {
			panic(err)
		}
		testStore = store
	})
	return testStore
}

func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	if cfg.Store == nil {
		cfg.Store = sharedStore(t)
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.New(io.Discard) // keep test output quiet
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func postSQL(t testing.TB, h http.Handler, sql string) (*httptest.ResponseRecorder, sqlResponse) {
	t.Helper()
	req := httptest.NewRequest("POST", "/sql", strings.NewReader(sql))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var resp sqlResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("bad /sql response: %v\n%s", err, rec.Body.String())
		}
	}
	return rec, resp
}

func TestSQLEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()

	rec, resp := postSQL(t, h, table2SQL)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if resp.RowCount == 0 || len(resp.Rows) == 0 {
		t.Fatalf("Table 2 query returned no rows: %s", rec.Body.String())
	}
	if got := resp.Columns; len(got) != 4 || got[3] != "countries" {
		t.Fatalf("columns = %v", got)
	}
	if resp.Cached {
		t.Fatal("first execution should not be cached")
	}

	// Identical statement (different whitespace) must hit the result cache.
	rec2, resp2 := postSQL(t, h, "  "+strings.Join(strings.Fields(table2SQL), "  "))
	if rec2.Code != http.StatusOK || !resp2.Cached {
		t.Fatalf("second execution: status=%d cached=%v", rec2.Code, resp2.Cached)
	}
	if resp2.RowCount != resp.RowCount {
		t.Fatalf("cached row count %d != %d", resp2.RowCount, resp.RowCount)
	}

	// JSON request body form.
	body, _ := json.Marshal(map[string]string{"sql": `SELECT COUNT(*) FROM phys_nodes`})
	req := httptest.NewRequest("POST", "/sql", strings.NewReader(string(body)))
	req.Header.Set("Content-Type", "application/json")
	rec3 := httptest.NewRecorder()
	h.ServeHTTP(rec3, req)
	if rec3.Code != http.StatusOK {
		t.Fatalf("JSON body: status = %d: %s", rec3.Code, rec3.Body.String())
	}
}

func TestSQLRejectsWrites(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	for _, sql := range []string{
		`INSERT INTO phys_nodes VALUES ('x','y','z','s','US',0,0,'me','now')`,
		`CREATE TABLE evil (a INTEGER)`,
		`DELETE FROM asn_loc`,
		`UPDATE asn_name SET asn_name = 'pwned'`,
		`DROP TABLE asn_loc`,
		`CREATE INDEX ON asn_loc (asn)`,
	} {
		rec, _ := postSQL(t, h, sql)
		if rec.Code != http.StatusForbidden {
			t.Errorf("%q: status = %d, want 403 (%s)", sql, rec.Code, rec.Body.String())
		}
	}
	// Malformed SQL is a client error, not a forbidden statement.
	rec, _ := postSQL(t, h, `SELEKT 1`)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("malformed SQL: status = %d, want 400", rec.Code)
	}
	rec, _ = postSQL(t, h, ``)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("empty SQL: status = %d, want 400", rec.Code)
	}
}

// TestConcurrentSQL runs >= 8 in-flight clients against /sql under -race.
func TestConcurrentSQL(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	const clients, perClient = 10, 10
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				sql := table2SQL
				if c%2 == 1 {
					// Half the clients bypass the result cache with distinct
					// statements, exercising plan building concurrently.
					sql = fmt.Sprintf(`SELECT COUNT(*) FROM phys_nodes WHERE latitude > %d`, i%5)
				}
				rec, resp := postSQL(t, h, sql)
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("client %d: status %d: %s", c, rec.Code, rec.Body.String())
					return
				}
				if len(resp.Rows) == 0 {
					errs <- fmt.Errorf("client %d: empty result", c)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentRoutes drives each route in turn from 8 goroutines against
// one leader, so -race sees any write a handler makes to the shared
// snapshot or server state. TestConcurrentSQL covers only /sql; without
// this test a post-publish write on any other route passes the suite.
func TestConcurrentRoutes(t *testing.T) {
	s := newTestServer(t, Config{Leader: true, SlowQueryMin: -1})
	h := s.Handler()
	_, fp := postSQL(t, h, `SELECT asn, COUNT(DISTINCT country) FROM asn_loc GROUP BY asn ORDER BY 2 DESC LIMIT 1`)
	_, sp := postSQL(t, h, `SELECT from_metro, from_country, to_metro, to_country FROM std_paths LIMIT 1`)
	if len(fp.Rows) == 0 || len(sp.Rows) == 0 {
		t.Fatal("test world has no located AS or no standard path")
	}
	pathQ := url.Values{
		"src": {fmt.Sprintf("%s-%s", sp.Rows[0][0], sp.Rows[0][1])},
		"dst": {fmt.Sprintf("%s-%s", sp.Rows[0][2], sp.Rows[0][3])},
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/replica/manifest", nil))
	var m struct {
		Chunks []struct {
			SHA256 string `json:"sha256"`
		} `json:"chunks"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil || len(m.Chunks) == 0 {
		t.Fatalf("bad manifest: %v", err)
	}

	routes := []struct{ name, method, target, body string }{
		{"sql", "POST", "/sql", table2SQL},
		{"explain_analyze", "POST", "/sql", "EXPLAIN ANALYZE " + table2SQL},
		{"tables", "GET", "/tables", ""},
		{"export", "GET", "/export/city_points", ""},
		{"footprint", "GET", fmt.Sprintf("/footprint/%d", int(fp.Rows[0][0].(float64))), ""},
		{"path", "GET", "/path?" + pathQ.Encode(), ""},
		{"healthz", "GET", "/healthz", ""},
		{"metrics", "GET", "/metrics", ""},
		{"debug_queries", "GET", "/debug/queries", ""},
		{"debug_statements", "GET", "/debug/statements", ""},
		{"replica_manifest", "GET", "/replica/manifest", ""},
		{"replica_chunk", "GET", "/replica/chunk/" + m.Chunks[0].SHA256, ""},
	}
	const workers, perWorker = 8, 4
	for _, rt := range routes {
		t.Run(rt.name, func(t *testing.T) {
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			// Every worker waits on start, which is closed after all of
			// them are started, so their first requests overlap: a
			// handler write races only with a request in flight beside
			// it.
			start := make(chan struct{})
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					for i := 0; i < perWorker; i++ {
						rec := httptest.NewRecorder()
						h.ServeHTTP(rec, httptest.NewRequest(rt.method, rt.target, strings.NewReader(rt.body)))
						if rec.Code != http.StatusOK {
							errs <- fmt.Errorf("%s %s: status %d: %.200s", rt.method, rt.target, rec.Code, rec.Body.String())
							return
						}
					}
				}()
			}
			close(start)
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// TestRebuildNeverBlocksReaders queries continuously while a rebuild swaps
// the snapshot; every read must succeed, before and after the swap.
func TestRebuildNeverBlocksReaders(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	startSeq := s.SnapshotSeq()

	stop := make(chan struct{})
	errs := make(chan error, 8)
	var reads atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rec, resp := postSQL(t, h, table2SQL)
				if rec.Code != http.StatusOK || len(resp.Rows) == 0 {
					errs <- fmt.Errorf("reader %d: status=%d body=%s", c, rec.Code, rec.Body.String())
					return
				}
				reads.Add(1)
			}
		}(c)
	}

	waitForReads := func(min int64) {
		deadline := time.Now().Add(30 * time.Second)
		for reads.Load() < min && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if reads.Load() < min {
			t.Fatalf("readers stalled at %d reads", reads.Load())
		}
	}
	// Make sure reads are flowing against the old snapshot, then trigger
	// the rebuild over HTTP while readers keep hammering it.
	waitForReads(1)
	req := httptest.NewRequest("POST", "/admin/rebuild", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("rebuild status = %d: %s", rec.Code, rec.Body.String())
	}
	// Readers must keep succeeding against the swapped-in snapshot.
	waitForReads(reads.Load() + 8)
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := s.SnapshotSeq(); got != startSeq+1 {
		t.Fatalf("snapshot seq = %d, want %d", got, startSeq+1)
	}
	if reads.Load() == 0 {
		t.Fatal("no reads completed during the rebuild")
	}

	// The swap invalidated the result cache: the first post-swap execution
	// of the same SQL reports cached=false with the new snapshot seq.
	_, resp := postSQL(t, h, table2SQL)
	if resp.SnapshotSeq != startSeq+1 {
		t.Fatalf("post-swap snapshot seq = %d", resp.SnapshotSeq)
	}
}

func TestTablesEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/tables", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var resp struct {
		Tables []struct {
			Name string `json:"name"`
			Rows int    `json:"rows"`
		} `json:"tables"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	byName := map[string]int{}
	for _, tb := range resp.Tables {
		byName[tb.Name] = tb.Rows
	}
	for _, want := range []string{"phys_nodes", "asn_loc", "std_paths", "city_points"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("missing table %s in %v", want, byName)
		}
	}
	if byName["phys_nodes"] == 0 {
		t.Error("phys_nodes is empty")
	}
}

func TestExportEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/export/phys_nodes", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/geo+json" {
		t.Fatalf("content-type = %q", ct)
	}
	var doc struct {
		Type     string            `json:"type"`
		Features []json.RawMessage `json:"features"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("invalid GeoJSON: %v", err)
	}
	if doc.Type != "FeatureCollection" || len(doc.Features) == 0 {
		t.Fatalf("empty export: type=%s features=%d", doc.Type, len(doc.Features))
	}

	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/export/no_such_layer", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown layer status = %d", rec.Code)
	}
}

func TestFootprintEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	// Find an AS that actually has declared locations.
	_, resp := postSQL(t, h, `SELECT asn, COUNT(DISTINCT country) FROM asn_loc GROUP BY asn ORDER BY 2 DESC LIMIT 1`)
	if len(resp.Rows) == 0 {
		t.Fatal("no located ASes in the test world")
	}
	asn := int(resp.Rows[0][0].(float64))

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/footprint/%d", asn), nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var fp struct {
		ASN       int `json:"asn"`
		Countries int `json:"countries"`
		Metros    []struct {
			Metro   string  `json:"metro"`
			Country string  `json:"country"`
			Lon     float64 `json:"lon"`
			Lat     float64 `json:"lat"`
		} `json:"metros"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &fp); err != nil {
		t.Fatal(err)
	}
	if fp.ASN != asn || fp.Countries == 0 || len(fp.Metros) == 0 {
		t.Fatalf("footprint = %+v", fp)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/footprint/not-a-number", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad ASN status = %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/footprint/999999999", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown ASN status = %d", rec.Code)
	}
}

func TestPathEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	// Pick a connected std_paths pair straight from the database.
	_, resp := postSQL(t, h, `SELECT from_metro, from_country, to_metro, to_country FROM std_paths LIMIT 1`)
	if len(resp.Rows) == 0 {
		t.Skip("test world inferred no standard paths")
	}
	src := fmt.Sprintf("%s-%s", resp.Rows[0][0], resp.Rows[0][1])
	dst := fmt.Sprintf("%s-%s", resp.Rows[0][2], resp.Rows[0][3])
	q := url.Values{"src": {src}, "dst": {dst}}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/path?"+q.Encode(), nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var doc struct {
		Features []struct {
			Geometry struct {
				Type        string      `json:"type"`
				Coordinates [][]float64 `json:"coordinates"`
			} `json:"geometry"`
			Properties map[string]interface{} `json:"properties"`
		} `json:"features"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("invalid GeoJSON: %v\n%s", err, rec.Body.String())
	}
	if len(doc.Features) != 1 || doc.Features[0].Geometry.Type != "LineString" {
		t.Fatalf("bad path document: %s", rec.Body.String())
	}
	if len(doc.Features[0].Geometry.Coordinates) < 2 {
		t.Fatal("degenerate route geometry")
	}
	if km, _ := doc.Features[0].Properties["km"].(float64); km <= 0 {
		t.Fatalf("route km = %v", doc.Features[0].Properties["km"])
	}

	q2 := url.Values{"src": {"Nowhere-XX"}, "dst": {dst}}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/path?"+q2.Encode(), nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown metro status = %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/path", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("missing params status = %d", rec.Code)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"status":"ok"`) {
		t.Fatalf("healthz: %d %s", rec.Code, rec.Body.String())
	}

	// Generate traffic: hits, misses, one forbidden write.
	postSQL(t, h, table2SQL)
	postSQL(t, h, table2SQL)
	postSQL(t, h, `DELETE FROM asn_loc`)

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		`igdb_requests_total{route="/sql"} 3`,
		`igdb_request_errors_total{route="/sql"} 1`,
		`igdb_request_duration_ms_bucket{le="+Inf"}`,
		`igdb_result_cache_hits_total 1`,
		`igdb_result_cache_hit_rate 0.5`,
		`igdb_snapshot_seq 1`,
		`igdb_snapshot_age_seconds`,
		`igdb_snapshot_build_seconds`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q\n%s", want, body)
		}
	}
}

func TestResultCacheDisabled(t *testing.T) {
	s := newTestServer(t, Config{CacheSize: -1})
	h := s.Handler()
	_, r1 := postSQL(t, h, `SELECT COUNT(*) FROM asn_name`)
	_, r2 := postSQL(t, h, `SELECT COUNT(*) FROM asn_name`)
	if r1.Cached || r2.Cached {
		t.Fatal("result cache should be disabled")
	}
	// Plans are still cached even without the result cache.
	if s.Metrics().planHits.Load() == 0 {
		t.Fatal("plan cache saw no hits")
	}
}

// TestSQLAllocBudget holds an uncached POST /sql to its allocation budget.
// SELECT asn FROM asn_name returns 4,156 rows in 3,938 allocations (a few
// more under -race); one more allocation per row anywhere on the parse,
// execute or marshal path roughly doubles that.
func TestSQLAllocBudget(t *testing.T) {
	h := newTestServer(t, Config{CacheSize: -1}).Handler()
	const sql = `SELECT asn FROM asn_name`
	if _, resp := postSQL(t, h, sql); len(resp.Rows) < 4000 {
		t.Fatalf("%d rows; the budget assumes about 4,156", len(resp.Rows))
	}
	allocs := testing.AllocsPerRun(3, func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/sql", strings.NewReader(sql)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	})
	if allocs > 4050 {
		t.Errorf("%.0f allocations per uncached POST /sql; budget 4050", allocs)
	}
}

func TestMaxResultRowsTruncation(t *testing.T) {
	s := newTestServer(t, Config{MaxResultRows: 3})
	_, resp := postSQL(t, s.Handler(), `SELECT metro FROM asn_loc`)
	if !resp.Truncated || len(resp.Rows) != 3 || resp.RowCount <= 3 {
		t.Fatalf("truncation: rows=%d row_count=%d truncated=%v", len(resp.Rows), resp.RowCount, resp.Truncated)
	}
}

// TestPanicRecovery exercises the middleware with a handler that panics; no
// database build needed.
func TestPanicRecovery(t *testing.T) {
	s := &Server{
		cfg:     Config{RequestTimeout: time.Second},
		metrics: newMetrics(),
		sem:     make(chan struct{}, 1),
	}
	h := s.wrap("/boom", true, func(http.ResponseWriter, *http.Request) { panic("kaboom") })
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	if s.metrics.panics.Load() != 1 {
		t.Fatal("panic not counted")
	}
	// The limiter slot must have been released.
	select {
	case s.sem <- struct{}{}:
	default:
		t.Fatal("semaphore slot leaked after panic")
	}
}

// TestLimiterSaturation: with one slot held and a tiny deadline, a second
// request is rejected with 503 instead of queueing forever.
func TestLimiterSaturation(t *testing.T) {
	s := &Server{
		cfg:     Config{RequestTimeout: 20 * time.Millisecond},
		metrics: newMetrics(),
		sem:     make(chan struct{}, 1),
	}
	release := make(chan struct{})
	h := s.wrap("/slow", true, func(w http.ResponseWriter, r *http.Request) {
		<-release
		w.WriteHeader(http.StatusOK)
	})
	done := make(chan struct{})
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/slow", nil))
		close(done)
	}()
	// Wait until the first request holds the slot.
	for i := 0; len(s.sem) == 0 && i < 100; i++ {
		time.Sleep(time.Millisecond)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/slow", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated status = %d, want 503", rec.Code)
	}
	if s.metrics.rejected.Load() == 0 {
		t.Fatal("rejection not counted")
	}
	close(release)
	<-done
}

// TestSQLDeadlineStopsExecutor: 2N statements that each outlive a 50 ms
// deadline, against N limiter slots, all answer 503 or 504 within a
// second, and no executor is left running once they have.
func TestSQLDeadlineStopsExecutor(t *testing.T) {
	const n = 4
	s := newTestServer(t, Config{MaxConcurrency: n, RequestTimeout: 50 * time.Millisecond})
	h := s.Handler()
	t0 := time.Now()
	codes := make(chan int, 2*n)
	for i := 0; i < 2*n; i++ {
		go func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/sql",
				strings.NewReader(`SELECT COUNT(*) FROM asn_loc a JOIN asn_loc b ON a.asn < b.asn`)))
			codes <- rec.Code
		}()
	}
	for i := 0; i < 2*n; i++ {
		if code := <-codes; code != http.StatusServiceUnavailable && code != http.StatusGatewayTimeout {
			t.Errorf("status %d, want 503 or 504", code)
		}
	}
	if elapsed := time.Since(t0); elapsed > time.Second {
		t.Errorf("answers took %v, want under 1s", elapsed)
	}
	if got := s.metrics.rejected.Load(); got != 2*n {
		t.Errorf("rejected = %d, want %d", got, 2*n)
	}
	if left := leakgate.Running(time.Second, "igdb/internal/reldb"); len(left) > 0 {
		t.Fatalf("%d executor(s) still running after their deadline:\n\n%s", len(left), strings.Join(left, "\n\n"))
	}
}

// TestSQLExecutorPanic: a panic inside the executor is recovered by the
// middleware like any handler panic, and the server keeps serving.
func TestSQLExecutorPanic(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrency: 1})
	s.current().g.Rel.RegisterFunc("BOOM", func([]reldb.Value) (reldb.Value, error) { panic("boom") })
	h := s.Handler()
	if rec, _ := postSQL(t, h, `SELECT BOOM(asn) FROM asn_loc`); rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500: %s", rec.Code, rec.Body.String())
	}
	if got := s.metrics.panics.Load(); got != 1 {
		t.Fatalf("panics recovered = %d, want 1", got)
	}
	if rec, _ := postSQL(t, h, `SELECT COUNT(*) FROM asn_loc`); rec.Code != http.StatusOK {
		t.Fatalf("next request: status = %d: %s", rec.Code, rec.Body.String())
	}
}

// TestRunStopsPeriodicRebuild: cancelling Run after a periodic rebuild
// has swapped a snapshot in returns promptly; TestMain's gate then checks
// that the rebuild goroutine is gone too.
func TestRunStopsPeriodicRebuild(t *testing.T) {
	s := newTestServer(t, Config{Addr: "127.0.0.1:0", RebuildEvery: 10 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- s.Run(ctx) }()
	for deadline := time.Now().Add(30 * time.Second); s.metrics.rebuilds.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("no periodic rebuild within 30s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("Run = %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Run still serving 15s after cancel")
	}
}

func TestLRUCache(t *testing.T) {
	c := newLRU[int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatal("a missing")
	}
	c.Put("c", 3) // evicts b (a was just used)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should survive")
	}
	c.Put("a", 10)
	if v, _ := c.Get("a"); v != 10 {
		t.Fatal("refresh failed")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestNormalizeSQL(t *testing.T) {
	a := normalizeSQL("SELECT  *\n\tFROM t ;")
	b := normalizeSQL("SELECT * FROM t")
	if a != b {
		t.Fatalf("%q != %q", a, b)
	}
	// Distinct literals must never share a cache key.
	if normalizeSQL("SELECT 'A  B'") == normalizeSQL("SELECT 'A B'") {
		t.Fatal("whitespace inside string literals must be preserved")
	}
	if got := normalizeSQL("SELECT name FROM t WHERE x = 'a;  b' ;"); got != "SELECT name FROM t WHERE x = 'a;  b'" {
		t.Fatalf("normalizeSQL = %q", got)
	}
}
