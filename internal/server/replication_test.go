package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"igdb/internal/chaos"
)

// newLeaderPair starts a leader over httptest and a follower replicating
// from it through a chaos fault injector. The follower has completed its
// initial sync when this returns. replicaTimeout bounds one whole sync —
// keep it generous unless the test stalls a transfer, in which case the
// stall costs exactly this long.
func newLeaderPair(t *testing.T, replicaTimeout time.Duration) (leader, follower *Server, tr *chaos.Transport) {
	t.Helper()
	leader = newTestServer(t, Config{Leader: true})
	lsrv := httptest.NewServer(leader.Handler())
	t.Cleanup(lsrv.Close)

	tr = chaos.NewTransport(nil, 7)
	follower = newTestServer(t, Config{
		LeaderURL:      lsrv.URL,
		ReplicaClient:  &http.Client{Transport: tr},
		ReplicaTimeout: replicaTimeout,
	})
	if follower.SnapshotSeq() != leader.SnapshotSeq() {
		t.Fatalf("initial sync: follower seq %d, leader seq %d", follower.SnapshotSeq(), leader.SnapshotSeq())
	}
	return leader, follower, tr
}

func getHealth(t *testing.T, h http.Handler) healthReport {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/healthz status = %d", rec.Code)
	}
	var rep healthReport
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatalf("bad /healthz body: %v", err)
	}
	return rep
}

func getMetrics(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d", rec.Code)
	}
	return rec.Body.String()
}

func TestReplicationFollowerServesLeaderSnapshot(t *testing.T) {
	leader, follower, _ := newLeaderPair(t, 30*time.Second)

	// The reference workload answers identically on both ends.
	lrec, lresp := postSQL(t, leader.Handler(), table2SQL)
	frec, fresp := postSQL(t, follower.Handler(), table2SQL)
	if lrec.Code != http.StatusOK || frec.Code != http.StatusOK {
		t.Fatalf("statuses: leader %d, follower %d", lrec.Code, frec.Code)
	}
	if lresp.RowCount != fresp.RowCount || len(lresp.Rows) != len(fresp.Rows) {
		t.Fatalf("row counts differ: leader %d, follower %d", lresp.RowCount, fresp.RowCount)
	}
	for i := range lresp.Rows {
		for j := range lresp.Rows[i] {
			if fmt.Sprint(lresp.Rows[i][j]) != fmt.Sprint(fresp.Rows[i][j]) {
				t.Fatalf("row %d col %d: leader %v, follower %v", i, j, lresp.Rows[i][j], fresp.Rows[i][j])
			}
		}
	}

	// The replicated measurement sources trained the paths pipeline.
	if rep := getHealth(t, follower.Handler()); rep.PathsPipeline != "ok" {
		t.Fatalf("follower paths pipeline = %q", rep.PathsPipeline)
	}

	// A leader rebuild propagates on the next poll. Both publishes run
	// under publishGate, so -race sees a write to either new snapshot
	// after its Store.
	oldSeq := follower.SnapshotSeq()
	var err error
	publishGate(leader, func() { _, _, err = leader.Rebuild() })
	if err != nil {
		t.Fatal(err)
	}
	var installed bool
	publishGate(follower, func() { _, installed, err = follower.syncFromLeader(context.Background()) })
	if err != nil || !installed {
		t.Fatalf("sync after leader rebuild: installed=%v err=%v", installed, err)
	}
	if follower.SnapshotSeq() != leader.SnapshotSeq() || follower.SnapshotSeq() == oldSeq {
		t.Fatalf("follower seq %d, leader seq %d (was %d)", follower.SnapshotSeq(), leader.SnapshotSeq(), oldSeq)
	}

	// An up-to-date poll is a no-op, not an error.
	if _, installed, err := follower.syncFromLeader(context.Background()); err != nil || installed {
		t.Fatalf("up-to-date poll: installed=%v err=%v", installed, err)
	}
}

func TestReplicationHealthzFields(t *testing.T) {
	leader, follower, _ := newLeaderPair(t, 30*time.Second)

	if rep := getHealth(t, leader.Handler()); rep.Role != string(RoleLeader) || rep.LeaderURL != "" {
		t.Fatalf("leader healthz role = %q leader_url = %q", rep.Role, rep.LeaderURL)
	}
	standalone := newTestServer(t, Config{})
	if rep := getHealth(t, standalone.Handler()); rep.Role != string(RoleStandalone) {
		t.Fatalf("standalone healthz role = %q", rep.Role)
	}

	rep := getHealth(t, follower.Handler())
	if rep.Role != string(RoleFollower) {
		t.Fatalf("follower healthz role = %q", rep.Role)
	}
	if rep.LeaderURL == "" || rep.LeaderSeq != leader.SnapshotSeq() {
		t.Fatalf("follower healthz leader_url = %q leader_seq = %d (leader at %d)",
			rep.LeaderURL, rep.LeaderSeq, leader.SnapshotSeq())
	}
	if rep.ReplicaLagS < 0 {
		t.Fatalf("replica_lag_s = %g after a successful sync", rep.ReplicaLagS)
	}
	if rep.LastFetchErr != "" || rep.LastFetchUnix == 0 {
		t.Fatalf("after success: last_fetch_error=%q last_fetch_unix=%d", rep.LastFetchErr, rep.LastFetchUnix)
	}

	m := getMetrics(t, follower.Handler())
	for _, want := range []string{
		"igdb_replica_role 2",
		"igdb_replica_fetches_total 1",
		"igdb_replica_fetch_errors_total 0",
		"igdb_replica_quarantined_total 0",
		"igdb_replica_lag_seconds",
		"igdb_replica_leader_seq",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("follower /metrics missing %q", want)
		}
	}
	if m := getMetrics(t, leader.Handler()); !strings.Contains(m, "igdb_replica_role 1") {
		t.Error("leader /metrics missing igdb_replica_role 1")
	}
}

// TestReplicationChaosMatrix is the acceptance matrix: for every transport
// fault, a follower never serves a partial or corrupt snapshot, /healthz
// names the fault, queries keep succeeding against the last good snapshot,
// and clearing the fault recovers on the next sync.
func TestReplicationChaosMatrix(t *testing.T) {
	// 2s is what one stalled transfer costs the matrix; every healthy sync
	// finishes far inside it.
	leader, follower, tr := newLeaderPair(t, 2*time.Second)

	cases := []struct {
		name    string
		inject  func()
		errName string // substring /healthz must surface for this fault
	}{
		{"truncate", func() {
			// Three one-shot faults cover the fetcher's three attempts.
			tr.Inject(chaos.TruncateBody("/replica/chunk/"),
				chaos.TruncateBody("/replica/chunk/"),
				chaos.TruncateBody("/replica/chunk/"))
		}, "unexpected EOF"},
		{"flip", func() {
			tr.Inject(chaos.FlipBody("/replica/chunk/", 4),
				chaos.FlipBody("/replica/chunk/", 4),
				chaos.FlipBody("/replica/chunk/", 4))
		}, "checksum mismatch"},
		{"stall", func() {
			tr.Inject(chaos.Stall("/replica/manifest"))
		}, "context deadline exceeded"},
		{"drop", func() {
			tr.Inject(chaos.DropConn("/replica/chunk/"),
				chaos.DropConn("/replica/chunk/"),
				chaos.DropConn("/replica/chunk/"))
		}, "connection reset"},
		{"down", func() {
			tr.SetDown(true)
		}, "connection refused"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			goodSeq := follower.SnapshotSeq()
			// The leader moves ahead, so the follower has something to fetch.
			if _, _, err := leader.Rebuild(); err != nil {
				t.Fatal(err)
			}
			tc.inject()

			if _, installed, err := follower.syncFromLeader(context.Background()); err == nil || installed {
				t.Fatalf("faulted sync: installed=%v err=%v", installed, err)
			}
			// Quarantine: the follower still serves the last good snapshot.
			if got := follower.SnapshotSeq(); got != goodSeq {
				t.Fatalf("follower moved to seq %d under fault %s", got, tc.name)
			}
			rec, resp := postSQL(t, follower.Handler(), table2SQL)
			if rec.Code != http.StatusOK || resp.SnapshotSeq != goodSeq {
				t.Fatalf("query under fault: status=%d seq=%d want %d", rec.Code, resp.SnapshotSeq, goodSeq)
			}
			// /healthz names the fault.
			rep := getHealth(t, follower.Handler())
			if rep.Status != "degraded" || !strings.Contains(rep.LastFetchErr, tc.errName) {
				t.Fatalf("healthz status=%q last_fetch_error=%q, want degraded naming %q",
					rep.Status, rep.LastFetchErr, tc.errName)
			}

			// Fault cleared: the next sync installs the leader's snapshot.
			tr.Clear()
			if _, installed, err := follower.syncFromLeader(context.Background()); err != nil || !installed {
				t.Fatalf("recovery sync: installed=%v err=%v", installed, err)
			}
			if follower.SnapshotSeq() != leader.SnapshotSeq() {
				t.Fatalf("after recovery: follower %d, leader %d", follower.SnapshotSeq(), leader.SnapshotSeq())
			}
			if rep := getHealth(t, follower.Handler()); rep.LastFetchErr != "" {
				t.Fatalf("last_fetch_error=%q after recovery", rep.LastFetchErr)
			}
		})
	}

	// The matrix left its marks in the counters.
	m := getMetrics(t, follower.Handler())
	if !strings.Contains(m, "igdb_replica_quarantined_total") || strings.Contains(m, "igdb_replica_quarantined_total 0\n") {
		t.Error("quarantine counter did not move across the matrix")
	}
	if strings.Contains(m, "igdb_replica_chunk_retries_total 0\n") {
		t.Error("chunk retry counter did not move across the matrix")
	}
}

// TestReplicationFailover kills the leader mid-fetch while queries hammer
// the follower: the follower must keep answering from its last good
// snapshot through the outage and catch up when the leader returns.
func TestReplicationFailover(t *testing.T) {
	leader, follower, tr := newLeaderPair(t, 30*time.Second)
	goodSeq := follower.SnapshotSeq()

	// Query load for the whole scenario; any non-200 is a failover failure.
	var failures atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				req := httptest.NewRequest("POST", "/sql", strings.NewReader(table2SQL))
				rec := httptest.NewRecorder()
				follower.Handler().ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					failures.Add(1)
				}
				// Yield so the sync under test is not starved on small
				// GOMAXPROCS; the CI box has a single core.
				time.Sleep(time.Millisecond)
			}
		}()
	}

	// The leader publishes a new snapshot, then dies mid-transfer: the
	// first chunk requests are reset, and every request after that is
	// refused outright.
	if _, _, err := leader.Rebuild(); err != nil {
		t.Fatal(err)
	}
	tr.Inject(chaos.DropConn("/replica/chunk/"), chaos.DropConn("/replica/chunk/"), chaos.DropConn("/replica/chunk/"))
	tr.SetDown(true)
	if _, installed, err := follower.syncFromLeader(context.Background()); err == nil || installed {
		t.Fatalf("mid-fetch kill: installed=%v err=%v", installed, err)
	}
	// Repeated polls against the dead leader change nothing.
	for i := 0; i < 3; i++ {
		if _, _, err := follower.syncFromLeader(context.Background()); err == nil {
			t.Fatal("poll against dead leader succeeded")
		}
	}
	if follower.SnapshotSeq() != goodSeq {
		t.Fatalf("follower abandoned its snapshot during the outage (seq %d)", follower.SnapshotSeq())
	}

	// Leader returns; the follower catches up.
	tr.Clear()
	if _, installed, err := follower.syncFromLeader(context.Background()); err != nil || !installed {
		t.Fatalf("catch-up sync: installed=%v err=%v", installed, err)
	}
	if follower.SnapshotSeq() != leader.SnapshotSeq() {
		t.Fatalf("follower %d, leader %d after recovery", follower.SnapshotSeq(), leader.SnapshotSeq())
	}

	close(stop)
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d queries failed during failover; the follower must keep serving", n)
	}
}

// TestReplicationFollowerStartsWithDeadLeader: a follower whose leader is
// down at startup still constructs, serves 503 on data routes with a clear
// body, reports "syncing", and starts serving after the first good sync.
func TestReplicationFollowerStartsWithDeadLeader(t *testing.T) {
	leader := newTestServer(t, Config{Leader: true})
	lsrv := httptest.NewServer(leader.Handler())
	t.Cleanup(lsrv.Close)

	tr := chaos.NewTransport(nil, 7)
	tr.SetDown(true)
	follower := newTestServer(t, Config{
		LeaderURL:      lsrv.URL,
		ReplicaClient:  &http.Client{Transport: tr},
		ReplicaTimeout: 30 * time.Second,
	})
	if follower.SnapshotSeq() != 0 {
		t.Fatalf("seq = %d with a dead leader", follower.SnapshotSeq())
	}
	rec, _ := postSQL(t, follower.Handler(), table2SQL)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("data route status = %d, want 503", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "no snapshot yet") {
		t.Fatalf("503 body does not explain: %s", rec.Body.String())
	}
	rep := getHealth(t, follower.Handler())
	if rep.Status != "syncing" || rep.LastFetchErr == "" || rep.ReplicaLagS != -1 {
		t.Fatalf("healthz = %+v, want syncing with an error and lag -1", rep)
	}

	tr.SetDown(false)
	if _, installed, err := follower.syncFromLeader(context.Background()); err != nil || !installed {
		t.Fatalf("first good sync: installed=%v err=%v", installed, err)
	}
	if rec, resp := postSQL(t, follower.Handler(), table2SQL); rec.Code != http.StatusOK || resp.RowCount == 0 {
		t.Fatalf("follower not serving after first sync: %d", rec.Code)
	}
}

// TestReplicaEndpointsOnLeader covers the wire surface directly: manifest
// content type, chunk round-trip, 404 for unknown hashes, and absence of
// the endpoints on non-leaders.
func TestReplicaEndpointsOnLeader(t *testing.T) {
	leader := newTestServer(t, Config{Leader: true})
	h := leader.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/replica/manifest", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Header().Get("Content-Type"), "application/json") {
		t.Fatalf("manifest: status=%d type=%q", rec.Code, rec.Header().Get("Content-Type"))
	}
	var m struct {
		Chunks []struct {
			SHA256 string `json:"sha256"`
			Bytes  int    `json:"bytes"`
		} `json:"chunks"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil || len(m.Chunks) == 0 {
		t.Fatalf("bad manifest: %v", err)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/replica/chunk/"+m.Chunks[0].SHA256, nil))
	if rec.Code != http.StatusOK || rec.Body.Len() != m.Chunks[0].Bytes {
		t.Fatalf("chunk: status=%d len=%d want %d", rec.Code, rec.Body.Len(), m.Chunks[0].Bytes)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/replica/chunk/"+strings.Repeat("ab", 32), nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown chunk status = %d, want 404", rec.Code)
	}

	standalone := newTestServer(t, Config{})
	rec = httptest.NewRecorder()
	standalone.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/replica/manifest", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("standalone serves /replica/manifest (status %d)", rec.Code)
	}
}

// TestSlowLorisConnectionReaped: the listener must drop a client that
// sends headers and then goes silent, instead of pinning the connection
// until the heat death of the accept loop.
func TestSlowLorisConnectionReaped(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, Config{
		Addr:              addr,
		ReadHeaderTimeout: 150 * time.Millisecond,
		ReadTimeout:       300 * time.Millisecond,
		IdleTimeout:       time.Second,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- s.Run(ctx) }()

	// Wait for the listener to come up.
	var conn net.Conn
	for i := 0; i < 100; i++ {
		conn, err = net.Dial("tcp", addr)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("server never listened on %s: %v", addr, err)
	}

	// A partial request that never finishes its headers.
	if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: igdb\r\nX-Slow:")); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(3 * time.Second)); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	buf := make([]byte, 512)
	for {
		// The server must close the connection (read returns EOF or a
		// 408); our read deadline failing instead means it never did.
		_, rerr := conn.Read(buf)
		if rerr != nil {
			if ne, ok := rerr.(net.Error); ok && ne.Timeout() {
				t.Fatal("connection still open 3s after headers stalled; ReadHeaderTimeout not enforced")
			}
			break
		}
	}
	if elapsed := time.Since(t0); elapsed > 2*time.Second {
		t.Fatalf("slow-loris connection survived %v", elapsed)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}

	// The server itself is unharmed: a well-formed request still works.
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after slow-loris: %d", resp.StatusCode)
	}

	cancel()
	if err := <-runDone; err != nil && err != http.ErrServerClosed && ctx.Err() == nil {
		t.Fatal(err)
	}
}
