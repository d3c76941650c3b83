// Package server is iGDB's concurrent query-serving layer: a long-lived
// daemon that builds the cross-layer database once and then answers
// read-only traffic over HTTP — the paper's "self-contained SQL queries"
// (§3.4) as a service instead of a one-shot CLI run.
//
// Design:
//
//   - The built database (core.IGDB plus the §4.2 measurement pipeline) is
//     held behind an atomic.Pointer snapshot. Readers load the pointer once
//     per request and never take a lock; a background rebuild constructs a
//     fresh snapshot off to the side and swaps it in atomically, so queries
//     in flight keep the old tables and new queries see the new ones.
//   - Each snapshot carries its own LRU plan cache (normalized SQL →
//     prepared reldb.Stmt, so repeated statements are parsed once) and
//     result cache (normalized SQL → encoded rows). Tying the caches to the
//     snapshot makes a swap invalidate them wholesale, with no epoch
//     bookkeeping.
//   - POST /sql admits SELECT only: anything that parses to DDL/DML is
//     rejected with 403 before touching the database.
//   - Robustness: panic recovery, a concurrency limiter, per-request
//     timeouts, structured access logs, graceful shutdown, and /metrics
//     (request counts, latency histogram, cache hit rates, snapshot age).
package server

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"igdb/internal/core"
	"igdb/internal/ingest"
	"igdb/internal/obs"
	"igdb/internal/paths"
	"igdb/internal/reldb"
	"igdb/internal/replicate"
	"igdb/internal/simulate"
)

// Config controls the server.
type Config struct {
	// Dir is the snapshot store directory (igdb collect's -dir). Ignored
	// when Store is set.
	Dir string
	// Store is an optional pre-loaded snapshot store; tests and benchmarks
	// inject in-memory or fault-injecting (chaos) stores here.
	Store ingest.Reloader
	// AsOf pins builds to snapshots at-or-before this instant; zero = newest.
	AsOf time.Time
	// Degraded builds with core's per-source fault isolation: corrupt,
	// missing, or stale sources are quarantined in source_status instead of
	// failing the build, and a missing measurement pipeline (paths) is
	// tolerated. /healthz reports the per-source verdicts.
	Degraded bool
	// StaleAfter forwards to core.BuildOptions.StaleAfter: sources whose
	// snapshot lags the newest one by more than this are stale.
	StaleAfter time.Duration
	// Addr is the listen address for Run (default ":8080").
	Addr string
	// MaxConcurrency bounds simultaneously executing requests (default 64).
	MaxConcurrency int
	// RequestTimeout bounds one request end to end (default 30s).
	RequestTimeout time.Duration
	// CacheSize is the per-snapshot LRU capacity for both the plan and the
	// result cache (default 256). Negative disables the result cache (plans
	// are still cached); the throughput benchmark uses this to measure the
	// cache's contribution.
	CacheSize int
	// MaxResultRows caps the rows returned by one /sql call (default 10000).
	MaxResultRows int
	// RebuildEvery re-ingests from the store directory and swaps the
	// snapshot on this period (0 = only on POST /admin/rebuild).
	RebuildEvery time.Duration
	// Logger receives structured server logs (access lines, rebuild
	// outcomes, panics). When nil the server logs key=value text to stderr
	// honoring IGDB_LOG_FORMAT and IGDB_LOG_LEVEL.
	Logger *obs.Logger
	// SlowQueryMin is the /sql duration threshold past which a statement is
	// recorded in the slow-query log (GET /debug/queries). 0 means the
	// 250ms default; negative records every statement.
	SlowQueryMin time.Duration
	// QueryLogSize is the slow-query ring-buffer capacity (default 128).
	QueryLogSize int
	// StmtStatsSize caps how many distinct statement fingerprints the
	// /debug/statements aggregator tracks (default 512); executions of
	// fingerprints beyond the cap are only counted in aggregate.
	StmtStatsSize int
	// EnablePprof mounts net/http/pprof under GET /debug/pprof/.
	EnablePprof bool
	// SimulateScenarios, when positive, runs a Monte-Carlo what-if failure
	// batch of this many scenarios against every snapshot right after it
	// builds, so scenario_runs / scenario_impacts are populated and
	// queryable through POST /sql the moment the snapshot starts serving.
	// A failed simulation degrades to empty relations; it never blocks the
	// snapshot.
	SimulateScenarios int
	// SimulateSeed seeds the scenario generator (default 1); the same
	// store and seed produce identical scenario relations on every rebuild.
	SimulateSeed int64
	// Leader exposes the replication surface (GET /replica/manifest and
	// GET /replica/chunk/{hash}) so followers can sync from this server.
	Leader bool
	// LeaderURL makes this server a follower of that leader: it builds
	// nothing locally — snapshots arrive by replication, are verified
	// chunk-by-chunk, and swap in atomically. Data routes answer 503 until
	// the first successful sync. Dir and Store are not required.
	LeaderURL string
	// ReplicaPoll is the follower's manifest poll period (default 2s).
	ReplicaPoll time.Duration
	// ReplicaTimeout bounds one whole sync — manifest poll plus every
	// chunk fetch (default 30s). A stalled leader connection is abandoned
	// at this deadline and the follower keeps its last good snapshot.
	ReplicaTimeout time.Duration
	// ReplicaClient overrides the follower's HTTP client; chaos tests
	// inject fault-injecting transports here. Nil means a default client.
	ReplicaClient *http.Client
	// ReadHeaderTimeout, ReadTimeout, and IdleTimeout configure the
	// http.Server started by Run (defaults 10s, 30s, 120s). Explicit
	// timeouts keep a slow-loris client from pinning connections forever.
	ReadHeaderTimeout time.Duration
	ReadTimeout       time.Duration
	IdleTimeout       time.Duration
}

func (c *Config) fillDefaults() {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.MaxConcurrency <= 0 {
		c.MaxConcurrency = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.MaxResultRows <= 0 {
		c.MaxResultRows = 10000
	}
	if c.QueryLogSize <= 0 {
		c.QueryLogSize = 128
	}
	if c.ReplicaPoll <= 0 {
		c.ReplicaPoll = 2 * time.Second
	}
	if c.ReplicaTimeout <= 0 {
		c.ReplicaTimeout = 30 * time.Second
	}
	if c.ReadHeaderTimeout <= 0 {
		c.ReadHeaderTimeout = 10 * time.Second
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 30 * time.Second
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 120 * time.Second
	}
}

// resolveLogger picks the structured logger: explicit Logger or a fresh
// env-configured stderr logger.
func (c *Config) resolveLogger() *obs.Logger {
	if c.Logger != nil {
		return c.Logger
	}
	return obs.FromEnv(os.Stderr)
}

// snapshot is one immutable built database plus everything derived from it.
// All fields are read-only after construction; the caches are internally
// synchronized.
type snapshot struct {
	g         *core.IGDB
	pipe      *paths.Pipeline
	pipeErr   string // why pipe is nil (degraded builds only)
	seq       uint64
	builtAt   time.Time
	buildTime time.Duration
	simCount  int           // scenarios simulated against this snapshot
	simTime   time.Duration // wall time of that simulation batch
	// The statement and result caches take their own lock per operation,
	// so request goroutines may write them after the snapshot publishes.
	plans   *lruCache[*reldb.Stmt]
	results *lruCache[*sqlResult]

	// The replication artifact is rendered lazily, once, by the first
	// follower poll, with artOnce serializing the write; see
	// snapshot.artifact.
	artOnce sync.Once
	art     *replicate.Artifact
	artErr  error
}

// Server serves a built iGDB over HTTP.
type Server struct {
	cfg     Config
	store   ingest.Reloader
	snap    atomic.Pointer[snapshot]
	seq     atomic.Uint64
	metrics *Metrics
	sem     chan struct{}
	mux     *http.ServeMux
	logger  *obs.Logger
	qlog    *queryLog
	stmts   *stmtStats
	slowMin time.Duration // threshold for the slow-query log; 0 records all

	// fetcher pulls snapshots from the leader (followers only).
	fetcher *replicate.Fetcher

	// rebuildMu serializes rebuilds and replication syncs (and the store
	// reload inside rebuilds).
	rebuildMu sync.Mutex

	// stateMu guards the last-rebuild outcome reported by /healthz and the
	// follower's replication bookkeeping.
	stateMu        sync.Mutex
	lastRebuildErr error
	lastRebuildAt  time.Time
	repl           replState
}

// New loads the store, builds the first snapshot, and wires the routes.
// A follower (cfg.LeaderURL set) builds nothing: it attempts one initial
// sync from the leader and starts serving 503s on data routes until a sync
// succeeds — a leader that is down at follower startup is an expected,
// recoverable condition, not a construction error.
func New(cfg Config) (*Server, error) {
	cfg.fillDefaults()
	if cfg.Leader && cfg.LeaderURL != "" {
		return nil, fmt.Errorf("server: Leader and LeaderURL are mutually exclusive")
	}
	store := cfg.Store
	if store == nil && cfg.LeaderURL == "" {
		if cfg.Dir == "" {
			return nil, fmt.Errorf("server: Dir or Store is required")
		}
		store = ingest.NewStore(cfg.Dir)
		if err := store.Load(); err != nil {
			return nil, fmt.Errorf("server: loading store: %w", err)
		}
	}
	slowMin := cfg.SlowQueryMin
	switch {
	case slowMin == 0:
		slowMin = 250 * time.Millisecond
	case slowMin < 0:
		slowMin = 0 // record every statement
	}
	s := &Server{
		cfg:     cfg,
		store:   store,
		metrics: newMetrics(),
		sem:     make(chan struct{}, cfg.MaxConcurrency),
		logger:  cfg.resolveLogger(),
		qlog:    newQueryLog(cfg.QueryLogSize),
		stmts:   newStmtStats(cfg.StmtStatsSize),
		slowMin: slowMin,
	}
	if cfg.LeaderURL != "" {
		s.fetcher = &replicate.Fetcher{
			LeaderURL: strings.TrimRight(cfg.LeaderURL, "/"),
			Client:    cfg.ReplicaClient,
			Logger:    s.logger,
			Seed:      1,
		}
		if _, _, err := s.syncFromLeader(context.Background()); err != nil {
			s.logger.Warn("initial replication sync failed; data routes serve 503 until the leader is reachable",
				obs.F("leader", cfg.LeaderURL), obs.F("err", err))
		}
		s.routes()
		return s, nil
	}
	snap, err := s.buildSnapshot()
	if err != nil {
		return nil, err
	}
	s.snap.Store(snap)
	s.routes()
	return s, nil
}

// current returns the serving snapshot. Handlers call this once per request
// so one request always sees one consistent database.
func (s *Server) current() *snapshot { return s.snap.Load() }

// buildSnapshot constructs a fresh snapshot from the store. Callers other
// than New must hold rebuildMu.
func (s *Server) buildSnapshot() (*snapshot, error) {
	t0 := time.Now()
	g, err := core.Build(s.store, core.BuildOptions{
		AsOf:       s.cfg.AsOf,
		Degraded:   s.cfg.Degraded,
		StaleAfter: s.cfg.StaleAfter,
		Logger:     s.logger,
	})
	if err != nil {
		return nil, fmt.Errorf("server: build: %w", err)
	}
	var pipeErr string
	pipe, err := paths.NewPipeline(g, s.store)
	if err != nil {
		// The measurement pipeline reads its own snapshots (routeviews,
		// rdns, ripeatlas); in degraded mode a broken one costs /path, not
		// the whole server.
		if !s.cfg.Degraded {
			return nil, fmt.Errorf("server: paths pipeline: %w", err)
		}
		pipe, pipeErr = nil, err.Error()
		s.logger.Warn("degraded: paths pipeline unavailable", obs.F("err", err))
	}
	simCount, simTime := s.simulateSnapshot(g)
	snap := s.newSnapshot(g, pipe, pipeErr, s.seq.Add(1), time.Now(), time.Since(t0))
	snap.simCount, snap.simTime = simCount, simTime
	return snap, nil
}

// newSnapshot wraps a database for serving, with caches of its own: the
// statement cache holds max(CacheSize, 16) entries, and the result cache
// exists only when CacheSize is positive (a negative size disables it,
// and lookups then skip it).
func (s *Server) newSnapshot(g *core.IGDB, pipe *paths.Pipeline, pipeErr string, seq uint64, builtAt time.Time, buildTime time.Duration) *snapshot {
	snap := &snapshot{
		g:         g,
		pipe:      pipe,
		pipeErr:   pipeErr,
		seq:       seq,
		builtAt:   builtAt,
		buildTime: buildTime,
		plans:     newLRU[*reldb.Stmt](max(s.cfg.CacheSize, 16)),
	}
	if s.cfg.CacheSize > 0 {
		snap.results = newLRU[*sqlResult](s.cfg.CacheSize)
	}
	return snap
}

// simulateSnapshot runs the configured what-if failure batch against a
// freshly built database, before the snapshot starts serving. Simulation
// is auxiliary: on error the snapshot ships with empty scenario relations
// and the failure is logged and counted, mirroring how a degraded build
// quarantines a bad source instead of dying.
func (s *Server) simulateSnapshot(g *core.IGDB) (int, time.Duration) {
	if s.cfg.SimulateScenarios <= 0 {
		return 0, 0
	}
	eng, err := simulate.NewEngine(g, simulate.Options{
		Seed:   s.cfg.SimulateSeed,
		Logger: s.logger,
	})
	if err == nil {
		results := eng.Run(eng.Generate(s.cfg.SimulateScenarios))
		if _, serr := eng.Store(results); serr != nil {
			err = serr
		} else {
			s.metrics.simScenarios.Add(uint64(len(results)))
			return len(results), eng.Elapsed()
		}
	}
	s.metrics.simErrors.Add(1)
	s.logger.Warn("snapshot simulation failed", obs.F("err", err))
	return 0, 0
}

// Rebuild re-reads the store directory (picking up snapshots collected
// since startup), builds a fresh database, and atomically swaps it in.
// Readers are never blocked: they keep the old snapshot until the swap.
// Returns the new snapshot's sequence number and build duration. On a
// follower "rebuild" means one synchronous sync from the leader.
func (s *Server) Rebuild() (uint64, time.Duration, error) {
	if s.fetcher != nil {
		t0 := time.Now()
		seq, _, err := s.syncFromLeader(context.Background())
		return seq, time.Since(t0), err
	}
	s.rebuildMu.Lock()
	defer s.rebuildMu.Unlock()
	// Pick up store snapshots that appeared on disk since the last load
	// (in-memory stores no-op here).
	if err := s.store.Load(); err != nil {
		err = fmt.Errorf("server: reloading store: %w", err)
		s.noteRebuild(err)
		return 0, 0, err
	}
	snap, err := s.buildSnapshot()
	if err != nil {
		// The previous snapshot keeps serving; /healthz turns degraded.
		s.noteRebuild(err)
		return 0, 0, err
	}
	s.snap.Store(snap)
	s.noteRebuild(nil)
	s.metrics.rebuilds.Add(1)
	s.logger.Info("snapshot ready", obs.F("seq", snap.seq),
		obs.F("build_time", snap.buildTime.Round(time.Millisecond)))
	return snap.seq, snap.buildTime, nil
}

// noteRebuild records the most recent rebuild outcome for /healthz and
// bumps the failure counter on error.
func (s *Server) noteRebuild(err error) {
	if err != nil {
		s.metrics.rebuildErrors.Add(1)
	}
	s.stateMu.Lock()
	s.lastRebuildErr = err
	s.lastRebuildAt = time.Now()
	s.stateMu.Unlock()
}

// LastRebuildError returns the error of the most recent rebuild attempt
// (nil when it succeeded or none has run).
func (s *Server) LastRebuildError() error {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	return s.lastRebuildErr
}

// TryRebuild runs Rebuild unless one is already in flight.
func (s *Server) TryRebuild() (uint64, time.Duration, bool, error) {
	if !s.rebuildMu.TryLock() {
		return 0, 0, false, nil
	}
	s.rebuildMu.Unlock()
	seq, d, err := s.Rebuild()
	return seq, d, true, err
}

// Handler returns the fully middleware-wrapped HTTP handler; usable
// directly with httptest.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the server's counters (for tests and embedding).
func (s *Server) Metrics() *Metrics { return s.metrics }

// SnapshotSeq returns the serving snapshot's sequence number (0 on a
// follower that has not completed its first sync).
func (s *Server) SnapshotSeq() uint64 { return s.servingSeq() }

// Run serves until ctx is cancelled, then drains connections gracefully.
// When cfg.RebuildEvery > 0 a background ticker re-ingests and swaps the
// snapshot on that period.
func (s *Server) Run(ctx context.Context) error {
	httpSrv := &http.Server{
		Addr:              s.cfg.Addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: s.cfg.ReadHeaderTimeout,
		ReadTimeout:       s.cfg.ReadTimeout,
		IdleTimeout:       s.cfg.IdleTimeout,
	}
	if s.fetcher != nil {
		go s.pollLeader(ctx)
	}
	if s.cfg.RebuildEvery > 0 && s.fetcher == nil {
		go func() {
			tick := time.NewTicker(s.cfg.RebuildEvery)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					if _, _, err := s.Rebuild(); err != nil {
						s.logger.Error("periodic rebuild failed", obs.F("err", err))
					}
				}
			}
		}()
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	tables := 0
	if snap := s.current(); snap != nil {
		tables = len(snap.g.Rel.TableNames())
	}
	s.logger.Info("listening", obs.F("addr", s.cfg.Addr),
		obs.F("role", string(s.Role())),
		obs.F("snapshot", s.servingSeq()),
		obs.F("tables", tables))
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.logger.Info("shutting down")
		return httpSrv.Shutdown(shutCtx)
	}
}
