package server

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"igdb/internal/core"
	"igdb/internal/obs"
	"igdb/internal/paths"
	"igdb/internal/replicate"
)

// Role names a server's position in the replication topology.
type Role string

// The roles. A standalone server neither serves nor consumes artifacts.
const (
	RoleStandalone Role = "standalone"
	RoleLeader     Role = "leader"
	RoleFollower   Role = "follower"
)

// Role reports this server's replication role.
func (s *Server) Role() Role {
	switch {
	case s.cfg.LeaderURL != "":
		return RoleFollower
	case s.cfg.Leader:
		return RoleLeader
	default:
		return RoleStandalone
	}
}

// replState is the follower's replication bookkeeping, guarded by stateMu.
type replState struct {
	leaderSeq   uint64    // newest manifest seq seen on the leader
	lastSyncAt  time.Time // last successful sync (fetch or confirmed up-to-date)
	lastErr     string    // last poll/fetch failure; "" after a success
	lastErrAt   time.Time // when lastErr was recorded
	quarantined uint64    // transfers discarded before serving (mirrors the metric)
}

// artifact lazily renders this snapshot as a replication artifact. The
// encode cost is paid once, by the first follower to ask, and the result is
// immutable alongside the snapshot itself.
func (sn *snapshot) artifact(s *Server) (*replicate.Artifact, error) {
	sn.artOnce.Do(func() {
		sn.art, sn.artErr = replicate.BuildArtifact(sn.g.Rel, s.store, sn.seq, sn.builtAt, sn.g.AsOf)
	})
	return sn.art, sn.artErr
}

// handleReplicaManifest serves GET /replica/manifest: the serving
// snapshot's manifest, encoding the artifact on first use.
func (s *Server) handleReplicaManifest(w http.ResponseWriter, r *http.Request) {
	snap := s.current()
	if snap == nil {
		writeError(w, http.StatusServiceUnavailable, "no snapshot to replicate yet")
		return
	}
	art, err := snap.artifact(s)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "snapshot artifact unavailable: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	//lint:ignore errdrop a failed response write means the follower went away; it will re-poll
	_, _ = w.Write(art.ManifestJSON)
}

// handleReplicaChunk serves GET /replica/chunk/{hash}: raw chunk bytes by
// content address. 404 means the follower holds a manifest for a rotated
// snapshot and should re-poll.
func (s *Server) handleReplicaChunk(w http.ResponseWriter, r *http.Request) {
	snap := s.current()
	if snap == nil {
		writeError(w, http.StatusServiceUnavailable, "no snapshot to replicate yet")
		return
	}
	art, err := snap.artifact(s)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "snapshot artifact unavailable: %v", err)
		return
	}
	data, ok := art.Chunk(r.PathValue("hash"))
	if !ok {
		writeError(w, http.StatusNotFound, "no chunk %s in the serving snapshot", r.PathValue("hash"))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	//lint:ignore errdrop a failed response write surfaces follower-side as a short read and is retried there
	_, _ = w.Write(data)
}

// noteSyncError records one failed poll or transfer for /healthz and the
// error counter; quarantine marks transfers that were discarded after the
// manifest was obtained (corrupt bytes, bad decode, row drift).
func (s *Server) noteSyncError(err error, quarantine bool) {
	s.metrics.replFetchErrors.Add(1)
	if quarantine {
		s.metrics.replQuarantined.Add(1)
	}
	s.stateMu.Lock()
	s.repl.lastErr = err.Error()
	s.repl.lastErrAt = time.Now()
	if quarantine {
		s.repl.quarantined++
	}
	s.stateMu.Unlock()
}

// syncFromLeader polls the leader's manifest and, when it advertises a
// snapshot this follower is not serving, fetches, verifies, and swaps it
// in. Any failure leaves the current snapshot untouched. Returns the seq
// now serving and whether a new snapshot was installed.
func (s *Server) syncFromLeader(ctx context.Context) (uint64, bool, error) {
	s.rebuildMu.Lock()
	defer s.rebuildMu.Unlock()
	ctx, cancel := context.WithTimeout(ctx, s.cfg.ReplicaTimeout)
	defer cancel()

	m, err := s.fetcher.Manifest(ctx)
	if err != nil {
		s.noteSyncError(err, false)
		return s.servingSeq(), false, err
	}
	s.stateMu.Lock()
	s.repl.leaderSeq = m.Seq
	s.stateMu.Unlock()
	if cur := s.current(); cur != nil && cur.seq == m.Seq {
		s.stateMu.Lock()
		s.repl.lastSyncAt = time.Now()
		s.repl.lastErr = ""
		s.stateMu.Unlock()
		return m.Seq, false, nil
	}

	t0 := time.Now()
	s.metrics.replFetches.Add(1)
	p, err := s.fetcher.Fetch(ctx, m)
	if p != nil {
		s.metrics.replChunkRetries.Add(uint64(p.ChunkRetries))
	}
	if err != nil {
		// The transfer is quarantined wholesale: nothing fetched under this
		// manifest reaches the serving path.
		s.noteSyncError(err, true)
		return s.servingSeq(), false, err
	}
	snap, err := s.snapshotFromPayload(p, time.Since(t0))
	if err != nil {
		s.noteSyncError(err, true)
		return s.servingSeq(), false, err
	}
	s.metrics.replBytes.Add(uint64(p.Bytes))
	s.snap.Store(snap)
	s.stateMu.Lock()
	s.repl.lastSyncAt = time.Now()
	s.repl.lastErr = ""
	s.stateMu.Unlock()
	s.logger.Info("replica snapshot installed",
		obs.F("seq", snap.seq), obs.F("bytes", p.Bytes),
		obs.F("chunks", len(m.Chunks)), obs.F("chunk_retries", p.ChunkRetries),
		obs.F("fetch_ms", time.Since(t0).Round(time.Millisecond)))
	return snap.seq, true, nil
}

// snapshotFromPayload turns one verified transfer into a servable snapshot:
// the gazetteer and path network are reconstructed from the replicated
// relations, and the paths pipeline is trained from the replicated
// measurement sources (missing ones cost /path, exactly as on a degraded
// leader). Scenario relations arrive as data, so no local simulation runs.
func (s *Server) snapshotFromPayload(p *replicate.Payload, fetchTime time.Duration) (*snapshot, error) {
	g, err := core.FromRelations(p.DB, p.Manifest.AsOf)
	if err != nil {
		return nil, fmt.Errorf("server: reconstructing snapshot %d: %w", p.Manifest.Seq, err)
	}
	var pipeErr string
	pipe, err := paths.NewPipeline(g, p.Sources)
	if err != nil {
		pipe, pipeErr = nil, err.Error()
		s.logger.Warn("replica: paths pipeline unavailable", obs.F("err", err))
	}
	return s.newSnapshot(g, pipe, pipeErr, p.Manifest.Seq, p.Manifest.BuiltAt, fetchTime), nil
}

// servingSeq is the current snapshot's seq, or 0 before the first sync.
func (s *Server) servingSeq() uint64 {
	if snap := s.current(); snap != nil {
		return snap.seq
	}
	return 0
}

// replicaGauges samples the replication gauges for /metrics and /healthz.
func (s *Server) replicaGauges() replGauges {
	g := replGauges{role: s.Role()}
	s.stateMu.Lock()
	g.leaderSeq = s.repl.leaderSeq
	g.lastSyncAt = s.repl.lastSyncAt
	g.lastErr = s.repl.lastErr
	s.stateMu.Unlock()
	if g.role == RoleFollower {
		if snap := s.current(); snap != nil {
			g.lagS = time.Since(snap.builtAt).Seconds()
		} else {
			g.lagS = -1 // never synced; no data to measure lag against
		}
	}
	return g
}

// pollLeader is the follower's background sync loop: one poll per
// ReplicaPoll tick until ctx ends. Errors are already recorded by
// syncFromLeader; here they only rate-limit the log.
func (s *Server) pollLeader(ctx context.Context) {
	tick := time.NewTicker(s.cfg.ReplicaPoll)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			if _, _, err := s.syncFromLeader(ctx); err != nil && ctx.Err() == nil {
				s.logger.Warn("replica sync failed; serving last good snapshot", obs.F("err", err))
			}
		}
	}
}
