#!/bin/sh
# Tier-1 verification gate: formatting, vet, build, and the full test
# suite under the race detector. Run from anywhere inside the repo.
set -eu

cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: these files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...
go build ./...

# Project-aware static analysis (igdblint -rules lists the analyzers): SQL/
# schema consistency, error and logging discipline, path-sensitive
# mutex-guard checking, lock ordering, goroutine leaks, unclosed closers,
# call-graph dead code, snapshot immutability, context discipline, and dead
# suppressions. Any finding fails the gate. Allocation discipline and
# metric hygiene are gated at runtime instead, by the AllocsPerRun budgets
# and TestMetricsExposition in the test runs below.
go run ./cmd/igdblint ./...

go test -race ./...

# Replay the fuzz seed corpora (wkt, reldb SQL — including the seeds
# harvested from the repo's own queries — and source parsers) and run
# the fault-injection suites (chaos matrix, degraded builds/rebuilds,
# collect retry) under the race detector.
go test -race -run 'Fuzz.*' ./...
go test -race -run 'TestChaos|TestDegraded|TestStale|TestFailedRebuild|TestCollect|TestStoreConcurrent|TestFaults|TestDrop|TestFlaky' \
    ./internal/chaos/ ./internal/core/ ./internal/ingest/ ./internal/server/ ./cmd/igdb/

# Replication gate: the chaos acceptance matrix (truncated chunks, bit
# flips, stalls, dropped connections, leader down) and the mid-fetch
# failover test under the race detector — a follower must never serve a
# partial or corrupt snapshot, and must keep answering while its leader
# is gone.
go test -race -run 'TestReplica|TestSlowLoris' ./internal/server/
go test -race ./internal/replicate/

# Smoke the benchmark harness (one iteration per benchmark) so bench.sh and
# the benchmarks it drives cannot rot.
scripts/bench.sh --smoke

# Smoke the load generator end to end: a real leader + follower pair on a
# tiny store, corpus replay against both, EXPLAIN ANALYZE and
# /debug/statements asserted against the live leader, and a leader killed
# mid-stream with the follower's error rate asserted to be exactly zero.
scripts/loadgen.sh --smoke

# Smoke the what-if failure engine: a tiny deterministic scenario batch
# under the race detector (worker-pool result invariance and SQL-queryable
# stored rows), plus the harness that writes BENCH_simulate.json.
go test -race -run 'TestRunWorkerCountInvariance|TestStoreSQLQueryable' ./internal/simulate/
scripts/simulate.sh --smoke

echo "check.sh: all green"
