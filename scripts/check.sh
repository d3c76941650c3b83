#!/bin/sh
# Tier-1 verification gate: formatting, vet, build, static analysis, the
# full test suite once under the race detector, and one iteration of every
# benchmark. Run from anywhere inside the repo; it writes no tracked file.
set -eu

cd "$(dirname "$0")/.."

# The run must leave the working tree as it found it: its git status
# after the last step is compared with this one. Outside a git checkout
# both reads are empty.
status_before=$(git status --porcelain 2>/dev/null || true)

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: these files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...
# perfbench is a module of its own, so ./... never compiles it; vet
# type-checks it and its tests against the current tree.
(cd perfbench && go vet ./...)
go build ./...

# Project-aware static analysis (igdblint -rules lists the analyzers):
# every SQL literal runs in reldb against the canonical schema, error and
# logging discipline, path-sensitive mutex-guard checking, lock ordering,
# unused unexported functions (go/types' use records), and dead
# suppressions. Any finding fails the gate. Allocation discipline and
# metric hygiene are gated at runtime instead, by the AllocsPerRun budgets
# and TestMetricsExposition in the test run below.
go run ./cmd/igdblint ./...

# Every test, fuzz seed corpus, chaos and replication suite, and the
# leader/follower process test, under the race detector. This step also
# gates three invariants at run time. Goroutine lifetimes: the TestMain of
# graph, server, simulate, replicate and ingest calls internal/leakgate,
# which fails the package when its tests leave goroutines running its
# code, and leakgate's own test fails when a package that starts
# goroutines does not call it. Snapshot immutability: the server's
# replication test reads every value of each snapshot that Rebuild and
# the follower's sync publish while the publisher still runs, so a write
# after the publish is a DATA RACE, and another test records every value
# of the serving snapshot before and after one request to each route.
# Closed response bodies: the replication fetcher's tests count the
# bodies they receive, and the chaos transport's tests count the inner
# bodies its faults read; each fails on a body left open.
go test -race ./...

# perfbench's own tests build it against this tree and run every workload
# in a tiny form, untraced and traced, with its output checks, so a change
# that breaks what the benchmark reads fails here: renaming
# igdb_sql_calls_total, for one, leaves server.overhead_ms unmeasured.
(cd perfbench && go test ./...)

# One iteration of every benchmark so none can rot; -run '^$' skips the
# tests the race run has just passed.
go test -run '^$' -bench . -benchtime 1x ./...

status_after=$(git status --porcelain 2>/dev/null || true)
if [ "$status_after" != "$status_before" ]; then
    echo "check.sh: the run changed the working tree; git status before:" >&2
    echo "$status_before" >&2
    echo "and after:" >&2
    echo "$status_after" >&2
    exit 1
fi

echo "check.sh: all green"
