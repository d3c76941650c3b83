#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the repository root. The Go build cache, temporary build
# files and the benchmark's results stay under .perfbench/ there, and the
# build never reaches the network.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the root of an igdb checkout" >&2
	exit 2
fi
state="$PWD/.perfbench"
mkdir -p "$state/bin" "$state/config" "$state/tmp"
export GOCACHE="$state/gocache" GOPATH="$state/gopath" GOTMPDIR="$state/tmp"
export XDG_CONFIG_HOME="$state/config" GOTOOLCHAIN=local GOWORK=off
export GOPROXY=off GOSUMDB=off GOFLAGS=-mod=readonly
(cd perfbench && go build -o "$state/bin/perfbench" .)
exec "$state/bin/perfbench" "$@"
