#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload:
#
#   bash tsbench/run.sh --workload wc-paced --seed 1 --seconds 16 --trace 0
#
# Run it from the repository root. Everything it writes (Go build cache,
# binary, span dumps) goes under .bench_build/ in the current directory,
# or under $CARGO_TARGET_DIR when that is set.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [[ ! -f "$root/go.mod" ]]; then
	echo "tsbench: $root holds no go.mod; run from a full checkout of the repository" >&2
	exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/gocache" "$build/tmp"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$here" && go build -o "$build/tsbench" .)
exec "$build/tsbench" "$@"
