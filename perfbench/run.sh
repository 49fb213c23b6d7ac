#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload sort-mono --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs and the Go build cache stay
# in .bench_build under the current directory (or $CARGO_TARGET_DIR when set),
# and so does the go command's own state, so nothing is written to the home
# directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
# The go command keeps telemetry counters under the user config directory.
export XDG_CONFIG_HOME="$out/config"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=-mod=mod

(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
