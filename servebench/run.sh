#!/usr/bin/env bash
# Builds the paceserve benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash servebench/run.sh --workload predict_replay --seed 3 --seconds 20 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and Go's
# temporary files all live under .bench_build/ in the current directory, so
# nothing is written outside it. Build output goes to standard error; the
# last line of standard output is the benchmark's JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOWORK=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$out/servebench" .) >&2
exec "$out/servebench" "$@"
