#!/usr/bin/env bash
# Runs the imind benchmark from the repository root, keeping the Go build
# cache, Go's user configuration, temporary files, the built binaries and
# all daemon state under .bench_build in the current directory. Arguments
# are passed through:
#
#   bash cmd/imindbench/run.sh --workload hot-solve --seed 1 --seconds 10 --trace 0
set -euo pipefail

work="$PWD/.bench_build"
mkdir -p "$work/gocache" "$work/config" "$work/tmp"
export GOCACHE="$work/gocache" XDG_CONFIG_HOME="$work/config" GOTMPDIR="$work/tmp" TMPDIR="$work/tmp"
export GOPROXY=off GOTOOLCHAIN=local

go build -o "$work/imindbench" ./cmd/imindbench
exec "$work/imindbench" "$@"
