#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#   bash fvnbench/run.sh --workload isp-churn --seed 1 --seconds 25 --trace 0
#
# Run it from the root of the repository. The binary, the Go build cache
# and every temporary file (the serve-mix cache files, the traced run's
# spans) stay under $CARGO_TARGET_DIR, default .bench_build. Without the
# repository's sources next to fvnbench/ the build fails and so does the
# script, without printing a result.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's env file and telemetry counters
# inside the checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C fvnbench build -o "$out/fvnbench" .
exec "$out/fvnbench" "$@"
