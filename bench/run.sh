#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds the benchmark (and, through
# it, ./cmd/stmkv) from the source of the checkout this file sits in,
# keeping every build product — Go's build cache included — under
# .bench_build/ in that checkout, then runs it with the given flags:
#
#   bash bench/run.sh --workload wire-depth1 --seed 7 --seconds 10 --trace 0
#
# Nothing is downloaded: the benchmark imports only the standard
# library and repro/internal/*, so a checkout without the repository's
# source fails here, at the build, with a non-zero exit.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C "$root/bench" build -o "$build/bench" .
exec "$build/bench" -root "$root" "$@"
