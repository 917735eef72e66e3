#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark program (its own
# module, bench/go.mod) into .bench_build/ at the checkout root and runs it
# with the arguments given. Every path the toolchain writes (build cache,
# temporary files, binaries) is kept inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOFLAGS=-modcacherw GOWORK=off GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/bin/tvdp-e2e" .
cd "$root"
exec "$build/bin/tvdp-e2e" "$@"
