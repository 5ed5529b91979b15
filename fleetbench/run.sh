#!/usr/bin/env bash
# Builds the fleet benchmark from this checkout's sources and runs it
# with the given arguments, from the root of the checkout. Everything
# the build writes (binary, Go build cache) stays under .bench_build.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd fleetbench && go build -o "$out/fleetbench" .)
exec "$out/fleetbench" "$@"
