#!/usr/bin/env bash
# Builds the serving benchmark from the sources of this checkout and runs it
# with the given arguments, from the checkout's root. Build outputs, the Go
# build cache and the benchmark's temporary stores all stay under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
# The benchmark needs nothing outside the checkout: never reach a proxy.
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod GOPROXY=off GOSUMDB=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" -workdir "$out" "$@"
