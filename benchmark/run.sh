#!/usr/bin/env bash
# Builds the benchmark harness from source into .bench_build/ at the root of
# the checkout and runs it. Everything the Go toolchain writes (build cache,
# module cache, its per-user configuration) is pointed inside .bench_build/,
# so a run reads and writes only inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/home"
(
	cd "$here"
	HOME="$out/home" GOCACHE="$out/gocache" GOPATH="$out/gopath" \
		GOFLAGS= GOTOOLCHAIN=local GOWORK=off \
		go build -o "$out/svmbenchmark" .
)
exec "$out/svmbenchmark" "$@"
