#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it from the
# repository root. Everything the build writes — the binary, the Go build
# cache, temporary files — stays under .bench_build/ in the checkout, and the
# build never reaches for the network.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

(
	cd "$root/bench"
	GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
		GOPROXY=off GOTOOLCHAIN=local GOWORK=off \
		go build -o "$build/grbbench" .
)

cd "$root"
exec "$build/grbbench" "$@"
