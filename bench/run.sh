#!/usr/bin/env bash
# Builds bench/kpjload from source and runs it with the arguments given:
#   bash bench/run.sh --workload query-far --seed 1 --seconds 10 --trace 0
# Everything the build and the run write — Go's build cache, the binary,
# the fleet's scratch files — stays under .bench_build in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"

(
	export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
	export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
	export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
	go build -C "$root/bench" -o "$build/kpjload" ./kpjload
)

exec "$build/kpjload" -dir "$build/tmp" "$@"
