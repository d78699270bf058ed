#!/usr/bin/env bash
# Builds the benchmark and the anond daemon from this checkout's sources,
# then runs the benchmark with the given arguments. Run it from the
# repository root:
#
#   bash bench/run.sh --workload exact-design --seed 1 --seconds 30 --trace 0
#
# Binaries, the Go build cache, temporary files and traces go to
# .bench_build/, and HOME points there too, so a run writes nothing outside
# the checkout.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go -C bench build -o "$out/bench" .
go -C bench build -o "$out/anond" anonmix/cmd/anond
exec "$out/bench" -anond "$out/anond" "$@"
