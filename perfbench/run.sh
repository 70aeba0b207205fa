#!/usr/bin/env bash
# Builds the benchmark and the election daemon from this checkout's sources
# into .bench_build/, then runs the benchmark with the given arguments.
# Run it from the repository root:
#
#	bash perfbench/run.sh --workload adversary-sweep --seed 1 --seconds 20 --trace 0
#
# Every build product, the Go build cache included, stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C "$root/perfbench" build -o "$out/perfbench" .
go build -o "$out/electd" ./cmd/electd
exec "$out/perfbench" -electd "$out/electd" "$@"
