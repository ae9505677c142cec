#!/usr/bin/env bash
# Builds the serving benchmark and the cmd/fleetload oracle from the
# checkout's sources, then runs the benchmark with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload fleet-gateway --seed 1 --seconds 10 --trace 0
#
# Every build and scratch file stays under .bench_build/perfbench.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the
# checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
go build -o "$out/fleetload" ./cmd/fleetload
exec "$out/perfbench" -root "$root" -out "$out" "$@"
