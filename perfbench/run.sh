#!/usr/bin/env bash
# Builds the benchmark and the sacd and saccoord daemons from this checkout's sources, then
# runs one workload. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload sim-run --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in the
# checkout: the Go build cache, the binaries, scratch stores and traces.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-mod=mod

(cd perfbench && go build -o "$out/bin/perfbench" . && go build -o "$out/bin/sacd" repro/cmd/sacd &&
	go build -o "$out/bin/saccoord" repro/cmd/saccoord) >&2
exec "$out/bin/perfbench" "$@"
