#!/usr/bin/env bash
# Builds kvccd and the load driver from the checkout this script sits in,
# then runs the driver with the given arguments:
#
#   bash kvccbench/run.sh --workload enum-cold --seed 1 --seconds 10 --trace 0
#
# Run it from the checkout root. Everything it builds or writes goes under
# .bench_build/ there, including the Go build cache.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
cd "$root/kvccbench"
go build -o "$out/kvccd" kvcc/cmd/kvccd
go build -o "$out/kvccbench" .
cd "$root"
exec "$out/kvccbench" -root "$root" -kvccd "$out/kvccd" "$@"
