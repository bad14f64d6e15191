#!/usr/bin/env bash
# Builds tcbbench from source and runs it. Run it from the repository root,
# with tcbbench's own flags, e.g.
#
#   bash cmd/tcbbench/run.sh --workload attest-batched-routed --seed 1 --seconds 22 --trace 0
#
# The binary, the Go build cache and Go's temporary files all live under
# .bench_build in the repository, so a run writes nothing outside it.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
go -C cmd/tcbbench build -o "$out/tcbbench" .
exec "$out/tcbbench" "$@"
