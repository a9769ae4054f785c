#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs one workload:
#   bash perfbench/run.sh --workload curves --seed 1 --seconds 20 --trace 0
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/sweep" ]]; then
	echo "perfbench: run from the repository root (no faultexp source here)" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -workdir "$build/work" "$@"
