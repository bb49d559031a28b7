#!/usr/bin/env bash
# Builds stochschedd and the benchmark from this checkout's sources into
# .bench_build/e2ebench, then runs the benchmark. Run it from the root of
# the repository:
#
#   bash e2ebench/run.sh --workload warm-hits --seed 1 --seconds 10 --trace 0
#
# Every build product, the Go build cache included, stays inside the
# checkout, and nothing is fetched over the network.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/stochschedd" || ! -f "$root/e2ebench/go.mod" ]]; then
	echo "e2ebench: run from the root of a stochsched checkout (no stochsched sources here)" >&2
	exit 2
fi

build="$root/.bench_build/e2ebench"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/mod"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off

go build -o "$build/stochschedd" ./cmd/stochschedd
(cd "$root/e2ebench" && go build -o "$build/e2ebench" .)

if [[ -z "${E2EBENCH_COMMIT:-}" ]]; then
	E2EBENCH_COMMIT=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
	export E2EBENCH_COMMIT
fi
exec "$build/e2ebench" -daemon "$build/stochschedd" -logdir "$build" "$@"
