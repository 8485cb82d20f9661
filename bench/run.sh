#!/usr/bin/env bash
# Builds cmd/boolqd and the load generator from this checkout's source and
# runs the benchmark. Everything it writes (binaries, Go build cache,
# data dirs, result files) stays inside the checkout, under bench/out and
# .bench_build. Arguments go to boolqload unchanged:
#
#   bench/run.sh                          all four workloads, seed 1
#   bench/run.sh -workload query_hot -seed 7 -trace 1
#   bench/run.sh -repeat 2                two full sets, compared against the bounds
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ] || [ ! -d cmd/boolqd ]; then
	echo "bench/run.sh: $root does not hold the boolqd source; nothing to measure" >&2
	exit 3
fi

mkdir -p .bench_build/tmp bench/out/bin
# Nothing is downloaded (neither module has a dependency outside this
# checkout) and nothing is written outside it: the build cache, the go
# command's work directories, and its configuration directory, where it
# keeps its telemetry counters, are all redirected into the checkout.
export GOCACHE="$root/.bench_build/go-cache" GOPATH="$root/.bench_build/gopath"
export GOTMPDIR="$root/.bench_build/tmp" TMPDIR="$root/.bench_build/tmp"
export XDG_CONFIG_HOME="$root/.bench_build/config"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off GOPROXY=off
go build -o bench/out/bin/boolqd ./cmd/boolqd
(cd bench && go build -o out/bin/boolqload ./boolqload)

exec bench/out/bin/boolqload -root "$root" -boolqd bench/out/bin/boolqd "$@"
