#!/usr/bin/env bash
# run.sh builds the end-to-end explore benchmark from source and runs it
# with the given flags, e.g. from the repository root:
#
#   bash bench/run.sh --workload explore-cold --seed 1 --seconds 22 --trace 0
#
# With no --workload it runs all four workloads, each in its own process.
# Everything the build and the run write (Go build cache, temp stores,
# result files) stays under .bench_build/ at the repository root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

bin="$build/lfibench"
(cd "$root/bench" && go build -o "$bin.$$" .)
mv -f "$bin.$$" "$bin"

cd "$root"
exec "$bin" "$@"
