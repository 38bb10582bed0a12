#!/usr/bin/env bash
# bench.sh — tier-1 gate + perf-trajectory benchmarks.
#
# Runs the build and full test suite, then the dispatch and campaign
# microbenchmarks with -benchmem, and writes machine-readable results
# to BENCH_<n>.json (n from $BENCH_INDEX, default 1) at the repo root,
# so future PRs can diff allocs/op and ns/op across the history.
#
# Usage: scripts/bench.sh [extra go-test -bench regexp]
set -euo pipefail

cd "$(dirname "$0")/.."

BENCH_INDEX="${BENCH_INDEX:-1}"
# BENCH_TIME shortens runs for smoke use (e.g. BENCH_TIME=100ms in CI).
BENCH_TIME="${BENCH_TIME:-1s}"
OUT="BENCH_${BENCH_INDEX}.json"
PATTERN="${1:-BenchmarkDispatchUninstrumented|BenchmarkDispatchInstrumentedMiss|BenchmarkDispatchInstrumentedHit|BenchmarkCampaignParallel|BenchmarkInterceptionBaseline|BenchmarkTriggerEvaluation|BenchmarkExecutorBatchLocal|BenchmarkExecutorBatchRemote|BenchmarkFleetPipelined|BenchmarkArenaRunReuse|BenchmarkSystemRun|BenchmarkSystemRunOnce|BenchmarkWireEncodeResponse|BenchmarkWireDecodeResponse|BenchmarkExploreCandidates|BenchmarkLintAnalyze|BenchmarkScenarioBuild}"

# BENCH_SKIP_TESTS=1 skips the tier-1 gate (CI runs it separately
# under -race; no point paying for the suite twice).
if [ "${BENCH_SKIP_TESTS:-0}" != "1" ]; then
    echo "== tier-1: go build ./... && go test ./..." >&2
    go build ./...
    go test ./...
fi

echo "== benchmarks: $PATTERN" >&2
# Root package carries the paper-level benchmarks; internal/exec the
# wire-codec microbenchmarks. The awk below keys on Benchmark lines
# only, so multiple package blocks concatenate cleanly.
RAW="$(go test -run '^$' -bench "$PATTERN" -benchmem -benchtime="$BENCH_TIME" . ./internal/exec)"
echo "$RAW" >&2

# Convert `go test -bench` lines into a JSON array:
#   BenchmarkName-8  N  ns/op  B/op  allocs/op  [custom metrics...]
echo "$RAW" | awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
BEGIN { print "{"; printf "  \"generated\": \"%s\",\n", date; print "  \"benchmarks\": [" ; first = 1 }
/^Benchmark/ {
    # $1 is the canonical benchmark name (incl. any -GOMAXPROCS suffix,
    # which benchstat-style tooling expects to stay).
    name = $1
    if (!first) printf ",\n"
    first = 0
    printf "    {\"name\": \"%s\", \"iterations\": %s", name, $2
    for (i = 3; i < NF; i += 2) {
        unit = $(i + 1)
        gsub(/\//, "_per_", unit)
        gsub(/[^A-Za-z0-9_%-]/, "_", unit)
        printf ", \"%s\": %s", unit, $i
    }
    printf "}"
}
END { print "\n  ]"; print "}" }
' > "$OUT"

echo "== wrote $OUT" >&2
