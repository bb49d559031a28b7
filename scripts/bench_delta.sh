#!/bin/sh
# bench_delta.sh — the benchmark table behind `make bench` and
# `make bench-check`.
#
# Each row of the table below pairs a benchmark pattern with the
# checked-in BENCH file that records it, so every BENCH file is both
# recorded and gated by construction.
#
#   scripts/bench_delta.sh [FILE...]         gate (make bench-check)
#   scripts/bench_delta.sh record [FILE...]  re-record (make bench)
#
# Naming BENCH files restricts either mode to those rows.
#
# record runs each benchmark 3 times and writes the per-benchmark best
# (bench2json folds repeated runs to their minimum).
#
# The gate re-runs each benchmark and fails when any entry regresses more
# than BENCH_TOLERANCE_PCT (default 15) percent in ns/op or bytes/op
# against its baseline. Each benchmark is measured BENCH_COUNT (default 6)
# times at BENCH_TIME (default 0.5s) each and folded to its best run — the
# minimum is the least noisy estimate of the code's cost. When a suite
# still fails, it is re-measured up to BENCH_ATTEMPTS (default 3) times
# total with every sample folded in: shared machines throttle in windows
# long enough to poison one whole measurement pass, but a genuine
# regression fails every attempt no matter how many samples accumulate.
# bytes/op is deterministic and is the gate's sharp edge.
set -eu

cd "$(dirname "$0")/.."

# The table: engine replications at parallel 1/4/max; /v1/index cold vs
# warm cache hit; /v1/simulate per kind, cold and warm; N index calls
# singly vs one /v1/batch; fixed budget vs target precision (and CRN);
# local vs forwarded cluster hit and 1- vs 3-node sweep.
TABLE='BenchmarkEngineReplications$ BENCH_engine.json
BenchmarkServiceIndexCache$ BENCH_service.json
BenchmarkSimulate$ BENCH_simulate.json
BenchmarkBatchVsSingle$ BENCH_batch.json
BenchmarkAdaptivePrecision$ BENCH_precision.json
BenchmarkCluster$ BENCH_cluster.json'

MODE=gate
if [ "${1:-}" = record ]; then
    MODE=record
    shift
fi
ONLY=" $* "

TOL="${BENCH_TOLERANCE_PCT:-15}"
COUNT="${BENCH_COUNT:-6}"
BTIME="${BENCH_TIME:-0.5s}"
ATTEMPTS="${BENCH_ATTEMPTS:-3}"
TMP="$(mktemp)"
ALL="$(mktemp)"
trap 'rm -f "$TMP" "$ALL"' EXIT

record() {
    pattern="$1"
    file="$2"
    go test -run '^$' -bench "$pattern" -benchmem -count 3 . < /dev/null > "$TMP"
    cat "$TMP"
    go run ./cmd/bench2json < "$TMP" > "$file"
    echo "wrote $file"
}

fail=0
gate() {
    pattern="$1"
    baseline="$2"
    : > "$ALL"
    attempt=1
    while :; do
        echo "== $pattern vs $baseline (tolerance ${TOL}%, best of $COUNT x $BTIME, attempt $attempt/$ATTEMPTS) =="
        go test -run '^$' -bench "$pattern" -benchmem -count "$COUNT" -benchtime "$BTIME" . < /dev/null > "$TMP"
        cat "$TMP" >> "$ALL"
        if go run ./cmd/bench2json -check "$baseline" -tolerance "$TOL" < "$ALL"; then
            return 0
        fi
        if [ "$attempt" -ge "$ATTEMPTS" ]; then
            fail=1
            return 0
        fi
        attempt=$((attempt + 1))
        echo "-- retrying with accumulated samples (transient load?) --"
    done
}

ran=0
while read -r pattern file; do
    case "$ONLY" in
    "  " | *" $file "*) ;;
    *) continue ;;
    esac
    "$MODE" "$pattern" "$file"
    ran=$((ran + 1))
done <<EOF
$TABLE
EOF

if [ "$ran" -eq 0 ]; then
    echo "bench_delta: no table row matches:$ONLY" >&2
    exit 2
fi
[ "$MODE" = record ] && exit 0
if [ "$fail" -ne 0 ]; then
    echo "bench_delta: regression beyond ${TOL}% after $ATTEMPTS attempts — see FAIL lines above" >&2
    exit 1
fi
echo "bench_delta: all benchmarks within ${TOL}% of baseline"
