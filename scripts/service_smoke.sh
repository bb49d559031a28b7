#!/bin/sh
# service_smoke.sh — end-to-end smoke test of the stochschedd policy server.
#
# Builds the daemon, starts it, curls every v1 endpoint, and checks:
#   * each endpoint answers HTTP 200 with the checked-in golden body
#     (goldens live in internal/service/testdata/*_golden.json);
#   * a repeated request is served from the cache (X-Cache: hit);
#   * /v1/simulate is byte-identical when the server is restarted at a
#     different -parallel level — the serving layer preserves the engine's
#     determinism guarantee end to end;
#   * a sweep round-trips: submit POST /v1/sweep, poll GET /v1/sweep/{id}
#     to "done", stream GET /v1/sweep/{id}/results, pin the first and last
#     NDJSON rows to goldens, and require the whole stream byte-identical
#     when the daemon is restarted at a different -parallel level.
#
# Goldens are floating-point exact and generated on amd64; regenerate with
#   REGEN=1 scripts/service_smoke.sh
set -eu

cd "$(dirname "$0")/.."
TESTDATA=internal/service/testdata
ADDR=127.0.0.1:18423
BASE="http://$ADDR"
TMP="$(mktemp -d)"
DAEMON_PID=""

cleanup() {
    [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

go build -o "$TMP/stochschedd" ./cmd/stochschedd

start_daemon() { # $1 = -parallel level
    "$TMP/stochschedd" -addr "$ADDR" -parallel "$1" &
    DAEMON_PID=$!
    for _ in $(seq 1 100); do
        if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then return 0; fi
        sleep 0.05
    done
    echo "FAIL: daemon did not become healthy" >&2
    exit 1
}

stop_daemon() {
    kill "$DAEMON_PID" 2>/dev/null || true
    wait "$DAEMON_PID" 2>/dev/null || true
    DAEMON_PID=""
}

check_endpoint() { # $1 = testdata stem, $2 = endpoint path (default /v1/$1), $3 = golden stem (default $1)
    ep="${2:-$1}"
    req="$TESTDATA/${1}_req.json"
    golden="$TESTDATA/${3:-$1}_golden.json"
    out="$TMP/${1}_resp.json"
    curl -fsS -X POST --data-binary "@$req" "$BASE/v1/$ep" -o "$out"
    if [ "${REGEN:-}" = "1" ]; then
        cp "$out" "$golden"
        echo "regenerated $golden"
        return 0
    fi
    if ! cmp -s "$out" "$golden"; then
        echo "FAIL: /v1/$ep ($1) response differs from $golden:" >&2
        diff "$golden" "$out" >&2 || true
        exit 1
    fi
    echo "ok /v1/$ep ($1)"
}

start_daemon 1
check_endpoint simulate
# The registry's non-mg1 simulate kinds, through the same endpoint.
for kind in restless batch jackson polling mdp flowshop; do
    check_endpoint "simulate_$kind" simulate
done
# Target-precision mode: the same endpoint with a precision block (and
# antithetic draws) instead of a fixed budget; the golden pins the
# sequential stopping rule's spend (replications_used) end to end.
check_endpoint simulate_adaptive simulate

# The analytic indexes, every kind through the kind-dispatched /v1/index
# envelope (the bandit request answers the gittins golden), and a
# heterogeneous /v1/batch (two index calls + one simulate) with its own
# golden.
check_endpoint index index gittins
check_endpoint whittle index
check_endpoint priority index
check_endpoint jackson_index index
check_endpoint mdp_index index
check_endpoint batch

# A repeated request must be a cache hit.
hdr="$(curl -fsS -D - -o /dev/null -X POST --data-binary "@$TESTDATA/index_req.json" "$BASE/v1/index")"
echo "$hdr" | grep -qi '^x-cache: hit' || {
    echo "FAIL: repeated /v1/index was not a cache hit:" >&2
    echo "$hdr" >&2
    exit 1
}
echo "ok cache hit"

# Stats must report the traffic, including the cache observability gauges.
stats="$(curl -fsS "$BASE/v1/stats")"
for field in '"requests"' '"shard_entries"' '"evictions"' '"sweeps"'; do
    echo "$stats" | grep -q "$field" || {
        echo "FAIL: /v1/stats missing $field" >&2
        exit 1
    }
done
echo "ok /v1/stats"

# Readiness: an idle daemon answers /readyz 200.
curl -fsS "$BASE/readyz" | grep -q '^ok$' || {
    echo "FAIL: /readyz did not answer ok" >&2
    exit 1
}
echo "ok /readyz"

# Every response carries an X-Request-Id, and the id resolves to a trace
# whose span tree covers the compute path.
rid="$(curl -fsS -D - -o /dev/null -X POST --data-binary "@$TESTDATA/simulate_req.json" "$BASE/v1/simulate" \
    | tr -d '\r' | sed -n 's/^[Xx]-[Rr]equest-[Ii]d: //p')"
[ -n "$rid" ] || {
    echo "FAIL: /v1/simulate response lacked X-Request-Id" >&2
    exit 1
}
trace="$(curl -fsS "$BASE/v1/trace/$rid")"
for span in '"request"' '"parse"' '"cache"' '"write"'; do
    echo "$trace" | grep -q "\"name\":$span" || {
        echo "FAIL: trace $rid missing $span span: $trace" >&2
        exit 1
    }
done
echo "ok X-Request-Id -> /v1/trace round trip"

# /metrics: Prometheus 0.0.4 exposition. Every non-comment line must be a
# well-formed sample, and the families the dashboards depend on must exist.
curl -fsS "$BASE/metrics" -o "$TMP/metrics.txt"
bad="$(grep -v '^#' "$TMP/metrics.txt" | grep -cvE '^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.]+([eE][-+]?[0-9]+)?$' || true)"
[ "$bad" -eq 0 ] || {
    echo "FAIL: /metrics has $bad malformed exposition lines:" >&2
    grep -v '^#' "$TMP/metrics.txt" | grep -vE '^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.]+([eE][-+]?[0-9]+)?$' >&2
    exit 1
}
for series in \
    'stochsched_requests_total{endpoint="index"}' \
    'stochsched_cache_hits_total{endpoint="index"}' \
    'stochsched_request_duration_seconds_bucket{endpoint="index",le="+Inf"}' \
    'stochsched_request_duration_seconds_count{endpoint="index"}' \
    'stochsched_cache_entries' \
    'stochsched_engine_busy_seconds_total' \
    'stochsched_inflight_requests'; do
    grep -qF "$series" "$TMP/metrics.txt" || {
        echo "FAIL: /metrics missing series $series" >&2
        exit 1
    }
done
echo "ok /metrics exposition"

# Sweep round trip: submit, poll to done, stream NDJSON results.
run_sweep() { # $1 = output file for the NDJSON stream, $2 = request file
    accept="$(curl -fsS -X POST --data-binary "@${2:-$TESTDATA/sweep_req.json}" "$BASE/v1/sweep")"
    id="$(echo "$accept" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
    [ -n "$id" ] || {
        echo "FAIL: sweep submit returned no job id: $accept" >&2
        exit 1
    }
    for _ in $(seq 1 200); do
        state="$(curl -fsS "$BASE/v1/sweep/$id" | sed -n 's/.*"state":"\([^"]*\)".*/\1/p')"
        case "$state" in
            done) break ;;
            failed|cancelled)
                echo "FAIL: sweep job ended $state" >&2
                exit 1 ;;
        esac
        sleep 0.05
    done
    [ "$state" = done ] || {
        echo "FAIL: sweep job stuck in state $state" >&2
        exit 1
    }
    curl -fsS "$BASE/v1/sweep/$id/results" -o "$1"
}

run_sweep "$TMP/sweep_p1.ndjson"
head -n 1 "$TMP/sweep_p1.ndjson" > "$TMP/sweep_first.json"
tail -n 1 "$TMP/sweep_p1.ndjson" > "$TMP/sweep_last.json"
if [ "${REGEN:-}" = "1" ]; then
    cp "$TMP/sweep_first.json" "$TESTDATA/sweep_first_golden.json"
    cp "$TMP/sweep_last.json" "$TESTDATA/sweep_last_golden.json"
    echo "regenerated sweep first/last goldens"
else
    for part in first last; do
        if ! cmp -s "$TMP/sweep_$part.json" "$TESTDATA/sweep_${part}_golden.json"; then
            echo "FAIL: sweep $part row differs from testdata/sweep_${part}_golden.json:" >&2
            diff "$TESTDATA/sweep_${part}_golden.json" "$TMP/sweep_$part.json" >&2 || true
            exit 1
        fi
    done
fi
[ "$(wc -l < "$TMP/sweep_p1.ndjson")" -eq 3 ] || {
    echo "FAIL: sweep stream is not 3 rows" >&2
    exit 1
}
echo "ok /v1/sweep submit/poll/stream"

# A non-mg1 sweep: restless fleet, whittle vs myopic vs random, policies
# substituted at restless.policy via the scenario registry.
run_sweep "$TMP/sweep_restless_p1.ndjson" "$TESTDATA/sweep_restless_req.json"
head -n 1 "$TMP/sweep_restless_p1.ndjson" > "$TMP/sweep_restless_first.json"
tail -n 1 "$TMP/sweep_restless_p1.ndjson" > "$TMP/sweep_restless_last.json"
if [ "${REGEN:-}" = "1" ]; then
    cp "$TMP/sweep_restless_first.json" "$TESTDATA/sweep_restless_first_golden.json"
    cp "$TMP/sweep_restless_last.json" "$TESTDATA/sweep_restless_last_golden.json"
    echo "regenerated restless sweep first/last goldens"
else
    for part in first last; do
        if ! cmp -s "$TMP/sweep_restless_$part.json" "$TESTDATA/sweep_restless_${part}_golden.json"; then
            echo "FAIL: restless sweep $part row differs from testdata/sweep_restless_${part}_golden.json:" >&2
            diff "$TESTDATA/sweep_restless_${part}_golden.json" "$TMP/sweep_restless_$part.json" >&2 || true
            exit 1
        fi
    done
fi
[ "$(wc -l < "$TMP/sweep_restless_p1.ndjson")" -eq 3 ] || {
    echo "FAIL: restless sweep stream is not 3 rows" >&2
    exit 1
}
echo "ok /v1/sweep restless kind"

# A network sweep: jackson tandem over the external arrival rate, fcfs vs
# cmu vs lbfs, policies substituted at jackson.policy via the registry.
run_sweep "$TMP/sweep_jackson_p1.ndjson" "$TESTDATA/sweep_jackson_req.json"
head -n 1 "$TMP/sweep_jackson_p1.ndjson" > "$TMP/sweep_jackson_first.json"
tail -n 1 "$TMP/sweep_jackson_p1.ndjson" > "$TMP/sweep_jackson_last.json"
if [ "${REGEN:-}" = "1" ]; then
    cp "$TMP/sweep_jackson_first.json" "$TESTDATA/sweep_jackson_first_golden.json"
    cp "$TMP/sweep_jackson_last.json" "$TESTDATA/sweep_jackson_last_golden.json"
    echo "regenerated jackson sweep first/last goldens"
else
    for part in first last; do
        if ! cmp -s "$TMP/sweep_jackson_$part.json" "$TESTDATA/sweep_jackson_${part}_golden.json"; then
            echo "FAIL: jackson sweep $part row differs from testdata/sweep_jackson_${part}_golden.json:" >&2
            diff "$TESTDATA/sweep_jackson_${part}_golden.json" "$TMP/sweep_jackson_$part.json" >&2 || true
            exit 1
        fi
    done
fi
[ "$(wc -l < "$TMP/sweep_jackson_p1.ndjson")" -eq 3 ] || {
    echo "FAIL: jackson sweep stream is not 3 rows" >&2
    exit 1
}
echo "ok /v1/sweep jackson kind"

# A decorrelated sweep: crn false re-seeds each policy's cells
# independently, flips the rows' crn member, and changes the sweep hash —
# but stays fully deterministic, so it pins goldens like the others.
run_sweep "$TMP/sweep_crn_p1.ndjson" "$TESTDATA/sweep_crn_req.json"
head -n 1 "$TMP/sweep_crn_p1.ndjson" > "$TMP/sweep_crn_first.json"
tail -n 1 "$TMP/sweep_crn_p1.ndjson" > "$TMP/sweep_crn_last.json"
if [ "${REGEN:-}" = "1" ]; then
    cp "$TMP/sweep_crn_first.json" "$TESTDATA/sweep_crn_first_golden.json"
    cp "$TMP/sweep_crn_last.json" "$TESTDATA/sweep_crn_last_golden.json"
    echo "regenerated crn sweep first/last goldens"
else
    for part in first last; do
        if ! cmp -s "$TMP/sweep_crn_$part.json" "$TESTDATA/sweep_crn_${part}_golden.json"; then
            echo "FAIL: crn sweep $part row differs from testdata/sweep_crn_${part}_golden.json:" >&2
            diff "$TESTDATA/sweep_crn_${part}_golden.json" "$TMP/sweep_crn_$part.json" >&2 || true
            exit 1
        fi
    done
fi
[ "$(wc -l < "$TMP/sweep_crn_p1.ndjson")" -eq 3 ] || {
    echo "FAIL: crn sweep stream is not 3 rows" >&2
    exit 1
}
echo "ok /v1/sweep crn false"
stop_daemon

# Determinism across parallelism: a fresh daemon at -parallel 8 must return
# the exact same simulate bodies (its cache is empty, so this recomputes).
start_daemon 8
for stem in simulate simulate_restless simulate_batch simulate_jackson simulate_polling simulate_mdp simulate_flowshop simulate_adaptive; do
    curl -fsS -X POST --data-binary "@$TESTDATA/${stem}_req.json" "$BASE/v1/simulate" -o "$TMP/${stem}_p8.json"
    if ! cmp -s "$TMP/${stem}_p8.json" "$TESTDATA/${stem}_golden.json"; then
        echo "FAIL: /v1/simulate ($stem) differs between -parallel 1 and -parallel 8:" >&2
        diff "$TESTDATA/${stem}_golden.json" "$TMP/${stem}_p8.json" >&2 || true
        exit 1
    fi
done
echo "ok simulate determinism across -parallel 1/8 (all registered kinds)"

# The batch response (whose third item is a simulation) must also be
# byte-identical on the -parallel 8 daemon: batched execution preserves
# the engine's determinism contract item by item.
curl -fsS -X POST --data-binary "@$TESTDATA/batch_req.json" "$BASE/v1/batch" -o "$TMP/batch_p8.json"
if ! cmp -s "$TMP/batch_p8.json" "$TESTDATA/batch_golden.json"; then
    echo "FAIL: /v1/batch differs between -parallel 1 and -parallel 8:" >&2
    diff "$TESTDATA/batch_golden.json" "$TMP/batch_p8.json" >&2 || true
    exit 1
fi
echo "ok batch determinism across -parallel 1/8"

# The whole sweep streams must also be byte-identical on the -parallel 8
# daemon (fresh cache, so every cell recomputes).
run_sweep "$TMP/sweep_p8.ndjson"
if ! cmp -s "$TMP/sweep_p8.ndjson" "$TMP/sweep_p1.ndjson"; then
    echo "FAIL: sweep NDJSON differs between -parallel 1 and -parallel 8:" >&2
    diff "$TMP/sweep_p1.ndjson" "$TMP/sweep_p8.ndjson" >&2 || true
    exit 1
fi
run_sweep "$TMP/sweep_restless_p8.ndjson" "$TESTDATA/sweep_restless_req.json"
if ! cmp -s "$TMP/sweep_restless_p8.ndjson" "$TMP/sweep_restless_p1.ndjson"; then
    echo "FAIL: restless sweep NDJSON differs between -parallel 1 and -parallel 8:" >&2
    diff "$TMP/sweep_restless_p1.ndjson" "$TMP/sweep_restless_p8.ndjson" >&2 || true
    exit 1
fi
run_sweep "$TMP/sweep_jackson_p8.ndjson" "$TESTDATA/sweep_jackson_req.json"
if ! cmp -s "$TMP/sweep_jackson_p8.ndjson" "$TMP/sweep_jackson_p1.ndjson"; then
    echo "FAIL: jackson sweep NDJSON differs between -parallel 1 and -parallel 8:" >&2
    diff "$TMP/sweep_jackson_p1.ndjson" "$TMP/sweep_jackson_p8.ndjson" >&2 || true
    exit 1
fi
run_sweep "$TMP/sweep_crn_p8.ndjson" "$TESTDATA/sweep_crn_req.json"
if ! cmp -s "$TMP/sweep_crn_p8.ndjson" "$TMP/sweep_crn_p1.ndjson"; then
    echo "FAIL: crn sweep NDJSON differs between -parallel 1 and -parallel 8:" >&2
    diff "$TMP/sweep_crn_p1.ndjson" "$TMP/sweep_crn_p8.ndjson" >&2 || true
    exit 1
fi
echo "ok sweep determinism across -parallel 1/8 (mg1, restless, jackson, crn)"
stop_daemon

echo "service smoke: all checks passed"
