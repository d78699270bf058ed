#!/bin/sh
# serve_smoke.sh — end-to-end smoke of the anond daemon over a real
# socket: boot on an ephemeral port, hit every /v1 endpoint (success and
# failure statuses), check NDJSON streaming, then SIGTERM with a request
# in flight and assert the graceful drain finishes it.
#
# Run via `make serve-smoke`. Requires curl; everything else is POSIX sh.
set -eu

GO=${GO:-go}
WORK=$(mktemp -d)
LOG="$WORK/anond.log"
trap 'kill "$PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT INT TERM

fail() {
    echo "serve-smoke: FAIL: $*" >&2
    echo "--- daemon log ---" >&2
    cat "$LOG" >&2 || true
    exit 1
}

# jsonfield FILE KEY — crude extraction of a top-level scalar field: the
# value of the first "KEY": in the file. Responses are one line, and a
# top-level field comes before any nested object repeating its key (a
# timeline answer's epochs each carry an "h"), so the first match is
# the top-level one. The first substitution marks only the leftmost
# match; the second reads the value after the mark.
jsonfield() {
    sed -n "s/\"$2\"[[:space:]]*:[[:space:]]*/@jsonfield@/; s/.*@jsonfield@\"\{0,1\}\([^,\"}]*\).*/\1/p" "$1" | head -1
}

$GO build -o "$WORK/anond" ./cmd/anond

"$WORK/anond" -addr 127.0.0.1:0 -drain-timeout 60s >"$LOG" 2>&1 &
PID=$!

# The daemon logs "listening on 127.0.0.1:PORT" once the socket is bound.
ADDR=
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's/.*listening on \([0-9.:]*\)$/\1/p' "$LOG" | head -1)
    [ -n "$ADDR" ] && break
    kill -0 "$PID" 2>/dev/null || fail "daemon exited during startup"
    sleep 0.1
done
[ -n "$ADDR" ] || fail "daemon never reported its address"
BASE="http://$ADDR"
echo "serve-smoke: daemon at $BASE"

status=$(curl -s -o "$WORK/health" -w '%{http_code}' "$BASE/v1/health")
[ "$status" = 200 ] || fail "health: status $status"
[ "$(jsonfield "$WORK/health" status)" = ok ] || fail "health: body $(cat "$WORK/health")"

# Exact scenario: a well-formed run answers 200 with an anonymity degree,
# as one line of compact JSON whose length the headers announce.
status=$(curl -s -D "$WORK/scenario_headers" -o "$WORK/scenario" -w '%{http_code}' -d \
    '{"n":100,"compromised":1,"strategy":"uniform:1,5"}' "$BASE/v1/scenario")
[ "$status" = 200 ] || fail "scenario: status $status"
h=$(jsonfield "$WORK/scenario" h)
[ -n "$h" ] || fail "scenario: no h in $(cat "$WORK/scenario")"
grep -qi '^content-length: *[0-9]' "$WORK/scenario_headers" ||
    fail "scenario: no Content-Length in $(cat "$WORK/scenario_headers")"
[ "$(wc -l <"$WORK/scenario")" -eq 1 ] || fail "scenario: body is not one line: $(cat "$WORK/scenario")"

# A timeline answer repeats "h" in every epoch after the top-level one;
# jsonfield must read the top-level value.
status=$(curl -s -o "$WORK/timeline" -w '%{http_code}' -d \
    '{"n":100,"compromised":1,"strategy":"uniform:1,5","timeline":"msgs=10;msgs=10,comp=5"}' "$BASE/v1/scenario")
[ "$status" = 200 ] || fail "timeline: status $status"
case "$(cat "$WORK/timeline")" in
    "{\"backend\":\"exact\",\"h\":$(jsonfield "$WORK/timeline" h),"*) ;;
    *) fail "timeline: jsonfield read h=$(jsonfield "$WORK/timeline" h) from $(cat "$WORK/timeline")" ;;
esac

# A config that can never succeed answers 400 with the bad_config class.
status=$(curl -s -o "$WORK/bad" -w '%{http_code}' -d \
    '{"n":5,"compromised":9}' "$BASE/v1/scenario")
[ "$status" = 400 ] || fail "bad config: status $status"
[ "$(jsonfield "$WORK/bad" class)" = bad_config ] || fail "bad config: class $(cat "$WORK/bad")"

# A backend refusing a well-formed scenario answers 422.
status=$(curl -s -o "$WORK/cap" -w '%{http_code}' -d \
    '{"n":30,"compromised":2,"backend":"exact","strategy":"crowds:0.7"}' "$BASE/v1/scenario")
[ "$status" = 422 ] || fail "capability: status $status"
[ "$(jsonfield "$WORK/cap" class)" = capability ] || fail "capability: class $(cat "$WORK/cap")"

# Degradation: the H_1..H_k curve rides in h_rounds.
status=$(curl -s -o "$WORK/degr" -w '%{http_code}' -d \
    '{"n":30,"compromised":3,"strategy":"uniform:1,6","rounds":5,"messages":400,"seed":1}' \
    "$BASE/v1/degradation")
[ "$status" = 200 ] || fail "degradation: status $status"
grep -q '"h_rounds"' "$WORK/degr" || fail "degradation: no h_rounds in $(cat "$WORK/degr")"

# Optimizer: the designed distribution comes back as support atoms, with
# the solver's certified gap.
status=$(curl -s -o "$WORK/opt" -w '%{http_code}' -d \
    '{"n":40,"c":2,"mean":6}' "$BASE/v1/optimize")
[ "$status" = 200 ] || fail "optimize: status $status"
grep -q '"dist"' "$WORK/opt" || fail "optimize: no dist in $(cat "$WORK/opt")"
grep -q '"gap_bits"' "$WORK/opt" || fail "optimize: no gap_bits in $(cat "$WORK/opt")"

# Streaming: progress lines then exactly one terminal result line.
curl -s -d \
    '{"n":60,"compromised":4,"backend":"mc","strategy":"uniform:1,5","messages":100000,"seed":9}' \
    "$BASE/v1/scenario?stream=1" >"$WORK/stream"
grep -q '"progress"' "$WORK/stream" || fail "stream: no progress lines"
[ "$(grep -c '"result"' "$WORK/stream")" = 1 ] || fail "stream: terminal line count != 1"

# Metrics: the counters reflect the traffic above.
status=$(curl -s -o "$WORK/metrics" -w '%{http_code}' "$BASE/v1/metrics")
[ "$status" = 200 ] || fail "metrics: status $status"
grep -q '"engine_cache"' "$WORK/metrics" || fail "metrics: no engine_cache in $(cat "$WORK/metrics")"

# Graceful drain: SIGTERM with a slow request in flight. The in-flight
# run must complete (200 with its curve) and the daemon must exit 0.
curl -s -o "$WORK/inflight" -w '%{http_code}' -d \
    '{"n":97,"compromised":6,"strategy":"uniform:1,9","rounds":40,"messages":8000,"seed":11}' \
    "$BASE/v1/degradation" >"$WORK/inflight_status" &
CURL=$!
for _ in $(seq 1 100); do
    if curl -s "$BASE/v1/metrics" | grep -q '"in_flight": *1'; then break; fi
    sleep 0.05
done
kill -TERM "$PID"
wait "$CURL" || fail "in-flight request aborted by drain"
[ "$(cat "$WORK/inflight_status")" = 200 ] || fail "in-flight request: status $(cat "$WORK/inflight_status")"
grep -q '"h_rounds"' "$WORK/inflight" || fail "in-flight request: incomplete body"
if wait "$PID"; then :; else fail "daemon exited non-zero after SIGTERM"; fi
grep -q 'final metrics' "$LOG" || fail "no final metrics flush in log"

echo "serve-smoke: OK"
