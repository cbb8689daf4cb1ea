#!/bin/sh
# Network smoke: drive sweep_serverd with sweep_client over a request
# file and diff the responses byte for byte against the stdin
# sweep_server path (after a per-line sort: cell delivery order within a
# cache miss varies with the pool schedule; cell CONTENT, the done/error
# lines and the default "line-N" ids may not). Runs the serial and the
# pipelined client against fresh daemons (a shared daemon would turn the
# second run's cold submits into cache hits and legitimately change the
# done-line flags), and pins the SIGTERM graceful drain (daemon exit 0).
# Each pass ends with a {"type":"stats"} probe: the file's repeat of its
# first grid (smoke-cache-hit) is a memory-tier hit, so the daemon must
# report transport.scheduler.served_inline >= 1 (answered on its loop,
# not on a worker).
#
# Usage: net_smoke.sh BUILD_DIR REQUEST_FILE
set -u

BUILD=$1
REQUESTS=$2
SMOKE_NAME=net_smoke
. "$(dirname "$0")/smoke_lib.sh"
smoke_init
DAEMON_PID=""

start_daemon() {
  rm -f "$TMP/port"
  "$BUILD/sweep_serverd" --port=0 --port-file="$TMP/port" \
      --cache-capacity=8 2>>"$TMP/daemon.log" &
  DAEMON_PID=$!
  track_pid "$DAEMON_PID"
  wait_for_port "$TMP/port" "$DAEMON_PID" "daemon"
  PORT=$(cat "$TMP/port")
}

stop_daemon() {
  expect_drain "$DAEMON_PID" "daemon"
  DAEMON_PID=""
}

# expect_served_inline PASS: the running daemon answered at least one
# request from memory on its loop thread.
expect_served_inline() {
  echo '{"type":"stats","id":"smoke-stats"}' >"$TMP/stats_request.jsonl"
  "$BUILD/sweep_client" --port="$PORT" --input="$TMP/stats_request.jsonl" \
      >"$TMP/$1.stats" || fail "$1 stats probe failed"
  served_inline=$(grep -o '"served_inline":[0-9]*' "$TMP/$1.stats" \
      | cut -d: -f2)
  [ "${served_inline:-0}" -ge 1 ] \
      || fail "$1 daemon answered no request from memory (served_inline ${served_inline:-absent})"
}

# Reference: the stdin path over the same file. The smoke file contains
# one deliberately invalid request, so the expected exit code is 3.
"$BUILD/sweep_server" --cache-capacity=8 --input="$REQUESTS" \
    >"$TMP/stdin.jsonl" 2>/dev/null
rc=$?
[ $rc -eq 3 ] || fail "sweep_server exit code $rc (expected 3: the file contains an invalid request)"
sort "$TMP/stdin.jsonl" >"$TMP/stdin.sorted"

# Serial client against a fresh daemon.
start_daemon
"$BUILD/sweep_client" --port="$PORT" --input="$REQUESTS" \
    >"$TMP/serial.jsonl" || fail "serial client failed"
expect_served_inline serial
stop_daemon
sort "$TMP/serial.jsonl" >"$TMP/serial.sorted"
diff -u "$TMP/stdin.sorted" "$TMP/serial.sorted" >&2 \
    || fail "serial responses differ from the stdin path"

# Pipelined client against a fresh daemon.
start_daemon
"$BUILD/sweep_client" --port="$PORT" --pipeline --input="$REQUESTS" \
    >"$TMP/pipeline.jsonl" || fail "pipelined client failed"
expect_served_inline pipelined
stop_daemon
sort "$TMP/pipeline.jsonl" >"$TMP/pipeline.sorted"
diff -u "$TMP/stdin.sorted" "$TMP/pipeline.sorted" >&2 \
    || fail "pipelined responses differ from the stdin path"

echo "net_smoke: OK (serial + pipelined byte-identical to the stdin path, cache hits answered on the loop, graceful drain clean)"
exit 0
