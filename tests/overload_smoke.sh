#!/bin/sh
# Overload smoke: one sweep_serverd with a deliberately small admission
# budget (--max-queue-cost), hammered by four concurrent resilient
# clients — three streaming heavy grids, one streaming cheap single-cell
# grids — and one burst client that pipelines two heavy grids and a
# cheap one in a single write. The heavy streams collide on the queue
# budget and get shed with retriable "overloaded" answers; the resilient
# clients honor retry_after_ms and re-send until everything completes.
# Gates:
#   - every client exits 0 (no request is lost to shedding — at-least-once
#     delivery rides through admission control);
#   - each resilient client's completed responses are byte-identical
#     (per-line sort) to an unloaded single-daemon run of the same file —
#     a shed detour may delay bytes, never change them — and every burst
#     answer that is not a shed is a line of its unloaded run;
#   - the burst is shed at least once, by construction: the daemon
#     admits every line of one read before it dispatches any, so the
#     second heavy grid always finds the first still waiting (384 + 384
#     units > the 400 budget), however the barrage is timed;
#   - the daemon's shed_overload equals the overloaded answers the
#     clients received (the resilient clients' stderr counts plus the
#     burst's "overloaded" lines), and nothing expired;
#   - the drained daemon still exits 0.
# Caching and seed reuse are off (--cache-capacity=0) so every compute is
# cold and the done-line flags cannot depend on arrival order.
#
# Usage: overload_smoke.sh BUILD_DIR
set -u

BUILD=$1
SMOKE_NAME=overload_smoke
. "$(dirname "$0")/smoke_lib.sh"
smoke_init
DAEMON_PID=""

# ---------------------------------------------------- request files --
# Three heavy clients: 3 requests each of 3 platforms x 16 nodes x
# 4 rates x 2 families = 384 cells (~384 cost units cold). All grids
# distinct across clients and rounds so no in-flight joins can differ
# between the serial reference and the concurrent barrage.
for c in 1 2 3; do
  r=1
  while [ $r -le 3 ]; do
    base=$((c * 1000 + r * 100))
    nodes=""
    i=0
    while [ $i -lt 16 ]; do
      [ -n "$nodes" ] && nodes="$nodes, "
      nodes="$nodes$((base + i * 16))"
      i=$((i + 1))
    done
    printf '{"id": "h%d_%d", "platforms": ["hera", "atlas", "coastal"], "node_counts": [%s], "rate_factors": [{"fail_stop": 0.5}, {"fail_stop": 1.0}, {"fail_stop": 2.0}, {"fail_stop": 4.0}], "kinds": ["PD", "PDMV"]}\n' \
        "$c" "$r" "$nodes" >>"$TMP/heavy$c.jsonl"
    r=$((r + 1))
  done
done
# One cheap client: 12 single-cell requests (1 cost unit each — they must
# keep being admitted alongside a queued heavy).
r=1
while [ $r -le 12 ]; do
  printf '{"id": "c_%d", "platforms": ["hera"], "node_counts": [%d], "kinds": ["PD"]}\n' \
      "$r" $((64 + r)) >>"$TMP/cheap.jsonl"
  r=$((r + 1))
done

# The burst: two heavy grids (distinct from every other client's) and a
# cheap one, sent by `sweep_client --pipeline` in one write.
for r in 1 2; do
  base=$((4000 + r * 100))
  nodes=""
  i=0
  while [ $i -lt 16 ]; do
    [ -n "$nodes" ] && nodes="$nodes, "
    nodes="$nodes$((base + i * 16))"
    i=$((i + 1))
  done
  printf '{"id": "b_%d", "platforms": ["hera", "atlas", "coastal"], "node_counts": [%s], "rate_factors": [{"fail_stop": 0.5}, {"fail_stop": 1.0}, {"fail_stop": 2.0}, {"fail_stop": 4.0}], "kinds": ["PD", "PDMV"]}\n' \
      "$r" "$nodes" >>"$TMP/burst.jsonl"
done
printf '{"id": "b_3", "platforms": ["hera"], "node_counts": [96], "kinds": ["PD"]}\n' \
    >>"$TMP/burst.jsonl"

# ------------------------------------------------- unloaded references --
"$BUILD/sweep_serverd" --port=0 --port-file="$TMP/ref.port" \
    --cache-capacity=0 2>>"$TMP/ref.log" &
DAEMON_PID=$!
track_pid "$DAEMON_PID"
wait_for_port "$TMP/ref.port" "$DAEMON_PID" "reference daemon"
REF_PORT=$(cat "$TMP/ref.port")
for f in heavy1 heavy2 heavy3 cheap burst; do
  "$BUILD/sweep_client" --port="$REF_PORT" --input="$TMP/$f.jsonl" \
      >"$TMP/ref_$f.jsonl" || fail "reference run for $f failed"
  [ -s "$TMP/ref_$f.jsonl" ] || fail "reference run for $f produced no output"
  sort "$TMP/ref_$f.jsonl" >"$TMP/ref_$f.sorted"
done
expect_drain "$DAEMON_PID" "reference daemon"

# ------------------------------------- overloaded daemon + barrage --
# Budget 400: one queued heavy (384 units) fits, a second heavy on top
# does not (768 > 400) and is shed; a cheap request alongside a queued
# heavy (385) still fits. Depth 8 backstops the cheap stream. One request
# worker: the three heavy clients contend for it on any core count, so
# a heavy queues behind the executing one and the next is shed.
"$BUILD/sweep_serverd" --port=0 --port-file="$TMP/port" \
    --cache-capacity=0 --max-queue-cost=400 --max-queue-depth=8 \
    --request-workers=1 2>>"$TMP/daemon.log" &
DAEMON_PID=$!
track_pid "$DAEMON_PID"
wait_for_port "$TMP/port" "$DAEMON_PID" "daemon"
PORT=$(cat "$TMP/port")

for f in heavy1 heavy2 heavy3 cheap; do
  "$BUILD/sweep_client" --port="$PORT" --input="$TMP/$f.jsonl" \
      --retries=40 --connect-timeout-ms=2000 --receive-timeout-ms=30000 \
      >"$TMP/run_$f.jsonl" 2>>"$TMP/clients.log" &
  eval "C_${f}_PID=\$!"
  track_pid "$(eval echo "\$C_${f}_PID")"
done
"$BUILD/sweep_client" --port="$PORT" --input="$TMP/burst.jsonl" --pipeline \
    --connect-timeout-ms=2000 --receive-timeout-ms=30000 \
    >"$TMP/run_burst.jsonl" 2>>"$TMP/clients.log" &
C_burst_PID=$!
track_pid "$C_burst_PID"
for f in heavy1 heavy2 heavy3 cheap burst; do
  wait "$(eval echo "\$C_${f}_PID")" \
      || fail "client $f failed under overload (shed never healed?)"
done

# Byte identity per client: a shed-then-retry answer must match the
# unloaded run exactly.
for f in heavy1 heavy2 heavy3 cheap; do
  sort "$TMP/run_$f.jsonl" >"$TMP/run_$f.sorted"
  diff -u "$TMP/ref_$f.sorted" "$TMP/run_$f.sorted" >&2 \
      || fail "client $f responses differ from the unloaded run"
done

# Every burst answer that is not a shed is a line of the unloaded run.
grep -v '"code":"overloaded"' "$TMP/run_burst.jsonl" \
    | sort >"$TMP/run_burst.kept"
comm -23 "$TMP/run_burst.kept" "$TMP/ref_burst.sorted" >"$TMP/burst_extra.jsonl"
[ -s "$TMP/burst_extra.jsonl" ] \
    && fail "burst answers not in the unloaded run: \
$(head -c 400 "$TMP/burst_extra.jsonl")"

# The burst was shed structurally, the daemon counted exactly the sheds
# the clients received, and nothing expired (no request carried a
# deadline).
BURST_SHEDS=$(grep -c '"code":"overloaded"' "$TMP/run_burst.jsonl")
[ "$BURST_SHEDS" -ge 1 ] || fail "the pipelined burst was never shed"
RETRY_SHEDS=$(sed -n 's/.* \([0-9][0-9]*\) overloaded answers$/\1/p' \
    "$TMP/clients.log" | awk '{ s += $1 } END { print s + 0 }')
printf '{"type":"stats","id":"os"}\n' \
    | "$BUILD/sweep_client" --port="$PORT" --input=- >"$TMP/stats.jsonl" \
    || fail "stats request failed"
SHED=$(sed -n 's/.*"shed_overload":\([0-9][0-9]*\).*/\1/p' "$TMP/stats.jsonl")
[ "$SHED" = $((RETRY_SHEDS + BURST_SHEDS)) ] \
    || fail "shed_overload=$SHED, but the clients received \
$RETRY_SHEDS + $BURST_SHEDS overloaded answers"
grep -q '"shed_expired":0' "$TMP/stats.jsonl" \
    || fail "requests expired in queue unexpectedly: $(cat "$TMP/stats.jsonl")"

expect_drain "$DAEMON_PID" "daemon"
DAEMON_PID=""

echo "overload_smoke: OK (4 resilient clients healed through admission" \
    "sheds byte-identically; shed_overload $SHED = $RETRY_SHEDS retried" \
    "+ $BURST_SHEDS burst; nothing expired; clean drain)"
exit 0
