#!/bin/sh
# Fleet smoke: three sweep_serverd shards behind sweep_router, one of
# them reached only through the fault-injecting sweep_chaosd proxy
# (torn chunks and stalls: the router must reassemble shard streams from
# arbitrary byte boundaries). The merged responses must match a
# single-daemon run byte for byte after a per-line sort — cold compute
# streams cells in pool order, the router merges into table order; the
# multiset of bytes may not differ, no line dropped or duplicated.
#
# Phase 1 runs the barrage with all shards healthy. Phase 2 SIGKILLs a
# shard mid-barrage and relaunches it on the same port: the router must
# fail the dead shard over to the survivors without changing a byte,
# and the background prober must rejoin the relaunched shard. Shards
# run --cache-capacity=0 so every done line reports cache_hit=false no
# matter which shard (or which failover replay) computed it — flag
# determinism is what lets one cold reference serve every phase.
#
# Usage: fleet_smoke.sh BUILD_DIR REQUEST_FILE
set -u

BUILD=$1
REQUESTS=$2
SMOKE_NAME=fleet_smoke
. "$(dirname "$0")/smoke_lib.sh"
smoke_init
ROUTER_PID=""
S3_PID=""

# Asks the router for its fleet stats; the answer lands in $TMP/stats.jsonl.
router_stats() {
  printf '{"type":"stats","id":"fs"}\n' \
      | "$BUILD/sweep_client" --port="$ROUTER_PORT" --input=- \
      >"$TMP/stats.jsonl" || fail "stats request failed"
}

# ------------------------------------------------- single-daemon truth --
"$BUILD/sweep_serverd" --port=0 --port-file="$TMP/ref.port" \
    --cache-capacity=0 2>>"$TMP/ref.log" &
REF_PID=$!
track_pid "$REF_PID"
wait_for_port "$TMP/ref.port" "$REF_PID" "reference daemon"
"$BUILD/sweep_client" --port="$(cat "$TMP/ref.port")" --input="$REQUESTS" \
    >"$TMP/reference.jsonl" || fail "reference client failed"
[ -s "$TMP/reference.jsonl" ] || fail "reference run produced no output"
expect_drain "$REF_PID" "reference daemon"
sort "$TMP/reference.jsonl" >"$TMP/reference.sorted"

# -------------------------------------------------------------- topology --
for shard in 1 2 3; do
  "$BUILD/sweep_serverd" --port=0 --port-file="$TMP/s$shard.port" \
      --cache-capacity=0 2>>"$TMP/s$shard.log" &
  eval "S${shard}_PID=\$!"
  track_pid "$(eval echo "\$S${shard}_PID")"
  wait_for_port "$TMP/s$shard.port" "$(eval echo "\$S${shard}_PID")" \
      "shard $shard"
done

# Shard 2 is only reachable through the chaos proxy: torn chunks and
# stalls, no kills (a killed sub-request would legitimately retry into
# different bytes only via done flags; kill-driven failover is phase 2's
# job, via a real SIGKILL).
"$BUILD/sweep_chaosd" --port=0 --port-file="$TMP/chaos.port" \
    --upstream-port="$(cat "$TMP/s2.port")" --seed=7 \
    --max-chunk=48 --stall-every=24 --stall-max-ms=2 --kill-every=0 \
    2>>"$TMP/chaos.log" &
CHAOS_PID=$!
track_pid "$CHAOS_PID"
wait_for_port "$TMP/chaos.port" "$CHAOS_PID" "chaosd"

S3_PORT=$(cat "$TMP/s3.port")
SHARDS="$(cat "$TMP/s1.port"),$(cat "$TMP/chaos.port"),$S3_PORT"
# Probe slowly (2s): phase 2's failover must come from a request that
# found the shard dead, not from the prober winning the race and
# removing it first. Rejoin still comes from the prober.
"$BUILD/sweep_router" --port=0 --port-file="$TMP/router.port" \
    --shards="$SHARDS" --probe-interval-ms=2000 \
    --connect-timeout-ms=2000 --receive-timeout-ms=10000 \
    2>>"$TMP/router.log" &
ROUTER_PID=$!
track_pid "$ROUTER_PID"
wait_for_port "$TMP/router.port" "$ROUTER_PID" "router"
ROUTER_PORT=$(cat "$TMP/router.port")

# ------------------------------------------- phase 1: healthy barrage --
"$BUILD/sweep_client" --port="$ROUTER_PORT" --input="$REQUESTS" \
    >"$TMP/phase1.jsonl" || fail "phase 1 client failed"
sort "$TMP/phase1.jsonl" >"$TMP/phase1.sorted"
diff -u "$TMP/reference.sorted" "$TMP/phase1.sorted" >&2 \
    || fail "phase 1 merged responses differ from the single-daemon run"

# -------------------------------- phase 2: kill a shard mid-barrage --
"$BUILD/sweep_client" --port="$ROUTER_PORT" --input="$REQUESTS" \
    >"$TMP/phase2.jsonl" &
CLIENT_PID=$!
track_pid "$CLIENT_PID"

# Kill shard 3 once the barrage is demonstrably mid-stream.
i=0
while :; do
  done_n=$(grep -c '"type":"done"' "$TMP/phase2.jsonl" 2>/dev/null || true)
  [ "${done_n:-0}" -ge 3 ] && break
  kill -0 "$CLIENT_PID" 2>/dev/null \
      || fail "phase 2 barrage finished before the kill landed; enlarge the workload"
  i=$((i + 1))
  [ $i -gt 500 ] && fail "phase 2 barrage made no progress"
  sleep 0.02
done
kill -9 "$S3_PID" 2>/dev/null || fail "shard 3 already gone before the kill"
wait "$S3_PID" 2>/dev/null
S3_PID=""

# Relaunch only after the router has RECORDED the failover — an in-flight
# sub-request failed against the dead port — so the retry cannot race
# onto the relaunched process (this poll replaces a blind sleep that made
# the race merely unlikely).
i=0
while :; do
  router_stats
  grep -q '"failovers":0' "$TMP/stats.jsonl" || break
  kill -0 "$CLIENT_PID" 2>/dev/null \
      || fail "phase 2 barrage finished without tripping the failover"
  i=$((i + 1))
  [ $i -gt 200 ] && fail "router never recorded the failover"
  sleep 0.05
done

# Relaunch it on the same port; the prober must rejoin it on its own.
"$BUILD/sweep_serverd" --port="$S3_PORT" --port-file="$TMP/s3b.port" \
    --cache-capacity=0 2>>"$TMP/s3.log" &
S3_PID=$!
track_pid "$S3_PID"
wait_for_port "$TMP/s3b.port" "$S3_PID" "relaunched shard 3"

wait "$CLIENT_PID" || fail "phase 2 client failed"
sort "$TMP/phase2.jsonl" >"$TMP/phase2.sorted"
diff -u "$TMP/reference.sorted" "$TMP/phase2.sorted" >&2 \
    || fail "phase 2 responses differ after the shard kill"

# The prober rejoined the relaunched shard: poll stats until up=3 again.
i=0
while :; do
  router_stats
  grep -q '"up":3' "$TMP/stats.jsonl" && break
  i=$((i + 1))
  [ $i -gt 100 ] && { cat "$TMP/stats.jsonl" >&2; \
      fail "relaunched shard never rejoined (up never returned to 3)"; }
  sleep 0.1
done
grep -q '"failovers":0' "$TMP/stats.jsonl" \
    && fail "no failover was recorded despite the SIGKILL"

# A post-rejoin barrage over the healed fleet still matches.
"$BUILD/sweep_client" --port="$ROUTER_PORT" --input="$REQUESTS" \
    >"$TMP/phase3.jsonl" || fail "post-rejoin client failed"
sort "$TMP/phase3.jsonl" >"$TMP/phase3.sorted"
diff -u "$TMP/reference.sorted" "$TMP/phase3.sorted" >&2 \
    || fail "post-rejoin responses differ"

# ------------------------------------------------------ graceful drains --
expect_drain "$ROUTER_PID" "router"
ROUTER_PID=""
for pid in $S1_PID $S2_PID $CHAOS_PID $S3_PID; do
  expect_drain "$pid" "fleet process $pid"
done
S3_PID=""

echo "fleet_smoke: OK (healthy, mid-barrage kill, and post-rejoin barrages all byte-identical; clean drains)"
exit 0
