#!/bin/sh
# Simulate-mode smoke: the same fixed-seed "mode": "simulate" request
# file answered three ways — the stdin sweep_server, a sweep_serverd
# daemon driven by sweep_client over TCP, and a 3-shard sweep_serverd
# fleet behind sweep_router — must produce byte-identical streams with
# NO per-line sort: simulate cells are computed and streamed
# sequentially in canonical table order at any pool size (parallelism
# lives inside a cell's Monte Carlo campaign), and the router merges
# back into the same order, so even cold computes diff exactly.
#
# Also pins the server-side --sim-max-runs admission cap (an over-cap
# request answers one located error line before any compute) and the
# SIGTERM graceful drains.
#
# Usage: sim_smoke.sh BUILD_DIR REQUEST_FILE
set -u

BUILD=$1
REQUESTS=$2
SMOKE_NAME=sim_smoke
. "$(dirname "$0")/smoke_lib.sh"
smoke_init

# ------------------------------------------------- stdin reference run --
"$BUILD/sweep_server" --input="$REQUESTS" >"$TMP/stdin.jsonl" \
    2>>"$TMP/stdin.log" || fail "stdin sweep_server failed"
[ -s "$TMP/stdin.jsonl" ] || fail "stdin run produced no output"
grep -q '"mode":"simulate"' "$TMP/stdin.jsonl" \
    || fail "stdin run answered no simulate done line"

# --------------------------------------------------- single daemon run --
"$BUILD/sweep_serverd" --port=0 --port-file="$TMP/daemon.port" \
    2>>"$TMP/daemon.log" &
DAEMON_PID=$!
track_pid "$DAEMON_PID"
wait_for_port "$TMP/daemon.port" "$DAEMON_PID" "daemon"
"$BUILD/sweep_client" --port="$(cat "$TMP/daemon.port")" \
    --input="$REQUESTS" >"$TMP/daemon.jsonl" || fail "daemon client failed"
diff -u "$TMP/stdin.jsonl" "$TMP/daemon.jsonl" >&2 \
    || fail "daemon responses differ from the stdin run (exact bytes expected)"

# Deadlines reach inside a Monte Carlo run: one run of one pattern in an
# error storm retries a window about e^(lambda R) times, so these never
# finish. Operations at 10000x the fail-stop rate, Weibull shape 0.01,
# the default Poisson cell at 10000x the fail-stop rate, and a
# silent-only platform with shape 0.01. Each must answer its located
# deadline error on both front ends; `timeout 60` guards against a hang
# and is not a timing gate. The closing stats line must count all four
# expiries: in deadline_timeouts on stdin, and on the daemon in
# deadline_timeouts plus the scheduler's shed_expired (a request whose
# deadline passes while it is still queued is shed there, not run).
cat >"$TMP/deadline.jsonl" <<'EOF'
{"id": "storm-ops", "platforms": ["hera"], "node_counts": [4096], "kinds": ["PD"], "mode": "simulate", "sim": {"seed": 1, "min_runs": 1, "max_runs": 1, "patterns_per_run": 1, "faulty_ops": [10000]}, "deadline_ms": 200}
{"id": "storm-shape", "platforms": ["hera"], "node_counts": [4096], "kinds": ["PD"], "mode": "simulate", "sim": {"seed": 1, "min_runs": 1, "max_runs": 1, "patterns_per_run": 1, "weibull_shape": [0.01]}, "deadline_ms": 200}
{"id": "storm-rate", "platforms": ["hera"], "node_counts": [4096], "kinds": ["PD"], "rate_factors": [{"fail_stop": 10000, "silent": 1}], "mode": "simulate", "sim": {"seed": 1, "min_runs": 1, "max_runs": 1, "patterns_per_run": 1}, "deadline_ms": 200}
{"id": "storm-silent", "platforms": [{"name": "silent-only", "nodes": 1, "fail_stop": 0, "silent": 1e-6, "disk_checkpoint": 300, "memory_checkpoint": 15}], "node_counts": [1], "kinds": ["PDMV"], "mode": "simulate", "sim": {"seed": 1, "min_runs": 1, "max_runs": 1, "patterns_per_run": 1, "weibull_shape": [0.01]}, "deadline_ms": 200}
{"type": "stats", "id": "storm-stats"}
EOF
timeout 60 "$BUILD/sweep_server" --input="$TMP/deadline.jsonl" \
    >"$TMP/deadline_stdin.jsonl" 2>>"$TMP/stdin.log"
[ $? -eq 3 ] || fail "stdin server did not answer the storm requests with error lines"
timeout 60 "$BUILD/sweep_client" --port="$(cat "$TMP/daemon.port")" \
    --input="$TMP/deadline.jsonl" >"$TMP/deadline_daemon.jsonl" \
    || fail "daemon did not answer the storm requests"
for id in storm-ops storm-shape storm-rate storm-silent; do
  for front in stdin daemon; do
    grep "\"request\":\"$id\"" "$TMP/deadline_$front.jsonl" \
        | grep -q '"type":"error".*"field":"deadline_ms"' \
        || fail "$front answered no deadline_ms error line for $id"
  done
done
# counter NAME FILE: the value of the first "NAME":<integer> member in
# FILE's stats line (0 when absent).
counter() {
  value=$(grep '"type":"stats"' "$2" | grep -o "\"$1\":[0-9]*" | head -n 1 \
      | cut -d: -f2)
  echo "${value:-0}"
}
[ "$(counter deadline_timeouts "$TMP/deadline_stdin.jsonl")" -eq 4 ] \
    || fail "stdin stats do not count 4 deadline_timeouts"
expired=$(( $(counter deadline_timeouts "$TMP/deadline_daemon.jsonl") \
    + $(counter shed_expired "$TMP/deadline_daemon.jsonl") ))
[ "$expired" -eq 4 ] \
    || fail "daemon stats count $expired deadline expiries, not 4"

# The admission cap: a cap below the file's budgets answers located
# error lines before any compute, and within-cap requests still serve.
"$BUILD/sweep_serverd" --port=0 --port-file="$TMP/capped.port" \
    --sim-max-runs=8 2>>"$TMP/capped.log" &
CAPPED_PID=$!
track_pid "$CAPPED_PID"
wait_for_port "$TMP/capped.port" "$CAPPED_PID" "capped daemon"
"$BUILD/sweep_client" --port="$(cat "$TMP/capped.port")" \
    --input="$REQUESTS" >"$TMP/capped.jsonl" || fail "capped client failed"
grep -q '"field":"sim.max_runs"' "$TMP/capped.jsonl" \
    || fail "capped daemon never answered the sim.max_runs error line"
grep -q '"type":"cell"' "$TMP/capped.jsonl" \
    && fail "capped daemon streamed cells for an over-cap request"

# ------------------------------------------------------ 3-shard fleet --
for shard in 1 2 3; do
  "$BUILD/sweep_serverd" --port=0 --port-file="$TMP/s$shard.port" \
      2>>"$TMP/s$shard.log" &
  eval "S${shard}_PID=\$!"
  track_pid "$(eval echo "\$S${shard}_PID")"
  wait_for_port "$TMP/s$shard.port" "$(eval echo "\$S${shard}_PID")" \
      "shard $shard"
done
SHARDS="$(cat "$TMP/s1.port"),$(cat "$TMP/s2.port"),$(cat "$TMP/s3.port")"
"$BUILD/sweep_router" --port=0 --port-file="$TMP/router.port" \
    --shards="$SHARDS" --connect-timeout-ms=2000 \
    --receive-timeout-ms=10000 2>>"$TMP/router.log" &
ROUTER_PID=$!
track_pid "$ROUTER_PID"
wait_for_port "$TMP/router.port" "$ROUTER_PID" "router"

"$BUILD/sweep_client" --port="$(cat "$TMP/router.port")" \
    --input="$REQUESTS" >"$TMP/router.jsonl" || fail "router client failed"
diff -u "$TMP/stdin.jsonl" "$TMP/router.jsonl" >&2 \
    || fail "router-merged responses differ from the stdin run (exact bytes expected)"

# ------------------------------------------------------ graceful drains --
expect_drain "$ROUTER_PID" "router"
for pid in $DAEMON_PID $CAPPED_PID $S1_PID $S2_PID $S3_PID; do
  expect_drain "$pid" "daemon $pid"
done

echo "sim_smoke: OK (stdin, daemon and 3-shard router streams byte-identical; cap enforced; clean drains)"
exit 0
