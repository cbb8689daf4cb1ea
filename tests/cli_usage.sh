#!/bin/sh
# Numeric-flag usage gate: every numeric flag of bench_micro, the eleven
# figure/table/ablation harnesses, job_simulation, platform_advisor and
# sweep_server must reject a negative, a garbage and a trailing-junk value
# (and 0 where the flag counts something) with exit 2, before measuring
# anything. The timeout bounds each run, because a "-5" once wrapped to
# 2^64 - 5 runs or patterns and ran until killed.
#
# The serving binaries (sweep_serverd, sweep_router, sweep_client and the
# sweep_chaosd proxy) must reject 2^32 + 1 for every flag they narrow to
# an int, which would otherwise wrap to 1, sweep_router a shard port
# with trailing junk, and every retired flag as an unknown flag; a daemon
# that wrongly accepts one starts serving and is caught by the timeout.
# Flags that name a platform or a pattern family, and platform_advisor's
# custom rates that no pattern can run at, must exit 2 too, not abort.
#
# Usage: cli_usage.sh BUILD_DIR
set -u

BUILD=$1
BAD="-5 abc 10abc"
runs=0
failures=0

# check BINARY "BASE ARGS" "VALUES" FLAG...: BINARY run with BASE ARGS and
# then --FLAG=VALUE (the last value of a flag wins) must exit 2 for every
# FLAG and VALUE.
check() {
  binary=$1
  base=$2
  values=$3
  shift 3
  for flag in "$@"; do
    for value in $values; do
      # $base is split on purpose: it holds zero or more whole flags.
      timeout 10 "$BUILD/$binary" $base "--$flag=$value" >/dev/null 2>&1
      status=$?
      runs=$((runs + 1))
      if [ "$status" -ne 2 ]; then
        echo "$binary --$flag=$value exited $status, expected 2"
        failures=$((failures + 1))
      fi
    done
  done
}

check bench_micro "--json --out=/dev/null" "$BAD 0" patterns
for harness in ablation_chunk_sizes ablation_faulty_ops \
    ablation_model_accuracy ablation_weibull fig6_platforms \
    fig7_weak_scaling fig8_weak_scaling_fast_disk fig9_error_rates; do
  check "$harness" "" "$BAD 0" runs patterns
  check "$harness" "" "$BAD" seed threads
done
for harness in ablation_recall ablation_two_level table1_formulas; do
  check "$harness" "" "$BAD" threads
done
check fig7_weak_scaling "" "$BAD" min-log2 max-log2
check fig8_weak_scaling_fast_disk "" "$BAD" min-log2 max-log2
check fig9_error_rates "" "$BAD 0" grid
check job_simulation "" "$BAD 0" runs
check job_simulation "" "$BAD" days seed
check platform_advisor "--lambda-f=1e-5 --cd=120 --cm=5" "$BAD" \
    lambda-f lambda-s
check platform_advisor "--lambda-f=1e-5 --cd=120 --cm=5" "$BAD 0" cd cm
check sweep_server "--input=/dev/null" "$BAD" \
    threads cache-capacity default-deadline-ms sim-max-runs

WRAPS=4294967297
check sweep_serverd "--port=0" "$WRAPS" drain-timeout-ms default-deadline-ms
check sweep_router "--port=0 --shards=127.0.0.1:1" "$WRAPS" \
    probe-interval-ms connect-timeout-ms receive-timeout-ms \
    overload-rounds drain-timeout-ms
check sweep_router "--port=0" "127.0.0.1:7000abc" shards
# The router has one failure policy and no shard retries: its old retry
# flags are unknown flags now, with any value.
check sweep_router "--port=0 --shards=127.0.0.1:1" "2" attempts-per-shard
check sweep_router "--port=0 --shards=127.0.0.1:1" "1" jitter-seed
# Knobs no caller set are gone: each is an unknown flag now.
check sweep_router "--port=0 --shards=127.0.0.1:1" "64" vnodes
check sweep_server "--input=/dev/null" "true" no-stream
check sweep_client "--port=1 --input=/dev/null" "1" jitter-seed
check sweep_chaosd "--port=0 --upstream-port=1" "true" kill-fin
check sweep_client "--port=1 --input=/dev/null" "$WRAPS" \
    retries connect-timeout-ms receive-timeout-ms
check sweep_chaosd "--port=0 --upstream-port=1" "$WRAPS" stall-max-ms

for binary in quickstart job_simulation platform_advisor ablation_recall \
    ablation_weibull; do
  check "$binary" "" "nosuch" platform
done
check quickstart "" "PDX" pattern
check job_simulation "" "PDX" pattern
check platform_advisor "--lambda-s=0 --cd=120 --cm=5" "0 1e300" lambda-f

if [ "$failures" -ne 0 ]; then
  echo "cli_usage: $failures of $runs bad flag values did not exit 2"
  exit 1
fi
echo "cli_usage: $runs bad flag values all exit 2"
