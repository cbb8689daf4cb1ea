#!/bin/sh
# Numeric-flag usage gate: every numeric flag of bench_micro, the eleven
# figure/table/ablation harnesses, job_simulation, platform_advisor and
# sweep_server must reject a negative, a garbage and a trailing-junk value
# (and 0 where the flag counts something) with exit 2, before measuring
# anything. The timeout bounds each run, because a "-5" once wrapped to
# 2^64 - 5 runs or patterns and ran until killed.
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

if [ "$failures" -ne 0 ]; then
  echo "cli_usage: $failures of $runs bad flag values did not exit 2"
  exit 1
fi
echo "cli_usage: $runs bad flag values all exit 2"
