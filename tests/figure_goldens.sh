#!/bin/sh
# Figure goldens: the eleven figure/table/ablation harnesses, run at
# their default sizes, must write --json-out documents byte-identical to
# tests/golden/<harness>.json. A core change that moves a reproduced
# figure fails here; a golden changes only together with a CHANGES.md
# line that names the cause.
#
# On the same numbers it asserts one claim of the paper: Table 1's
# lambda^-1/2 law, read off Fig. 7 panel (b). Four times the nodes is
# four times the error rate, so the first-order period W* of PD and of
# PDMV must halve from each row to the next, within 0.001 h (the table
# prints three decimals).
#
# Usage: figure_goldens.sh BUILD_DIR GOLDEN_DIR
set -u

BUILD=$1
GOLDEN=$2
SMOKE_NAME=figure_goldens
. "$(dirname "$0")/smoke_lib.sh"
smoke_init

for harness in table1_formulas fig6_platforms fig7_weak_scaling \
    fig8_weak_scaling_fast_disk fig9_error_rates ablation_chunk_sizes \
    ablation_faulty_ops ablation_model_accuracy ablation_recall \
    ablation_two_level ablation_weibull; do
  [ -f "$GOLDEN/$harness.json" ] || fail "no golden for $harness"
  "$BUILD/$harness" --json-out="$TMP/$harness.json" >"$TMP/$harness.out" \
      2>&1 || fail "$harness exited with status $?"
  if ! cmp -s "$GOLDEN/$harness.json" "$TMP/$harness.json"; then
    diff -u "$GOLDEN/$harness.json" "$TMP/$harness.json" | head -40 >&2
    fail "$harness output differs from its golden"
  fi
done

# Panel (b) rows are [nodes, PD period, PDMV period], one string a line.
awk '
  /"title": "Panel \(b\)/ { panel = 1 }
  panel && /"rows"/ { rows = 1; next }
  rows && /"title"/ { exit }
  rows && /^ *"/ { gsub(/[ ",]/, ""); cell[n++] = $0 }
  END {
    if (n != 18) {
      print "panel (b) has " n " cells, expected 6 rows of 3"
      exit 1
    }
    for (i = 3; i < n; i += 3) {
      for (c = 1; c <= 2; ++c) {
        half = cell[i - 3 + c] / 2
        if (cell[i + c] - half > 0.001 || half - cell[i + c] > 0.001) {
          print "at " cell[i] " nodes, W* " cell[i + c] " h is not half of " \
                cell[i - 3 + c] " h"
          bad = 1
        }
      }
    }
    exit bad
  }' "$TMP/fig7_weak_scaling.json" >&2 \
    || fail "Fig. 7 panel (b) breaks the lambda^-1/2 law of Table 1"

echo "figure_goldens: 11 harnesses match their goldens; W* halves per 4x nodes"
