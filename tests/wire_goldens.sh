#!/bin/sh
# Wire and spill goldens: the bytes sweep_server answers and spills must
# equal the bytes an earlier build wrote, kept in tests/golden/wire.
# Every other identity suite compares two fronts (or two pool sizes) of
# one build, so a byte change that every front shares passes all of
# them; this test does not let it.
#
#   * stdout over tests/data: sim_smoke exactly (simulate cells stream in
#     table order); service_smoke and chaos_smoke after an LC_ALL=C sort
#     (cell order within a cache miss follows the pool schedule);
#     fleet_smoke (812 lines) as the sha256 of its sorted stdout. Each
#     run must exit with its golden status.
#   * the six files a --cache-dir run over service_smoke and then
#     sim_smoke writes (two analytic spills, three simulate spills and
#     seed_index.json), byte for byte.
#
# A golden changes only together with a CHANGES.md line that names the
# cause; regenerate one by running the commands below from a build of
# the change and copying the output over it.
#
# Usage: wire_goldens.sh BUILD_DIR GOLDEN_DIR REQUEST_DIR
set -u

BUILD=$1
GOLDEN=$2
DATA=$3
SMOKE_NAME=wire_goldens
. "$(dirname "$0")/smoke_lib.sh"
smoke_init

# answer NAME STATUS [FLAGS...]: sweep_server over DATA/NAME.jsonl into
# $TMP/NAME.out; the run must exit with STATUS.
answer() {
  answer_name=$1
  answer_status=$2
  shift 2
  "$BUILD/sweep_server" "$@" --input="$DATA/$answer_name.jsonl" \
      >"$TMP/$answer_name.out" 2>>"$TMP/server.log"
  answer_rc=$?
  [ "$answer_rc" -eq "$answer_status" ] \
      || fail "$answer_name: sweep_server exited $answer_rc, expected $answer_status"
}

# same GOLDEN_FILE ACTUAL_FILE WHAT
same() {
  if ! cmp -s "$1" "$2"; then
    diff -u "$1" "$2" | head -40 >&2
    fail "$3 differs from its golden $1"
  fi
}

answer sim_smoke 0
same "$GOLDEN/sim_smoke.jsonl" "$TMP/sim_smoke.out" "sim_smoke stdout"

for pair in service_smoke:3 chaos_smoke:0; do
  name=${pair%:*}
  answer "$name" "${pair#*:}"
  LC_ALL=C sort "$TMP/$name.out" >"$TMP/$name.sorted"
  same "$GOLDEN/$name.sorted.jsonl" "$TMP/$name.sorted" "$name stdout (sorted)"
done

answer fleet_smoke 3
LC_ALL=C sort "$TMP/fleet_smoke.out" | sha256sum | cut -d' ' -f1 \
    >"$TMP/fleet_smoke.sha256"
same "$GOLDEN/fleet_smoke.sorted.sha256" "$TMP/fleet_smoke.sha256" \
    "fleet_smoke stdout (sha256 after sort)"

answer service_smoke 3 --cache-dir="$TMP/cache"
answer sim_smoke 0 --cache-dir="$TMP/cache"
for golden in "$GOLDEN"/spill/*; do
  same "$golden" "$TMP/cache/$(basename "$golden")" "spill file"
done
[ "$(ls "$TMP/cache" | wc -l)" -eq "$(ls "$GOLDEN/spill" | wc -l)" ] \
    || fail "the cache dir holds $(ls "$TMP/cache" | tr '\n' ' '), not the golden files"

echo "wire_goldens: 4 request files and $(ls "$GOLDEN/spill" | wc -l) spill files match their goldens"
