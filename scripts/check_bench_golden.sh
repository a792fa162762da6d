#!/bin/sh
# Bench golden-output gate (wired into CTest as bench_golden_<bench>).
#
# Runs one simulated-clock paper bench and byte-compares its stdout
# with bench/expected/<bench>.txt. The benches report simulated time
# only, so their output is deterministic; a diff means a change moved a
# reproduced figure and must be intentional. To regenerate a golden,
# run the bench with no PASTA_* variables set and commit its stdout.
#
# Usage: check_bench_golden.sh path/to/bench_<name> path/to/golden.txt
set -eu

BENCH=${1:?usage: check_bench_golden.sh path/to/bench golden.txt}
GOLDEN=${2:?usage: check_bench_golden.sh path/to/bench golden.txt}

OUT=$(mktemp)
trap 'rm -f "$OUT"' EXIT

# The bench granularity knob is the one variable the benches read.
env -u PASTA_BENCH_GRANULARITY "$BENCH" >"$OUT"

if ! cmp -s "$OUT" "$GOLDEN"; then
  echo "bench golden: $(basename "$BENCH") diverges from" \
    "$(basename "$GOLDEN")" >&2
  diff -u "$GOLDEN" "$OUT" >&2 || true
  exit 1
fi
echo "bench golden: $(basename "$BENCH") matches $(basename "$GOLDEN")"
