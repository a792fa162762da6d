#!/bin/sh
# Driver CLI error gate (wired into CTest as cli_error_gate).
#
# Every numeric accelprof flag must reject a malformed value ("abc",
# "12abc", a non-positive count where only positive ones make sense)
# with exit status 2 and a one-line "error: <flag> ..." diagnostic,
# instead of running with a silently wrong value. One well-formed run
# using the same flags must still exit 0.
#
# Usage: check_cli_errors.sh path/to/accelprof
set -eu

ACCELPROF=${1:?usage: check_cli_errors.sh path/to/accelprof}
ERR=$(mktemp)
trap 'rm -f "$ERR"' EXIT
FAILED=0
CHECKED=0

# expect_error FLAG VALUE: accelprof with FLAG VALUE must exit 2 with
# exactly one stderr line, naming FLAG.
expect_error() {
  STATUS=0
  "$ACCELPROF" -t kernel_frequency "$1" "$2" alexnet >/dev/null \
    2>"$ERR" || STATUS=$?
  if [ "$STATUS" -ne 2 ] || [ "$(wc -l <"$ERR")" -ne 1 ] ||
    ! grep -q -- "^error: $1 " "$ERR"; then
    echo "cli_error_gate: '$1 $2' exited $STATUS; expected 2 and one" \
      "'error: $1 ...' line, got:" >&2
    cat "$ERR" >&2
    FAILED=1
  fi
  CHECKED=$((CHECKED + 1))
}

expect_error --iters abc
expect_error --oversub abc
expect_error --oversub -3
expect_error --granularity -4096
expect_error --queue-depth 12abc
expect_error --lanes 4x

STATUS=0
"$ACCELPROF" -t kernel_frequency --iters 1 --oversub 2 \
  --granularity 4096 --queue-depth 12 --lanes 4 alexnet >/dev/null \
  2>"$ERR" || STATUS=$?
if [ "$STATUS" -ne 0 ]; then
  echo "cli_error_gate: well-formed run exited $STATUS:" >&2
  cat "$ERR" >&2
  FAILED=1
fi

if [ "$FAILED" -ne 0 ]; then
  exit 1
fi
echo "cli_error_gate: $CHECKED malformed values rejected, well-formed run ok"
