#!/bin/sh
# Live-capture gate (wired into CTest as corpus_capture_gate).
#
# trace_corpus_gate only replays the checked-in traces, so it cannot see
# a change in what a live run emits. This gate re-captures every corpus
# member listed in corpus_members.sh with the given accelprof and
# byte-compares each capture against the checked-in trace.
#
# The corpus members are 1-2 iteration inference runs: none of them
# reaches optimizer-state tensors or a third iteration. Two
# multi-iteration training captures are therefore pinned by sha256 (they
# are too large to check in).
#
# Usage: check_corpus_capture.sh path/to/accelprof
set -eu

REPO_ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
ACCELPROF=${1:?usage: check_corpus_capture.sh path/to/accelprof}
CORPUS="$REPO_ROOT/tests/corpus"

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

FAILED=0
CHECKED=0

# capture <name> "<tools>" <capture flags and model...>: the tools only
# matter to capture_corpus.sh's goldens.
capture() {
  NAME=$1
  shift 2
  "$ACCELPROF" -b cs-gpu -g A100 --capture "$WORK/$NAME.trace" "$@" \
    >/dev/null
  if ! cmp "$WORK/$NAME.trace" "$CORPUS/$NAME.trace" >&2; then
    echo "corpus_capture_gate: live capture of $NAME ($*) differs from" \
      "tests/corpus/$NAME.trace" >&2
    FAILED=1
  fi
  CHECKED=$((CHECKED + 1))
}

. "$REPO_ROOT/scripts/corpus_members.sh"

# pin <sha256> <bytes> <capture flags and model...>
pin() {
  WANT=$1
  WANT_BYTES=$2
  shift 2
  "$ACCELPROF" -b cs-gpu -g A100 --capture "$WORK/pinned.trace" "$@" \
    >/dev/null
  GOT=$(sha256sum "$WORK/pinned.trace" | cut -d' ' -f1)
  GOT_BYTES=$(wc -c <"$WORK/pinned.trace" | tr -d ' ')
  if [ "$GOT" != "$WANT" ] || [ "$GOT_BYTES" != "$WANT_BYTES" ]; then
    echo "corpus_capture_gate: capture of '$*' is $GOT ($GOT_BYTES B)," \
      "pinned $WANT ($WANT_BYTES B)" >&2
    FAILED=1
  fi
  CHECKED=$((CHECKED + 1))
}

pin 9139deb8f046a0ce7d24629971c565e37243a0f3de8b3f7230e291086b708aa1 \
  1817887 --train --iters 4 bert
pin d37a78266e8a658551fe900b0864a5eafc966ea0b9396064cf215f5c8a205816 \
  149017 --train --iters 3 alexnet

if [ "$FAILED" != 0 ]; then
  echo "A deliberate change to what live runs emit must regenerate the" \
    "corpus (scripts/capture_corpus.sh) and update the pins above." >&2
  exit 1
fi
if [ "$CHECKED" -lt 6 ]; then
  echo "error: only $CHECKED captures checked — corpus incomplete" >&2
  exit 1
fi
echo "corpus_capture_gate: $CHECKED live captures match"
