#!/bin/sh
# Usage: expect_golden_stdout.sh GOLDEN BINARY [ARG...]
#
# Runs BINARY with ARGs and fails unless it exits 0 and its stdout
# matches the file GOLDEN byte for byte.  Stderr (wall-clock timing,
# cache counters) is not compared.  On a mismatch the diff is printed.
# After a change that is meant to move the output, re-record with
#     BINARY [ARG...] > GOLDEN
golden=$1
shift
out=$(mktemp) || exit 1
trap 'rm -f "$out"' EXIT
"$@" > "$out" 2>/dev/null
rc=$?
if [ "$rc" -ne 0 ]; then
    echo "FAIL: '$*' exited $rc"
    exit 1
fi
if ! cmp -s "$golden" "$out"; then
    echo "FAIL: stdout of '$*' differs from $golden"
    diff "$golden" "$out"
    exit 1
fi
echo "ok: stdout of '$*' matches $golden"
