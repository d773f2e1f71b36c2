#!/bin/sh
# Usage: expect_usage_exit.sh BINARY SPEC...
#
# Runs BINARY once per SPEC and fails unless every run exits with
# status 2 and prints an "invalid <flag> value ..." message on stderr.
# A SPEC is one string of words: leading NAME=VALUE words go into the
# environment, the rest are BINARY's arguments.
bin=$1
shift
status=0
for spec in "$@"; do
    set -f
    # shellcheck disable=SC2086  # word splitting is the point
    set -- $spec
    set +f
    envs=
    while [ $# -gt 0 ]; do
        case $1 in
            -*) break ;;
            *=*) envs="$envs $1"; shift ;;
            *) break ;;
        esac
    done
    # shellcheck disable=SC2086
    msg=$(env $envs "$bin" "$@" 2>&1 >/dev/null)
    rc=$?
    if [ "$rc" -ne 2 ] || ! printf '%s\n' "$msg" | grep -q '^invalid '; then
        echo "FAIL: '$spec' exited $rc, want 2 and an 'invalid' message"
        printf '%s\n' "$msg"
        status=1
    else
        echo "ok: '$spec' -> $msg"
    fi
done
exit $status
