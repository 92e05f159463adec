#!/bin/sh
# Usage: usage_error_test.sh <expected-text> <experiment-cli> [flags...]
#
# Runs an experiment CLI with flags it must refuse: the run must exit 1
# (the usage code) with an error line containing <expected-text>, before
# it runs anything. Bounded by `timeout`, so a hang fails in seconds.
set -u
expect="$1"
cli="$2"
shift 2

log=$(timeout 30 "$cli" "$@" 2>&1)
code=$?
if [ "$code" -ne 1 ]; then
  echo "FAIL: $(basename "$cli") $* exited $code, want 1"
  echo "$log" | tail -5
  exit 1
fi
if ! echo "$log" | grep -q -e "$expect"; then
  echo "FAIL: the error output does not name $expect"
  echo "$log" | tail -5
  exit 1
fi
echo "PASS: $(basename "$cli") $*"
