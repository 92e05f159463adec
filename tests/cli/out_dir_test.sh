#!/bin/sh
# Usage: out_dir_test.sh <work-dir> <experiment-cli> [flags...]
#
# Runs an experiment CLI twice with the given flags:
#   1. --out names a missing nested directory: the run must create it,
#      exit 0 and leave its summary artifact there;
#   2. --out names an existing regular file: the run must exit 2 (the
#      artifact I/O code) with an error line naming the path — never
#      abort (exit 134).
set -u
work="$1"
cli="$2"
shift 2

rm -rf "$work"
mkdir -p "$work"

out="$work/missing/nested"
"$cli" "$@" --out "$out" > "$work/missing.log" 2>&1
code=$?
if [ "$code" -ne 0 ]; then
  echo "FAIL: --out $out exited $code, want 0"
  cat "$work/missing.log"
  exit 1
fi
if ! ls "$out"/*_summary.json > /dev/null 2>&1; then
  echo "FAIL: no *_summary.json written under $out"
  ls -la "$out"
  exit 1
fi

file="$work/regular-file"
: > "$file"
"$cli" "$@" --out "$file" > "$work/file.log" 2>&1
code=$?
if [ "$code" -ne 2 ]; then
  echo "FAIL: --out $file exited $code, want 2"
  cat "$work/file.log"
  exit 1
fi
if ! grep -q "$file" "$work/file.log"; then
  echo "FAIL: the error output does not name $file"
  cat "$work/file.log"
  exit 1
fi
echo "PASS: $(basename "$cli") $*"
