#!/usr/bin/env bash
# A malformed GPUSTL_BENCH_THREADS is a usage error found before any work:
# bench_table1 must exit 2 and name the variable on stderr within 10 s
# (its fixture's ATPG alone takes about 30 s).
#
# Usage: bench_env_usage.sh <bench_table1>
set -u
bench=$1
err=$(GPUSTL_BENCH_THREADS=abc timeout 10 "$bench" 2>&1 >/dev/null)
code=$?
if [ "$code" -ne 2 ]; then
  echo "FAIL: expected exit 2, got $code (124 = timed out)" >&2
  echo "$err" >&2
  exit 1
fi
if ! grep -q GPUSTL_BENCH_THREADS <<<"$err"; then
  echo "FAIL: stderr does not name GPUSTL_BENCH_THREADS:" >&2
  echo "$err" >&2
  exit 1
fi
echo "ok: exit 2, $err"
