#!/usr/bin/env bash
# Regenerates committed baselines after an *intended* change, so the diff is
# reviewable alongside the code that caused it.
#
#   scripts/rebaseline.sh [build-dir]           # golden wire baselines
#   scripts/rebaseline.sh --bench [build-dir]   # multi-seed perf snapshot
#
# Default mode rewrites tests/golden/serial_wire.txt (serial flush path,
# overload off) and tests/golden/overload_wire.txt (the overload ladder
# scenario) — see GoldenRun.* in tests/determinism_test.cpp. --bench re-runs the canonical perf tier
# (scripts/bench_snapshot.sh, DYCONITS_BENCH_RUNS seeds, default 5) and
# rewrites the latest BENCH_<pr>.json — the baseline `scripts/verify.sh
# bench-gate` diffs against.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "${1:-}" = "--bench" ]; then
  shift
  build="${1:-build}"
  # Overwrite the newest committed snapshot; first-ever use starts BENCH_7.
  out="$(ls BENCH_*.json 2>/dev/null | sort -V | tail -1 || true)"
  [ -n "$out" ] || out="BENCH_7.json"
  scripts/bench_snapshot.sh "$build" "$out"
  echo "rebaseline: wrote $out"
  git --no-pager diff --stat -- "$out" || true
  exit 0
fi

build="${1:-build}"
jobs="$(nproc 2>/dev/null || echo 4)"

cmake -B "$build" -S .
cmake --build "$build" -j "$jobs" --target determinism_test

DYCONITS_REBASELINE=1 "$build/tests/determinism_test" --gtest_filter='GoldenRun.*'

echo "rebaseline: wrote tests/golden/serial_wire.txt tests/golden/overload_wire.txt"
git --no-pager diff --stat -- tests/golden/ || true
