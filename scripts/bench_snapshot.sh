#!/usr/bin/env bash
# Runs the canonical perf tier (e11, e13-e15) across DYCONITS_BENCH_RUNS
# seeds (default 5; Meterstick asks for >=5) and bundles the four schema-2
# cross-seed reports into one snapshot array. This script is the single
# source of truth for the tier's configurations: scripts/rebaseline.sh
# --bench uses it to regenerate the committed BENCH_<pr>.json baseline, and
# scripts/verify.sh bench-gate uses it to produce the candidate that is
# diffed against that baseline — both sides must measure the same thing or
# the gate compares noise.
#
#   scripts/bench_snapshot.sh [build-dir] [out.json]
#
# Configurations are sized so the full tier stays a few minutes: long
# enough past warmup for steady-state rates, small enough for CI. Seeds are
# 42..42+N-1 on every bench, so deterministic metrics (wire bytes, shed
# counters) reproduce exactly when baseline and candidate use the same N.
set -euo pipefail
cd "$(dirname "$0")/.."

build="${1:-build}"
out="${2:-BENCH_candidate.json}"
runs="${DYCONITS_BENCH_RUNS:-5}"
jobs="$(nproc 2>/dev/null || echo 4)"

cmake -B "$build" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$build" -j "$jobs" \
  --target bench_gate e11_chaos e13_overload e14_egress e15_transport \
  >/dev/null

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "-- e11_chaos: $runs seeds (degradation + recovery under loss)"
"$build/bench/e11_chaos" --players=12 --duration=30 --warmup=8 --loss=0,10 \
  --runs="$runs" --json="$tmp/e11.json" >"$tmp/e11.out"

echo "-- e13_overload: $runs seeds (overload-control ladder)"
"$build/bench/e13_overload" --players=16 --duration=25 --warmup=5 --load=1,4 \
  --runs="$runs" --json="$tmp/e13.json" >"$tmp/e13.out"

echo "-- e14_egress: $runs seeds (zero-allocation egress)"
"$build/bench/e14_egress" --players=60 --duration=20 --warmup=5 \
  --runs="$runs" --json="$tmp/e14.json" >"$tmp/e14.out"

echo "-- e15_transport: $runs repeats (UDP framing vs sim, wall-clock)"
"$build/bench/e15_transport" --iters=60 --batch=64 --payload=96 \
  --runs="$runs" --json="$tmp/e15.json" >"$tmp/e15.out"

"$build/bench/bench_gate" --bundle="$out" \
  "$tmp/e11.json" "$tmp/e13.json" "$tmp/e14.json" "$tmp/e15.json"
"$build/bench/bench_gate" --check="$out"
