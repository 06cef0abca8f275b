#!/usr/bin/env bash
# Full verification: tier-1 build + tests, then the chaos suite across a
# fault-seed matrix, then the unit-test suite again under AddressSanitizer +
# UBSan (DYCONITS_SANITIZE) including a 100k-iteration protocol fuzz pass
# that also feeds chunk payloads to Chunk::decode_rle, then the trace suite
# under ThreadSanitizer (the Tracer's per-thread rings and atomics are the
# synchronisation left in the tree), then a check that
# the compile-out switch (DYCONITS_TRACING=OFF) still builds, then the
# end-to-end UDP run: server + bot clients as separate OS processes over
# loopback must produce the exact wire hashes the in-process sim oracle
# predicts (DESIGN.md §12), including a clean-shutdown pass under ASan,
# then the standing mutation check (scripts/mutants.sh): every recorded
# source mutation must still be caught by its test target.
#
#   scripts/verify.sh [build-dir-prefix] [stage ...] [--self-test]
#
# Stages: tier1 perf-smoke chaos asan tsan notrace e2e-udp e2e-chaos-udp
# mutants bench-gate
# (default: all, in that order). Named stages assume their build tree exists
# when they reuse one from an earlier stage (e2e-udp and bench-gate
# configure/build what they need). The bench-gate stage re-runs the
# canonical perf tier across DYCONITS_BENCH_RUNS seeds (default 5) and
# fails if any gated metric regresses beyond its recorded noise band;
# `bench-gate --self-test` instead proves the gate trips on a synthetic 20%
# regression without re-running the benches.
set -euo pipefail
cd "$(dirname "$0")/.."

all_stages="tier1 perf-smoke chaos asan tsan notrace e2e-udp e2e-chaos-udp mutants bench-gate"

usage() {
  echo "usage: scripts/verify.sh [build-dir-prefix] [stage ...] [--self-test]"
  echo "stages: $all_stages (default: all, in that order)"
  echo "knobs:  DYCONITS_BENCH_RUNS=N   seeds per bench in the bench-gate stage (default 5)"
}

self_test=0
args=()
for a in "$@"; do
  case "$a" in
    --self-test) self_test=1 ;;
    --help|-h) usage; exit 0 ;;
    *) args+=("$a") ;;
  esac
done
set -- ${args[@]+"${args[@]}"}

prefix="build"
if [ "$#" -gt 0 ]; then
  case " $all_stages " in
    *" $1 "*) ;;                    # first arg is a stage name, keep default prefix
    *) prefix="$1"; shift ;;
  esac
fi
stages="${*:-$all_stages}"
for s in $stages; do
  case " $all_stages " in
    *" $s "*) ;;
    *) echo "unknown stage '$s'" >&2; usage >&2; exit 2 ;;
  esac
done
jobs="$(nproc 2>/dev/null || echo 4)"

want() { case " $stages " in *" $1 "*) return 0 ;; *) return 1 ;; esac; }

# One scripted run (DESIGN.md §12): server + $2 clients over UDP loopback
# from the $1 build tree for $4 ticks, hash lines collected into $3; any
# further arguments are schedule flags passed to every process. Exit codes
# of every process are checked (set -e + wait), so sanitizer reports fail
# the stage.
e2e_udp_run() {
  local bdir="$1" clients="$2" out="$3" ticks="$4"
  shift 4
  local tmp spid port idx
  tmp="$(mktemp -d)"
  "$bdir/src/apps/dyconits_server" --transport=udp --ticks="$ticks" \
    --clients="$clients" --port-file="$tmp/port" "$@" >"$tmp/server.out" &
  spid=$!
  for _ in $(seq 1 200); do [ -s "$tmp/port" ] && break; sleep 0.05; done
  if [ ! -s "$tmp/port" ]; then
    echo "e2e-udp: server never wrote its port file" >&2
    kill "$spid" 2>/dev/null || true
    return 1
  fi
  port="$(cat "$tmp/port")"
  local cpids=()
  for idx in $(seq 0 $((clients - 1))); do
    "$bdir/src/apps/dyconits_client" --connect="127.0.0.1:$port" \
      --index="$idx" --ticks="$ticks" "$@" >"$tmp/client$idx.out" &
    cpids+=("$!")
  done
  for p in "${cpids[@]}"; do wait "$p"; done
  wait "$spid"
  cat "$tmp/server.out" "$tmp"/client*.out | grep '^wire_hash' | sort >"$out"
  rm -rf "$tmp"
}

# One chaos run (DESIGN.md §13): a free-running server plus $2 free-running
# clients as separate OS processes over UDP loopback from the $1 build tree,
# all injecting 10% seeded frame loss through FaultInjectingTransport, with
# a mid-run server crash + same-port restart. Asserts from the
# chaos_summary lines: exactly one crash, every pre-crash session resumed,
# zero post-recovery bound violations, and every client (re)joined.
e2e_chaos_run() {
  local bdir="$1" clients="$2" ticks="$3"
  local tmp spid port idx line val
  tmp="$(mktemp -d)"
  printf 'loss 0.10\n' >"$tmp/faults.txt"
  "$bdir/src/apps/dyconits_server" --free-run --faults="$tmp/faults.txt" \
    --fault-seed=7 --clients="$clients" --ticks="$ticks" \
    --crash-at-tick=$((ticks / 3)) --restart --restart-delay=1s \
    --state-file="$tmp/state.txt" --port-file="$tmp/port" >"$tmp/server.out" &
  spid=$!
  for _ in $(seq 1 200); do [ -s "$tmp/port" ] && break; sleep 0.05; done
  if [ ! -s "$tmp/port" ]; then
    echo "e2e-chaos-udp: server never wrote its port file" >&2
    kill "$spid" 2>/dev/null || true
    return 1
  fi
  port="$(cat "$tmp/port")"
  local cpids=()
  for idx in $(seq 0 $((clients - 1))); do
    "$bdir/src/apps/dyconits_client" --free-run --faults="$tmp/faults.txt" \
      --fault-seed=7 --connect="127.0.0.1:$port" --index="$idx" \
      --ticks="$ticks" >"$tmp/client$idx.out" &
    cpids+=("$!")
  done
  for p in "${cpids[@]}"; do wait "$p"; done
  wait "$spid"
  line="$(grep -m1 '^chaos_summary role=server' "$tmp/server.out" || true)"
  if [ -z "$line" ]; then
    echo "e2e-chaos-udp: server printed no chaos_summary" >&2
    cat "$tmp/server.out" >&2
    return 1
  fi
  echo "-- $line"
  for want_field in "crashes=1" "pre_crash_sessions=$clients" "bound_violations=0"; do
    case " $line " in
      *" $want_field "*) ;;
      *) echo "e2e-chaos-udp: expected '$want_field' in: $line" >&2; return 1 ;;
    esac
  done
  val="$(sed -n 's/.* resumed=\([0-9]*\).*/\1/p' <<<"$line")"
  if [ "$val" != "$clients" ]; then
    echo "e2e-chaos-udp: only $val of $clients sessions resumed: $line" >&2
    echo "e2e-chaos-udp: logs kept in $tmp" >&2
    for idx in $(seq 0 $((clients - 1))); do
      echo "-- client $idx:" >&2
      cat "$tmp/client$idx.out" >&2
    done
    return 1
  fi
  for idx in $(seq 0 $((clients - 1))); do
    if ! grep -q '^chaos_summary role=client.* joined=1 ' "$tmp/client$idx.out"; then
      echo "e2e-chaos-udp: client $idx never (re)joined; logs kept in $tmp" >&2
      cat "$tmp/client$idx.out" >&2
      return 1
    fi
  done
  rm -rf "$tmp"
}

if want tier1; then
  echo "== tier-1: release build + ctest =="
  cmake -B "$prefix" -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build "$prefix" -j "$jobs"
  ctest --test-dir "$prefix" --output-on-failure
fi

if want perf-smoke; then
  echo "== e14 perf smoke: zero-allocation egress =="
  # Steady-state frame-buffer allocations per tick (BufferPool misses over the
  # measurement window) must hold at the pinned ceiling of zero once buffer
  # capacity warms (DESIGN.md §11). The property is fleet-size independent, so
  # a small fast run gates it; bench/e14_egress at full scale is the
  # measurement, this is the regression tripwire. The golden-wire determinism
  # suite in the tier-1 ctest pass above already re-proves byte-identity with
  # pooling on, and the ASan pass below runs egress_test over the
  # pool/shared-frame lifecycle.
  "$prefix/bench/e14_egress" --players=60 --duration=30 --assert-alloc-ceiling=0
fi

if want chaos; then
  echo "== chaos: deterministic fault-schedule suite, seed matrix =="
  # The tier-1 pass above already ran chaos_test at the default seed (42);
  # re-run it across the matrix so recovery is validated on more than one
  # fault history (DESIGN.md §8).
  for seed in 1 7 1337; do
    echo "-- chaos seed $seed"
    DYCONITS_CHAOS_SEED="$seed" \
      ctest --test-dir "$prefix" --output-on-failure -L chaos
  done
fi

if want asan; then
  echo "== sanitizers: ASan+UBSan build + ctest (+100k protocol + chunk RLE fuzz) =="
  cmake -B "$prefix-sanitize" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DDYCONITS_SANITIZE="address;undefined"
  cmake --build "$prefix-sanitize" -j "$jobs"
  ctest --test-dir "$prefix-sanitize" --output-on-failure
  # Acceptance floor for the decoders a socket reaches: 100k seeded
  # mutations through protocol::decode, and every ChunkData that survives
  # it through Chunk::decode_rle (rejects leave the chunk unchanged), with
  # zero crashes and zero sanitizer reports (the default iteration count is
  # much smaller).
  DYCONITS_FUZZ_ITERS=100000 \
    ctest --test-dir "$prefix-sanitize" --output-on-failure -R protocol_fuzz_test
  # Acceptance floor for overload control (DESIGN.md §10): the full 10k-tick
  # saturating-load run — queue caps, sustained tick cost, and the same-seed
  # rerun identity check — must also hold with ASan+UBSan watching the
  # egress-queue memory churn.
  DYCONITS_OVERLOAD_TICKS=10000 \
    ctest --test-dir "$prefix-sanitize" --output-on-failure -L overload
fi

if want tsan; then
  echo "== tsan: trace suite (per-thread rings, profiler ownership) =="
  # TSan and ASan cannot share a build; a dedicated tree runs the one suite
  # whose code runs on several threads at once: trace_test emits spans from
  # concurrent std::threads into the Tracer's per-thread rings and checks
  # that only the installing thread feeds the tick profiler. The simulation
  # itself is single-threaded, so the determinism/chaos/overload suites
  # would give TSan nothing to watch.
  cmake -B "$prefix-tsan" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DDYCONITS_SANITIZE=thread
  cmake --build "$prefix-tsan" -j "$jobs" --target trace_test
  ctest --test-dir "$prefix-tsan" --output-on-failure -R "^trace_test$"
fi

if want notrace; then
  echo "== tracing compiled out: build + ctest =="
  cmake -B "$prefix-notrace" -S . -DCMAKE_BUILD_TYPE=Release -DDYCONITS_TRACING=OFF
  cmake --build "$prefix-notrace" -j "$jobs"
  ctest --test-dir "$prefix-notrace" --output-on-failure -E trace_test
fi

if want e2e-udp; then
  echo "== e2e-udp: separate-process UDP run vs in-process sim oracle =="
  # The headline transport claim (DESIGN.md §12): server and bots running as
  # separate OS processes over real UDP sockets deliver byte streams whose
  # per-session wire hashes match the SimNetwork oracle bit-for-bit. The
  # hashes are computed above the transport, so fragmentation, coalescing,
  # datagram framing and the borrowed-byte shared sends are all on trial.
  # Two schedules: the small default, and 400 mobs to 3 clients, which puts
  # many shared sends in every tick and flushes staging mid-tick.
  e2e_ticks=40
  e2e_schedules=("--clients=2" "--clients=3 --mobs=400")
  cmake -B "$prefix" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$prefix" -j "$jobs" --target dyconits_server dyconits_client
  cmake -B "$prefix-sanitize" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DDYCONITS_SANITIZE="address;undefined" >/dev/null
  cmake --build "$prefix-sanitize" -j "$jobs" --target dyconits_server dyconits_client
  e2e_dir="$(mktemp -d)"
  for schedule in "${e2e_schedules[@]}"; do
    read -ra flags <<<"$schedule"
    clients="${flags[0]#--clients=}"
    echo "-- schedule: $schedule"
    "$prefix/src/apps/dyconits_server" --transport=sim --ticks="$e2e_ticks" "${flags[@]}" \
      | grep '^wire_hash' | sort >"$e2e_dir/oracle.txt"
    e2e_udp_run "$prefix" "$clients" "$e2e_dir/udp.txt" "$e2e_ticks" "${flags[@]:1}"
    if ! diff -u "$e2e_dir/oracle.txt" "$e2e_dir/udp.txt"; then
      echo "FAIL: UDP wire hashes diverge from the sim oracle" >&2
      exit 1
    fi
    echo "-- wire hashes match the sim oracle ($(wc -l <"$e2e_dir/oracle.txt") sessions)"
    # Same run under ASan+UBSan: every process must exit 0 with no leak or
    # sanitizer report (sockets, epoll registration, pooled payloads,
    # reassembly buffers all torn down cleanly), and the hashes must still
    # match the (sanitizer-build) oracle.
    "$prefix-sanitize/src/apps/dyconits_server" --transport=sim --ticks="$e2e_ticks" "${flags[@]}" \
      | grep '^wire_hash' | sort >"$e2e_dir/oracle-asan.txt"
    diff -u "$e2e_dir/oracle.txt" "$e2e_dir/oracle-asan.txt"
    e2e_udp_run "$prefix-sanitize" "$clients" "$e2e_dir/udp-asan.txt" "$e2e_ticks" "${flags[@]:1}"
    diff -u "$e2e_dir/oracle.txt" "$e2e_dir/udp-asan.txt"
    echo "-- ASan run: clean shutdown, hashes still match"
  done
  rm -rf "$e2e_dir"
fi

if want e2e-chaos-udp; then
  echo "== e2e-chaos-udp: fault injection + crash-restart over real sockets =="
  # DESIGN.md §13, three gates. (1) Determinism: the fault layer's decision
  # stream replays byte-identically from its seed — e16 --replay-check runs
  # the same offered-frame schedule twice and compares decision hashes,
  # then proves a different seed diverges. (2) The transport-chaos unit
  # suite (FaultInjectingTransport ledgers + real-socket keepalive /
  # reassembly under chaos). (3) The headline scenario: a free-running
  # server over loopback UDP at 10% seeded loss crashes mid-run, restarts
  # on the same port, and every client detects the outage and resumes its
  # session with zero post-recovery bound violations — in the release tree
  # and again under ASan+UBSan.
  cmake -B "$prefix" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$prefix" -j "$jobs" \
    --target dyconits_server dyconits_client e16_transport_chaos transport_test
  "$prefix/bench/e16_transport_chaos" --replay-check
  ctest --test-dir "$prefix" --output-on-failure -L transport-chaos
  e2e_chaos_run "$prefix" 3 240
  echo "-- release chaos run: crash recovered, all sessions resumed"
  cmake -B "$prefix-sanitize" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DDYCONITS_SANITIZE="address;undefined" >/dev/null
  cmake --build "$prefix-sanitize" -j "$jobs" \
    --target dyconits_server dyconits_client
  e2e_chaos_run "$prefix-sanitize" 3 240
  echo "-- ASan chaos run: clean shutdown, recovery invariants hold"
fi

if want mutants; then
  echo "== mutants: recorded source mutations must each fail their target =="
  # A test that passes is evidence only if it can fail. Each patch in
  # scripts/mutants/ is a defect some test was once shown to catch; the
  # stage re-proves it on every run, in a scratch copy of the tree, so a
  # refactor that quietly blinds a test is caught here.
  DYCONITS_MUTANTS_DIR="$prefix-mutants" scripts/mutants.sh
fi

if want bench-gate; then
  echo "== bench-gate: multi-seed perf tier vs committed snapshot =="
  # Meterstick discipline (PAPERS.md): performance claims are only trusted
  # across seeds with their variability reported, and only defended by a
  # committed baseline. The canonical tier (scripts/bench_snapshot.sh:
  # e11, e13-e15) re-runs across DYCONITS_BENCH_RUNS seeds; bench_gate fails the
  # stage when a gated metric moves beyond max(recorded noise band, 5%) in
  # its bad direction. Intended perf changes rebaseline with
  # `scripts/rebaseline.sh --bench` and commit the new BENCH_<pr>.json.
  baseline="$(ls BENCH_*.json 2>/dev/null | sort -V | tail -1 || true)"
  if [ -z "$baseline" ]; then
    echo "bench-gate: no committed BENCH_*.json baseline found." >&2
    echo "  Generate one: scripts/rebaseline.sh --bench" >&2
    exit 1
  fi
  cmake -B "$prefix" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$prefix" -j "$jobs" --target bench_gate >/dev/null
  if [ "$self_test" = 1 ]; then
    # Prove the gate can fail before trusting that it passed: an identical
    # candidate must pass and a synthetic 20% regression must trip.
    "$prefix/bench/bench_gate" --self-test --baseline="$baseline"
  else
    bench_tmp="$(mktemp -d)"
    scripts/bench_snapshot.sh "$prefix" "$bench_tmp/candidate.json"
    "$prefix/bench/bench_gate" --baseline="$baseline" \
      --candidate="$bench_tmp/candidate.json"
    rm -rf "$bench_tmp"
  fi
fi

echo "verify: selected stages passed ($stages)"
