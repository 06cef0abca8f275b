#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload village_dense --seed 1 --seconds 30 --trace 0

Builds the load generator and the program's libraries from source with
CMake (Release) into $CARGO_TARGET_DIR/perfbench, default .bench_build,
then runs one measurement. The load generator prints a human-readable
report and, as its last line, one JSON object with the keys correct,
attempted, failed and metrics; this script passes its output through and
exits with its status. A failed build exits non-zero without a result.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

WORKLOADS = ("village_dense", "udp_swarm", "capped_flash")
RUN_TIMEOUT_S = 170
BUILD_JOBS = max(1, min(4, os.cpu_count() or 1))

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build(out_dir):
    """Configures (once) and builds the perfbench target; True on success."""
    os.makedirs(out_dir, exist_ok=True)
    # Concurrent runs in one checkout share the build directory.
    with open(os.path.join(out_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out_dir, "--target", "perfbench",
                      "-j", str(BUILD_JOBS)])
        for cmd in steps:
            # Build chatter goes to stderr: stdout carries only the result.
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                print("perfbench: build step failed: " + " ".join(cmd), file=sys.stderr)
                return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out_dir = build_dir()
    if not build(out_dir):
        return 1

    cmd = [os.path.join(out_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run has already killed the child and waited for it.
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, IndexError):
        ok = False
    if not ok:
        sys.stderr.write(proc.stdout)
        print("perfbench: no result line (exit %d)" % proc.returncode, file=sys.stderr)
        return proc.returncode or 1
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
