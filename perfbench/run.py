#!/usr/bin/env python3
"""Build perfbench from source and run one workload.

    python3 perfbench/run.py --workload tree-read --seed 1 --seconds 20 --trace 0

Run from the repository root. The benchmark is configured and built with
CMake into .bench_build/perfbench (build output goes to stderr), then run
with the same arguments; its report and final JSON line go to stdout.
Exits non-zero, without a result, when the library sources are missing,
the build fails, or the run does not end in time.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
WORKLOADS = ("tree-read", "batch-write", "bank-open")
BUILD_TIMEOUT_S = 840
# A run plans --seconds of measurement plus a few seconds of set-up and
# checks; past this it is stuck, even for the watchdog inside the binary.
RUN_SLACK_S = 60


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.exists(os.path.join(ROOT, "core", "rhtm.h")):
        fail("library headers (core/rhtm.h) not found next to perfbench/")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SRC, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "2"])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if rc != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(BUILD, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in [1, 60]")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", TRACE_DIR]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run did not end in time; killed", 3)
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"benchmark exited with code {proc.returncode}", proc.returncode)
    try:
        json.loads(lines[-1])
    except ValueError:
        fail("benchmark did not end with a JSON result", 3)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
