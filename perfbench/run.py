#!/usr/bin/env python3
"""Builds the AIM benchmark program from this checkout and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) and the durable
workload's data directory to $CARGO_TARGET_DIR/data, both inside the
checkout. Build output goes to stderr; the program's report goes to stdout
and ends with one JSON line (see README.md).
"""

import argparse
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    for needed in ("CMakeLists.txt", "src/aim", "perfbench/CMakeLists.txt"):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"{needed} not found: run from the root of an AIM checkout")

    out_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(out_root, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", build,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "--target", "aim_perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out", 3)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}", 3)

    binary = os.path.join(build, "aim_perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", os.path.join(out_root, "data")]
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out", 4)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
