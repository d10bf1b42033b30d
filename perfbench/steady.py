#!/usr/bin/env python3
"""Steadiness check: runs workloads repeatedly and compares spreads to bounds.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]
                                [--workloads a,b] [--trace] [--out FILE]

Run it from the root of a checkout. Each run of a workload gets its own
seed (first-seed, first-seed + 1, ...). For every end-to-end metric it
prints the median, the quartiles (statistics.quantiles, n=4) and the
spread (Q3 - Q1) / median next to the metric's bound in BENCHMARK.json:
"steady" below a third of the bound, "within" below the bound, "WIDE"
otherwise. A run that fails its output check, or in which any operation
failed, stops the command: no operation fails on a working program, and a
failed operation drops out of the latency samples.

With --trace every seed is also run traced: the per-layer medians are
printed, and the tracing overhead as the traced run's end-to-end medians
minus the untraced run's. --out writes every run's end-to-end values as
JSON ({workload: {metric: [value per seed]}}).
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

LINE = re.compile(r"^\s+(\S+)\s+(-?[0-9.]+(?:e[-+]?\d+)?)\s+(\S+)$")


def run_once(bench, workload, seed, trace):
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: output check failed")
    if result["failed"] != 0:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of "
                 f"{result['attempted']} operations failed")
    # The report lines before the JSON carry every figure by name (the
    # traced run's end-to-end figures among them).
    printed = {}
    for line in lines[:-1]:
        m = LINE.match(line)
        if m:
            printed[m.group(1)] = float(m.group(2))
    return result, printed


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    worst = 0.0
    values = {}
    for workload in names:
        e2e = values[workload] = {m["name"]: [] for m in bench["end_to_end"]}
        layer = {m["name"]: [] for m in bench["per_layer"]}
        traced_e2e = {m["name"]: [] for m in bench["end_to_end"]}
        for i in range(args.runs):
            seed = args.first_seed + i
            result, _ = run_once(bench, workload, seed, 0)
            for name in e2e:
                e2e[name].append(result["metrics"][name]["value"])
            if args.trace:
                traced, printed = run_once(bench, workload, seed, 1)
                for name in layer:
                    layer[name].append(traced["metrics"][name]["value"])
                for name in traced_e2e:
                    traced_e2e[name].append(printed[name])
            print(f"  {workload} seed {seed} done", file=sys.stderr)
        print(f"\n{workload}: {args.runs} runs, no failed operation")
        print(f"  {'metric':<22} {'median':>12} {'Q1':>12} {'Q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for m in bench["end_to_end"]:
            med, q1, q3, spread = summarize(e2e[m["name"]])
            verdict = ("steady" if spread < m["bound"] / 3 else
                       "within" if spread <= m["bound"] else "WIDE")
            worst = max(worst, spread / m["bound"])
            print(f"  {m['name']:<22} {med:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{spread:8.4f} {m['bound']:6.2f} {verdict}")
        if args.trace:
            print("  per-layer medians (traced runs):")
            for m in bench["per_layer"]:
                med = statistics.median(layer[m["name"]])
                print(f"    {m['name']:<32} {med:14.4f} {m['unit']}")
            print("  tracing overhead (traced median - untraced median):")
            for m in bench["end_to_end"]:
                traced = statistics.median(traced_e2e[m["name"]])
                plain = statistics.median(e2e[m["name"]])
                print(f"    {m['name']:<22} {traced - plain:+12.4f} "
                      f"{m['unit']} ({(traced - plain) / plain:+.2%})")
    print(f"\nlargest spread / bound: {worst:.3f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(values, f, indent=1)


if __name__ == "__main__":
    main()
