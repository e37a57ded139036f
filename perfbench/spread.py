#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports, for each end-to-end
metric, the median and the spread (distance between the first and third
quartile, as a share of the median) next to the metric's bound.

Usage, from the repository root:

    python3 perfbench/spread.py --workload NAME [--seeds 1,2,3,...] [--trace 0|1]

Runs are sequential, never concurrent, so they do not disturb each other.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"seed {seed}: exit {out.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"seed {seed}: incorrect result")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    runs = []
    for seed in [int(s) for s in args.seeds.split(",")]:
        values = run_once(args.workload, seed, bench["run_seconds"], args.trace)
        runs.append(values)
        print(f"seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in values.items()), flush=True)
    print(f"\n{'metric':<34} {'median':>14} {'spread':>8} {'bound':>7}")
    for name, bound in bounds.items():
        values = [r[name] for r in runs]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else float("nan")
        shown = "-" if bound is None else f"{bound:.3f}"
        flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
        print(f"{name:<34} {med:>14.6g} {spread:>8.4f} {shown:>7}{flag}")


if __name__ == "__main__":
    main()
