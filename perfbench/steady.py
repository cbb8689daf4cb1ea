#!/usr/bin/env python3
"""Steadiness mode: runs the benchmark N times per workload and summarises.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--trace 0]
                                [--workload NAME ...] [--seconds S]

Run from the repository root. Each run takes the next seed. For every
metric it prints the median, the quartiles (statistics.quantiles, n=4)
and the spread (q3 - q1) / median, and compares the spread with a third
of the metric's bound in BENCHMARK.json — the margin the bounds were set
to keep. Every run's raw result line is appended to --log when given.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def summarise(values):
    """(median, q1, q3, spread) of a list of at least two numbers."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}\n"
                           f"{done.stderr[-2000:]}")
    return lines


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--log", help="append every run's output lines here")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    worst = 0.0
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        results = []
        for k in range(args.runs):
            seed = args.first_seed + k
            lines = run_once(workload, seed, args.seconds, args.trace)
            if args.log:
                with open(args.log, "a") as log:
                    log.write(f"# {workload} seed {seed}\n" + "\n".join(lines) + "\n")
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: INCORRECT {lines[-1]}")
            results.append(result)
        print(f"\n{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, {args.seconds:g} s each")
        print(f"  {'metric':34} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound/3':>8}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            if len(values) < 2:
                continue
            median, q1, q3, spread = summarise(values)
            bound = bounds.get(name)
            margin = f"{bound / 3:8.4f}" if bound is not None else "       -"
            flag = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
                flag = "  OVER" if spread > bound / 3 else ""
            print(f"  {name + ' (' + unit + ')':34} {median:14.6g} {q1:14.6g} "
                  f"{q3:14.6g} {spread:8.4f} {margin}{flag}")
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"  failed {failed} of {attempted} attempted")
    if args.trace == 0:
        print(f"\nlargest spread / bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
