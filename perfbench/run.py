#!/usr/bin/env python3
"""Benchmark entry point: builds the benchmark package, then runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to .bench_build (or
$CARGO_TARGET_DIR when set); build output goes to stderr, and the run's
last stdout line is its JSON result (see perfbench/README.md). Exits
nonzero without a result when the build or the run cannot happen.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cold-grid", "warm-mix", "sim-campaign", "router-warm")


def build(build_dir):
    """Configures once, then builds; returns the load tool's path or None."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j4",
                  "--target", "perfbench_load"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(build_dir, "perfbench_load")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    tool = build(build_dir)
    if tool is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    run_dir = os.path.join(build_dir, "perfbench-runs")
    os.makedirs(run_dir, exist_ok=True)
    sys.stdout.flush()
    # exec: the servers the tool starts die with it, whoever stops it.
    os.execv(tool, [tool, "--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", args.trace,
                    "--run-dir", run_dir])
    return 1


if __name__ == "__main__":
    sys.exit(main())
