#!/usr/bin/env python3
"""Checks how steady the benchmark's end-to-end metrics are across seeds.

Usage (from the repository root):

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] \
        [--workload NAME ...] [--trace 0|1]

For every workload in BENCHMARK.json (or the ones named), runs
perfbench/run.py once per seed, then prints for each metric the median and
the spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median. With --trace 0 each
spread is compared against its bound from BENCHMARK.json: "ok" below a
third of the bound, "WIDE" within the bound, "FAIL" above it (setup_s is
exempt). Exits 1 if any run fails or any spread is above its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(config, workload, seed, trace):
    command = config["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(config["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise RuntimeError(f"{workload} seed {seed}: incorrect run")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        config = json.load(f)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    workloads = args.workload or [w["name"] for w in config["workloads"]]

    worst = "ok"
    for workload in workloads:
        runs = [run_once(config, workload, seed, args.trace)
                for seed in range(args.first_seed,
                                  args.first_seed + args.runs)]
        print(f"== {workload} ({args.runs} seeds)")
        for name in runs[0]:
            values = [r[name] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            verdict = ""
            if args.trace == 0 and name in bounds and name != "setup_s":
                if spread < bounds[name] / 3:
                    verdict = "ok"
                elif spread <= bounds[name]:
                    verdict = "WIDE"
                else:
                    verdict = "FAIL"
                if verdict == "FAIL" or (verdict == "WIDE" and worst == "ok"):
                    worst = verdict
            print(f"  {name:34s} median {med:<14.6g} spread {spread:8.4f}"
                  f"  {verdict}")
    print(f"overall: {worst}")
    return 1 if worst == "FAIL" else 0


if __name__ == "__main__":
    sys.exit(main())
