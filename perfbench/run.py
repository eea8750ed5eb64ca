#!/usr/bin/env python3
"""Builds and runs the end-to-end pipeline benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

The first call configures and builds perfbench/CMakeLists.txt (the
library sources plus the benchmark program) under $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls only rebuild what changed.
Build output goes to stderr. The program's stdout is passed through, so
the last stdout line is the benchmark's JSON result. The exit code is
the program's, or 1 when the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configures (once) and builds the program; returns its path or None."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "pipeline_bench",
                  "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(build_dir, "pipeline_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(os.path.join(os.path.abspath(build_root), "perfbench"))
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([binary, "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", args.trace]).returncode


if __name__ == "__main__":
    sys.exit(main())
