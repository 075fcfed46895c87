#!/usr/bin/env python3
"""Builds bench_e2e from source, then runs it with the given arguments.

Run from the repository root, for example:

    python3 bench/e2e/run.py --workload population_steady --seed 1 --seconds 10 --trace 0

The Release build goes to .bench_build/e2e under the repository root and is
incremental, so only the first run pays for it. Build output goes to standard
error; standard output is the benchmark's own, whose last line is the JSON
result. The exit code is the build's when it fails, else the benchmark's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        rc = subprocess.call(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr)
        if rc != 0:
            return rc
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.call(
        ["cmake", "--build", BUILD, "--target", "bench_e2e", "-j", jobs],
        stdout=sys.stderr)


def main():
    rc = build()
    if rc != 0:
        print("bench_e2e: build failed", file=sys.stderr)
        return rc
    return subprocess.call([os.path.join(BUILD, "bench_e2e")] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
