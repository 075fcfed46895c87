#!/usr/bin/env python3
"""Measures two interleaved sets of runs of every workload and writes the
medians and quartiles of each end-to-end metric as a baseline file.

    python3 bench/e2e/baseline.py --runs 5 --out bench/e2e/BASELINE.json \
        [--seed 1] [--seconds S] [--save-dir DIR]

Run from the repository root. The workloads and the default run length come
from BENCHMARK.json. Each round runs set A then set B for every workload, so
both sets see the same host conditions. With --save-dir, every run's output
is kept as DIR/<set>.<workload>.<round>.out, the input that
`bench_e2e --diff` compares.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_once(workload, seed, seconds):
    # The stationarity guard: a run reports the drift between the halves of
    # its stream, and a committed baseline must hold it under 10%. A slowdown
    # of the host during one half also drifts, so a drifting run is repeated
    # up to twice; a workload that drifts three times in a row fails.
    for attempt in range(3):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if out.returncode != 0 or not result["correct"]:
            sys.exit(f"{workload} seed {seed}: run failed")
        drift = re.search(r"^# stationarity: .*\(([0-9.]+)%\)$", out.stdout, re.M)
        if not drift or float(drift.group(1)) < 10:
            return out.stdout, result
        print(f"{workload} seed {seed}: not stationary, attempt {attempt + 1}: "
              f"{drift.group(0)}", file=sys.stderr)
    sys.exit(f"{workload} seed {seed}: not stationary in three runs")


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "values": values}


def git_sha():
    try:
        sha = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                             stdout=subprocess.PIPE, text=True, check=True)
        return sha.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    p.add_argument("--out", required=True)
    p.add_argument("--save-dir")
    args = p.parse_args()

    values = {s: {w: {} for w in WORKLOADS} for s in "AB"}
    for r in range(args.runs):
        for s in "AB":
            for w in WORKLOADS:
                text, result = run_once(w, args.seed, args.seconds)
                if args.save_dir:
                    os.makedirs(args.save_dir, exist_ok=True)
                    with open(os.path.join(args.save_dir, f"{s}.{w}.{r}.out"), "w") as f:
                        f.write(text)
                for name, m in result["metrics"].items():
                    values[s][w].setdefault(name, []).append(m["value"])
                print(f"round {r} set {s} {w} done", file=sys.stderr)

    doc = {
        "git": git_sha(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "build_type": "Release",
        "seed": args.seed,
        "seconds": args.seconds,
        "runs_per_set": args.runs,
        "sets": {s: {w: {name: summary(v) for name, v in ms.items()}
                     for w, ms in values[s].items()} for s in "AB"},
    }
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
