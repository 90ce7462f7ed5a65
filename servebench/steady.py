#!/usr/bin/env python3
"""Steadiness: run workloads repeatedly in fresh processes, print spread.

    python3 servebench/steady.py --runs 10 --seconds 20
    python3 servebench/steady.py --workloads zoo_failover --runs 5 --first-seed 100

Each run is one ``run.py`` invocation with its own seed (``first-seed``,
``first-seed + 1``, ...).  For every end-to-end metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median, beside the metric's bound from
``BENCHMARK.json``; a bound should be at least three times the spread.
It also prints each run's wall time and failed/attempted share.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*", default=names, choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            start = time.monotonic()
            done = subprocess.run(
                [
                    sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0",
                ],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200,
            )
            wall = time.monotonic() - start
            worst = max(worst, wall)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            result["wall_s"] = wall
            result["seed"] = seed
            runs.append(result)
            print(
                f"{workload} seed={seed} wall={wall:.1f}s correct={result['correct']} "
                f"failed={result['failed']}/{result['attempted']}",
                flush=True,
            )
        print(f"== {workload}: {len(runs)} runs")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            flag = "" if spread <= bound / 3 else ("  > bound/3" if spread <= bound else "  > BOUND")
            print(
                f"   {name:26s} median {median:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}"
                f"  spread {spread:7.4f}  bound {bound}{flag}"
            )
    print(f"slowest run: {worst:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
