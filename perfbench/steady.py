#!/usr/bin/env python3
"""Steadiness check for the end-to-end profiling benchmark.

Runs every workload once per seed with tracing off and prints, for each
end-to-end metric, the median, the quartiles and the spread (quartile
distance / median) against the metric's bound in BENCHMARK.json:

  python3 perfbench/steady.py [--runs 10] [--workloads records,events,fleet]

Run i uses seed i; each run measures for BENCHMARK.json's run_seconds.
"steady" means spread < bound / 3. Exits 1 when a spread exceeds its
bound or a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        return None
    result = json.loads(lines[-1])
    return result if result.get("correct") else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in bench["workloads"]])

    ok = True
    for workload in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(1, args.runs + 1):
            result = run_once(workload, seed, seconds)
            if result is None:
                print(f"{workload}: run with seed {seed} failed or was "
                      "incorrect")
                ok = False
                continue
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"== {workload} ({args.runs} runs of {seconds} s)")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            vals = values[name]
            if len(vals) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("inf")
            verdict = ("steady" if spread < bound / 3 else
                       "within bound" if spread <= bound else "UNSTEADY")
            if verdict == "UNSTEADY":
                ok = False
            print(f"  {name:15s} median {med:<12.6g} {metric['unit']:5s} "
                  f"q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:6.3f} "
                  f"bound {bound:4.2f}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
