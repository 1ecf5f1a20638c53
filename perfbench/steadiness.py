#!/usr/bin/env python3
"""Run-to-run spread of the dwqa benchmark's end-to-end metrics.

    python3 perfbench/steadiness.py --runs 10 [--first-seed 1]
        [--workloads qa_live,serve_hot,dw_feed_bi] [--seconds 10]
        [--out results.json]

Runs each workload --runs times, serially, each with its own seed, and
prints per metric the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the quartile spread as a share of
the median, next to the metric's bound from BENCHMARK.json. A metric is
steady when its spread is below a third of its bound.
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
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError("%s seed %d failed:\n%s" %
                           (workload, seed, done.stdout[-2000:]))
    result = json.loads(done.stdout.splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]

    report = {}
    for workload in workloads:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            for name, value in run_once(workload, seed, seconds).items():
                values.setdefault(name, []).append(value)
        report[workload] = {}
        print("== %s (%d runs, seeds %d..%d)" %
              (workload, args.runs, args.first_seed,
               args.first_seed + args.runs - 1))
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            bound = bounds.get(name, 0)
            steady = spread < bound / 3
            report[workload][name] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread,
                "bound": bound, "values": vals}
            print("  %-22s median %12.4f  q1 %12.4f  q3 %12.4f  "
                  "spread %6.2f%%  bound %4.0f%%  %s" %
                  (name, median, q1, q3, 100 * spread, 100 * bound,
                   "steady" if steady else "NOT STEADY"))
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
