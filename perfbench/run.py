#!/usr/bin/env python3
"""One run of the dwqa end-to-end benchmark.

    python3 perfbench/run.py --workload qa_live|serve_hot|dw_feed_bi \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (the program's libraries
from src/ plus dwqa_perfbench) into .bench_build/perfbench with CMake
on first use, then runs the workload in its own process. dwqa_perfbench's
stdout passes through; its last line is the result JSON. Exits non-zero
when the sources are missing, the build fails, or any answer fails its
check.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("qa_live", "serve_hot", "dw_feed_bi")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(root):
    source = os.path.join(root, "perfbench")
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    binary = os.path.join(build_dir, "dwqa_perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("program sources (src/) not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "dwqa_perfbench"])
    for step in steps:
        done = subprocess.run(step, cwd=root, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build step failed: " + " ".join(step))
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    binary = build(root)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload run exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.splitlines()
    if not lines:
        fail("workload printed nothing (exit code %d)" % done.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line is not JSON: " + lines[-1][:200])
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0 or not result.get("correct"):
        sys.exit(1)


if __name__ == "__main__":
    main()
