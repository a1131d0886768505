#!/usr/bin/env python3
"""Builds the host-time benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload gcc_live --seed 1 --seconds 10 --trace 0

The build goes to .bench_build/perfbench (Release, so NDEBUG). A traced run
(--trace 1) also writes its spans to .bench_build/spans/. The last line of
standard output is the benchmark's JSON result; build output goes to
standard error. --wrong-reference 1 is for the benchmark's own test: it
corrupts the expected output so the run must count a failure.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SPANS_DIR = os.path.join(ROOT, ".bench_build", "spans")
BINARY = os.path.join(BUILD_DIR, "perfbench")

# Build plus one run must end well inside the caller's limits (900 s for
# the first, building run; 180 s for any other); a run that hangs is killed
# and reported as a failure.
BUILD_TIMEOUT_S = 840
RUN_OVERHEAD_S = 120


def build():
    """Configures (once) and builds the benchmark; returns True on success."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("error: simulator sources not found under " +
              os.path.join(ROOT, "src"), file=sys.stderr)
        return False
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            print("error: %s: %s" % (" ".join(cmd), err), file=sys.stderr)
            return False
        if done.returncode != 0:
            print("error: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--wrong-reference", type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        parser.error("--seed must be >= 0 and --seconds in [1, 3600]")

    if not build():
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.wrong_reference is not None:
        cmd += ["--wrong-reference", str(args.wrong_reference)]
    if args.trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        cmd += ["--spans", os.path.join(
            SPANS_DIR, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, timeout=args.seconds + RUN_OVERHEAD_S)
    except subprocess.TimeoutExpired:
        print("error: benchmark run timed out", file=sys.stderr)
        return 1
    return done.returncode if done.returncode >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
