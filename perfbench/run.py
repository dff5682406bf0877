#!/usr/bin/env python3
"""Builds and runs the PerfXplain end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload explain-resident --seed 1 \
        --seconds 10 --trace 0

Workloads: explain-resident, explain-spill, ingest-live (see
perfbench/README.md). The benchmark is compiled from the checkout's
sources as a Release build under $CARGO_TARGET_DIR (default .bench_build)
before every run; an up-to-date build costs about a second. The last line
of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is the
full report. Build output goes to standard error.

    python3 perfbench/run.py --test

builds and runs the benchmark's own helper tests instead.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("explain-resident", "explain-spill", "ingest-live")
RUN_TIMEOUT_S = 170


def build_root():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(root)


def build(target):
    build_dir = os.path.join(build_root(), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", target, "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return None
    return build_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the helper tests")
    args = parser.parse_args()

    if args.test:
        build_dir = build("perfbench_tests")
        if build_dir is None:
            return 1
        return subprocess.run(
            [os.path.join(build_dir, "perfbench_tests")]).returncode

    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    build_dir = build("perfbench")
    if build_dir is None:
        return 1
    work_dir = os.path.join(build_root(), "work")
    os.makedirs(work_dir, exist_ok=True)
    command = [
        os.path.join(build_dir, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", work_dir,
    ]
    process = subprocess.Popen(command)
    try:
        return process.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    except BaseException:
        process.kill()
        process.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
