#!/usr/bin/env python3
"""Builds and runs the system-level benchmark of the FaaSFlow simulator.

    python3 sysbench/run.py --workload montage2k-contended --seed 1 \
        --seconds 40 --trace 0

Run from the repository root. The first run configures and builds the
`sysbench` package (this directory, which compiles ../src) as a Release
build in $CARGO_TARGET_DIR, or .bench_build when that is unset; later runs
rebuild incrementally. The last line of stdout is the benchmark's JSON
result. Exits non-zero, without a result, when the build fails, and
non-zero after the result when an output check failed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("montage2k-contended", "montage2k-wide", "paper-ctl")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures and builds the sysbench target; build logs go to stderr
    so stdout stays the benchmark's own."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "sysbench",
              "-j", jobs]]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("error: build step failed: " + " ".join(step))
    return os.path.join(build_dir, "sysbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for checking the harness")
    args = parser.parse_args()

    binary = build(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        command.append("--smoke")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"error: benchmark exceeded {RUN_TIMEOUT_S} s")

    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        sys.stdout.write(done.stdout)
        sys.exit(f"error: no result line (exit status {done.returncode})")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
