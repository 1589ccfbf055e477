#!/usr/bin/env python3
"""Build the mtsim benchmark from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the checkout. The perfbench package (this directory)
is configured with CMake into .bench_build, which also compiles the
simulator library from ../src, and then the perfbench driver runs the
workload. Build output goes to standard error; the driver's standard
output is passed through, and its last line is the JSON result.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("workstation", "multiprocessor", "observed")


def build():
    """Configure once, then bring the driver up to date."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        rc = subprocess.run(cmd, stdout=sys.stderr).returncode
        if rc != 0:
            return rc
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr,
    ).returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    rc = build()
    if rc != 0:
        print("perfbench: build failed", file=sys.stderr)
        return rc
    cmd = [
        os.path.join(BUILD, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
    ]
    if args.trace == "1":
        cmd += ["--spans-out",
                os.path.join(BUILD, "spans-%s.json" % args.workload)]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
