#!/usr/bin/env python3
"""Builds and runs the repository benchmark described by BENCHMARK.json.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload serve-mutag --seed 1 --seconds 20 --trace 0

The first run configures and builds the library and graphhd_perfbench in
.bench_build/perfbench (Release); later runs only rebuild what changed.
Build output goes to stderr; the result JSON of graphhd_perfbench is the
last line of stdout, and its exit code is passed through.
"""

import argparse
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_DIR = os.path.join(".bench_build", "work")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "perfbench", "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "graphhd_perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "graphhd_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        sys.exit("perfbench: run from the root of a graphhd source checkout "
                 "(CMakeLists.txt and src/ not found)")
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit("perfbench: build failed: %s" % error)
    os.makedirs(WORK_DIR, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace, "--workdir", WORK_DIR]
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
