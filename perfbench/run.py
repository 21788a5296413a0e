#!/usr/bin/env python3
"""Build the EPP benchmark harness from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload serve|plan|calibrate --seed N \
        --seconds S --trace 0|1

The harness is built with CMake into .bench_build/perfbench (the first
run of a checkout compiles the libraries under src/, later runs only
re-check them). Build output goes to stderr; stdout carries the harness's
report, whose last line is one JSON object. A traced run also writes its
spans to .bench_build/traces/<workload>-seed<N>.jsonl.
"""
import argparse
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "epp_perfbench"
WORKLOADS = ("serve", "plan", "calibrate")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_step(command, timeout):
    """Runs a build step with its output on stderr; fails the run on error."""
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(map(str, command))}")
    if done.returncode != 0:
        fail(f"failed ({done.returncode}): {' '.join(map(str, command))}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no EPP sources under {ROOT / 'src'}; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").is_file():
        run_step(["cmake", "-S", ROOT / "perfbench", "-B", BUILD,
                  "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run_step(["cmake", "--build", BUILD, "--target", "epp_perfbench",
              "-j", jobs], BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    command = [str(BINARY), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               args.trace]
    if args.trace == "1":
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out",
                    str(traces / f"{args.workload}-seed{args.seed}.jsonl")]
    sys.stdout.flush()
    try:
        done = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the {args.workload} run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
