#!/usr/bin/env python3
"""Steadiness check for the EPP benchmark.

Runs each workload repeatedly through perfbench/run.py, each run with its
own seed, and prints per end-to-end metric the median, the quartiles and
the spread (interquartile range over median) against the metric's bound
in BENCHMARK.json. A spread under a third of the bound is "steady".
With --trace-runs K it also makes K traced runs per workload and checks
that the exact counters repeat exactly.

Usage, from the root of a checkout:

    python3 perfbench/steady.py [--runs 10] [--workloads plan,calibrate]
        [--trace-runs 2]

Run k of a workload uses seed k, so untraced runs use seeds 1..runs and
traced runs seeds 1..trace-runs.

Exits 1 when a run fails, reports an incorrect output, a spread exceeds
its bound or an exact counter differs between runs.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Per-layer counters that count work, not time: every run of a workload
# must report the same value whatever its seed. serve's counts depend on
# how many requests fit in the run, so it has none.
EXACT = {
    "plan": ["svc.cache_hits", "svc.cache_misses", "svc.failed_cells",
             "lqn.iterations_mean", "lqn.iterations_max",
             "lqn.diverged_cells", "rm.evals_per_decision",
             "rm.failed_probes", "rm.probes", "rm.plain_diverged"],
    "calibrate": ["sim.completions"],
    "serve": [],
}


def run_once(workload, seed, trace):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(done.stdout)
        raise RuntimeError(f"{workload} seed {seed}: incorrect output")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--trace-runs", type=int, default=0)
    args = parser.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        seeds = range(1, args.runs + 1)
        values = {m["name"]: [] for m in SPEC["end_to_end"]}
        failed = attempted = 0
        for seed in seeds:
            result = run_once(workload, seed, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}: {args.runs} runs, seeds {seeds.start}.."
              f"{seeds.stop - 1}; {failed} of {attempted} operations failed")
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            q1, median, q3 = statistics.quantiles(values[name], n=4)
            spread = (q3 - q1) / median
            verdict = ("steady" if spread < bound / 3 else
                       "within bound" if spread <= bound else "TOO NOISY")
            ok = ok and spread <= bound
            print(f"  {name:12s} median {median:12.6g} {metric['unit']:5s} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.2%} "
                  f"bound {bound:.0%}  {verdict}")

        if args.trace_runs > 0:
            traced = [run_once(workload, seed, 1)["metrics"]
                      for seed in range(1, args.trace_runs + 1)]
            for name in EXACT[workload]:
                seen = {t[name]["value"] for t in traced}
                same = len(seen) == 1
                ok = ok and same
                print(f"  exact {name:24s} "
                      f"{'identical' if same else 'DIFFERS'}: {sorted(seen)}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
