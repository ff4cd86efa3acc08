#!/usr/bin/env python3
"""Measures how steady the benchmark is, the way its bounds are judged.

Run from the root of a checkout:

  python3 perfbench/steadiness.py [--workload NAME ...]

For each workload it makes SETS sets of RUNS whole-process runs of the
command in BENCHMARK.json, every run with its own seed (set k uses seeds
k*1000+1 ... k*1000+RUNS). For each end-to-end metric it prints, per set,
the median, the quartiles (statistics.quantiles(values, n=4)) and the
spread, (Q3 - Q1) / median. It then says whether each spread stays within
the metric's bound, marks spreads above a third of it (except setup_s's,
which is set up several times per run and given the largest bound),
whether every later set's median is no worse than the first set's by more
than the bound, and whether the share of failed operations is the same in
every set. Exit status 0 when all of that holds.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
SETS = 2


def run_once(spec, workload, seed, seconds):
    command = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = time.monotonic() - start
    return result


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread


def worse_by(metric, first, later):
    """Relative worsening of `later` against `first` (negative = better)."""
    if first == 0:
        return 0.0 if later == first else float("inf")
    change = (later - first) / first
    return change if metric["better"] == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    for workload in workloads:
        sets = []
        for k in range(SETS):
            runs = []
            for i in range(RUNS):
                runs.append(run_once(spec, workload, k * 1000 + i + 1, seconds))
                print(f"  {workload} set {k + 1} run {i + 1}: {runs[-1]['wall_s']:.1f} s",
                      file=sys.stderr)
            sets.append(runs)
        print(f"\n== {workload}: {SETS} sets x {RUNS} runs, {seconds} s each")
        shares = {sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in sets}
        correct = all(r["correct"] for runs in sets for r in runs)
        print(f"   correct in every run: {correct}; failed share per set: {sorted(shares)}")
        ok &= correct and len(shares) == 1
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            line = f"   {name:14s}"
            first_median = None
            for k, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs]
                median, q1, q3, spread = summarize(values)
                line += f" | set{k + 1} med {median:.5g} q1 {q1:.5g} q3 {q3:.5g} spread {spread:.3f}"
                ok &= spread <= bound
                if name != "setup_s" and spread > bound / 3:
                    line += " (> bound/3)"
                if first_median is None:
                    first_median = median
                else:
                    drift = worse_by(metric, first_median, median)
                    line += f" worse {drift:+.3f}"
                    ok &= drift <= bound
            print(line + f" | bound {bound}")
    print("\nsteady within every bound" if ok else "\nNOT steady within the bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
