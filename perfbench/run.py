#!/usr/bin/env python3
"""Builds the perfbench binary from this checkout's sources and runs it.

Run from the root of a checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-test

An untraced run splits its seconds over PROCESSES sequential processes of
the binary, each building the same inputs from the same seed, and merges
what they measured: on a shared host one process's speed varies by tens of
percent with where it lands, and a run that averages several processes
repeats far better (README.md, "Steadiness"). A traced run is one process. The last line of
standard output is the JSON result; build output and progress go to
standard error.

The build goes to $CARGO_TARGET_DIR/perfbench when that variable is set
(a relative value is taken from the checkout root), else to
.bench_build/perfbench. A traced run leaves its spans there.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("service_longtail", "skewed_acyclic", "output_heavy")
PROCESSES = 6
# A process runs its share of --seconds plus set-up, warm-up and checks,
# which take well under this margin; the timeout only guards a hung run.
PROCESS_MARGIN_S = 60


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def configured_source(cache):
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith("CMAKE_HOME_DIRECTORY:"):
            return Path(line.split("=", 1)[1])
    return None


def build():
    if not (ROOT / "src").is_dir():
        fail(f"no library sources at {ROOT / 'src'}; run from a full checkout")
    out = build_dir()
    cache = out / "CMakeCache.txt"
    if cache.exists() and configured_source(cache) != HERE:
        shutil.rmtree(out)  # configured for another checkout
    # Keep the compiler's temporary files inside the build tree too.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not cache.exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    build_cmd = ["cmake", "--build", str(out), "-j", jobs]
    if subprocess.run(build_cmd, stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed")
    return out


def run_process(command, out, timeout):
    try:
        done = subprocess.run(command, cwd=out, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"a process did not end within {timeout:.0f} s")  # killed and reaped
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{' '.join(command)} exited with {done.returncode}")
    return json.loads(lines[-1])


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def call_latency(parts):
    """query_ms_p50 and query_ms_p90 of one run.

    The samples are kept apart by call type, because the types differ in
    cost by up to 6x. The median is taken within each type, over the
    samples of every process, and the types' medians are combined by
    geometric mean, so each type weighs alike whatever its cost. The tail
    is that typical time times the 90th percentile of every call's time
    over its own type's median, pooled over the types, so that it rests on
    all of a run's calls.
    """
    medians, ratios = [], []
    for t in range(len(parts[0]["call_ms"])):
        samples = [x for p in parts for x in p["call_ms"][t]]
        if not samples:
            fail(f"call type {t} has no timed samples")
        median = statistics.median(samples)
        medians.append(median)
        ratios += [x / median for x in samples]
    typical = math.exp(statistics.fmean(math.log(m) for m in medians))
    return typical, typical * percentile(ratios, 0.9)


def layer_units():
    """The per-layer metrics' units by name, in BENCHMARK.json's order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def merge(parts, trace):
    """The reported result of one run, from its processes' raw results."""
    correct = all(p["correct"] for p in parts)
    # The processes build identical inputs, so their simulated figures must
    # agree exactly: the model is deterministic.
    for key in ("seed_max_load", "seed_rounds"):
        if len({p[key] for p in parts}) != 1:
            print(f"perfbench/run.py: {key} differs between processes", file=sys.stderr)
            correct = False
    if trace:
        units = layer_units()
        layers = parts[0]["layers"]
        if set(layers) != set(units):
            fail(f"per-layer metrics differ from BENCHMARK.json: "
                 f"{sorted(set(layers) ^ set(units))}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in units.items()}
    else:
        final = parts[-1]  # it measured the reference inputs' figures
        p50, p90 = call_latency(parts)
        metrics = {
            "queries_per_s": (sum(p["completed"] for p in parts) /
                              sum(p["timed_s"] for p in parts), "1/s"),
            "query_ms_p50": (p50, "ms"),
            "query_ms_p90": (p90, "ms"),
            "setup_s": (statistics.median(p["setup_s"] for p in parts), "s"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mib"] for p in parts), "MiB"),
            "sim_max_load": (final["sim_max_load"], "tuples"),
            "sim_rounds": (final["sim_rounds"], "rounds"),
        }
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    return {"correct": correct,
            "attempted": sum(p["attempted"] for p in parts),
            "failed": sum(p["failed"] for p in parts),
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="show that a wrong reference count is counted as a failed operation")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    out = build()
    binary = str(out / "perfbench")
    if args.self_test:
        return subprocess.run([binary, "--self-test"], cwd=out).returncode
    processes = 1 if args.trace else PROCESSES
    seconds = args.seconds / processes
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(seconds), "--trace", str(args.trace)]
    # Every process checks its own timed operations; the last one also runs
    # the checks against the sequential oracle on the (identical) inputs and
    # measures the sim_* figures on the reference inputs.
    parts = [run_process(command + ["--final", "1" if k + 1 == processes else "0"], out,
                         seconds + PROCESS_MARGIN_S)
             for k in range(processes)]
    print(json.dumps(merge(parts, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
