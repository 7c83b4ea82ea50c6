#!/usr/bin/env python3
"""Records one point of the flqd benchmark's trajectory.

    python3 scripts/bench_record.py --label pr17

Run it from anywhere inside a checkout. For every workload BENCHMARK.json
declares, seeds 1 to 5, it runs `python3 perfbench/run.py` at the
declared `run_seconds`, once with `--trace 0` (end-to-end metrics) and
once with `--trace 1` (per-layer costs). It writes BENCH_<label>.json at
the root of the checkout: for each workload, trace mode and metric, the
median, the first and third quartiles and the number of runs. It also
counts the runs that were not `correct` or had `failed` requests, and
exits non-zero when there is any.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3, 4, 5)
TRACES = (0, 1)


def run_once(workload, seed, seconds, trace):
    """One perfbench run; returns its result object, or None if it failed."""
    cmd = [
        sys.executable, os.path.join("perfbench", "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"  run failed (exit {done.returncode})", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def summary(values):
    """Median, quartiles and count of one metric's values."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def commit():
    """The checkout's commit, marked `-dirty` when tracked files changed."""
    done = subprocess.run(
        ["git", "describe", "--always", "--dirty"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    return done.stdout.strip() if done.returncode == 0 else None


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--label", required=True, help="names the output, BENCH_<label>.json")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    # values[workload][trace][metric] -> one value per good run
    values = {w: {f"trace {t}": {} for t in TRACES} for w in workloads}
    bad_runs = 0
    # Seeds outermost, so a slow spell of the machine spreads over every
    # workload instead of landing on one.
    for seed in SEEDS:
        for workload in workloads:
            for trace in TRACES:
                print(f"{workload} seed {seed} trace {trace}", file=sys.stderr)
                result = run_once(workload, seed, seconds, trace)
                if result is None or not result["correct"] or result["failed"] > 0:
                    bad_runs += 1
                    if result is None:
                        continue
                metrics = values[workload][f"trace {trace}"]
                for name, metric in result["metrics"].items():
                    metrics.setdefault(name, []).append(metric["value"])

    out = {
        "label": args.label,
        "commit": commit(),
        "command": bench["command"],
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "bad_runs": bad_runs,
        "workloads": {
            w: {
                mode: {name: summary(v) for name, v in metrics.items()}
                for mode, metrics in modes.items()
            }
            for w, modes in values.items()
        },
    }
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {path}; {bad_runs} bad run(s)", file=sys.stderr)
    sys.exit(1 if bad_runs else 0)


if __name__ == "__main__":
    main()
