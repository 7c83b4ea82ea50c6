#!/usr/bin/env python3
"""Runs one workload of the flqd benchmark and prints its result.

    python3 perfbench/run.py --workload warm --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. It builds `flqd` and the benchmark
driver (perfbench/src) from source with cargo, in $CARGO_TARGET_DIR
(default .bench_build), then runs the driver, whose last line of output
is one JSON object with the keys correct, attempted, failed and metrics.
The workloads are warm, variant, cold and disk (perfbench/src/workload.rs).
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("warm", "variant", "cold", "disk")
# A run measures for --seconds and spends a few more on set-up and checks;
# one still going after this long has hung.
RUN_TIMEOUT_S = 170


def build(args, env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
    # Cargo reports on stderr; stdout carries only the result.
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"error: `{' '.join(cmd)}` failed")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be at least 0 and --seconds at least 1")
    if not os.path.isdir(os.path.join(ROOT, "crates", "serve")):
        sys.exit("error: no flogic-lite workspace around perfbench/; run it from a checkout")

    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build(["--bin", "flqd"], env)
    # The driver is a workspace of its own; a target directory of its own
    # keeps the two workspaces from invalidating each other's builds.
    driver_target = os.path.join(target, "perfbench")
    build(["--manifest-path", os.path.join(HERE, "Cargo.toml"), "--target-dir", driver_target], env)

    driver = [
        os.path.join(driver_target, "release", "flqd-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--flqd", os.path.join(target, "release", "flqd"),
        "--work-dir", os.path.join(target, "perfbench-work"),
    ]
    # A process group of its own, so that stopping the driver also stops
    # every flqd it started.
    proc = subprocess.Popen(driver, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if code is None:
        sys.exit(f"error: the run did not end within {RUN_TIMEOUT_S} s")
    sys.exit(code if code >= 0 else 1)


if __name__ == "__main__":
    main()
