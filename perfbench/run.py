#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload tree-mem --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The benchmark is built with dune into the
checkout's own _build directory (dune's shared cache is turned off so that
nothing is written outside the checkout), then run; the last line of its
standard output is the JSON result. Extra flags (--corrupt-model) are passed
through to the benchmark program.

Every workload but tree-paged runs one client, and runs on one CPU: the
process is pinned to the last CPU it may use. The network workloads then
hand each batch between client and server with a switch on that CPU, not
with a wake-up of another CPU, whose delay on a shared virtual machine
moves with the host's load. tree-paged runs two worker domains and keeps
every CPU.
"""

import argparse
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
ALL_CPUS = {"tree-paged"}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-model", action="store_true")
    args = ap.parse_args()

    # The program under test lives beside the benchmark; without it there
    # is nothing to measure.
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail("run from the repository root: %s is missing" % need)

    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet",
             "./perfbench/main.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if build.returncode != 0:
        fail("build failed (dune exit %d)" % build.returncode)

    if args.workload not in ALL_CPUS and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.corrupt_model:
        cmd.append("--corrupt-model")
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines or not lines[-1].startswith("{"):
        if run.stdout:
            sys.stderr.write(run.stdout)
        fail("benchmark failed (exit %d)" % run.returncode)
    print(lines[-1])


if __name__ == "__main__":
    main()
