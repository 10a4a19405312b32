#!/usr/bin/env python3
"""Run the benchmark over several seeds and collect one result set.

    python3 perfbench/sweep.py --out A.jsonl --seeds 1-10 [--workloads tree-mem,net-wal] [--trace 0]

Each run appends one JSON line {"workload", "seed", "trace", "result"} to
--out, and the end prints, per workload and metric, the median, the
quartiles and the quartile spread as a share of the median.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from compare import load_set, summarize  # noqa: E402


def seeds_of(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    for w in workloads:
        for seed in seeds_of(args.seeds):
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]),
                "--trace", str(args.trace)]
            run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if run.returncode != 0:
                sys.exit("run failed: %s seed %d" % (w, seed))
            result = json.loads(run.stdout.strip().splitlines()[-1])
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": w, "seed": seed,
                                    "trace": args.trace,
                                    "result": result}) + "\n")
            print("%s seed %d: attempted %d failed %d" %
                  (w, seed, result["attempted"], result["failed"]),
                  file=sys.stderr)
    for (w, metric), s in sorted(summarize(load_set(args.out)).items()):
        print("%-11s %-16s median %-14.6g q1 %-14.6g q3 %-14.6g spread %.4f"
              % (w, metric, s["median"], s["q1"], s["q3"], s["spread"]))


if __name__ == "__main__":
    main()
