#!/usr/bin/env python3
"""Compare two result sets of the benchmark, metric by metric.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl [--bench BENCHMARK.json]

A result set is the JSON-lines file perfbench/sweep.py writes. For every
workload and every metric of BENCHMARK.json, prints each side's median and
quartiles and the ratio of the medians (new / base). The verdict is
"unresolved" when either side's own quartile spread, as a share of its
median, exceeds the metric's bound; otherwise "worse" when the new median is
worse than the base by more than the bound, else "ok". Metrics without a
bound (per-layer) get no verdict.
"""

import argparse
import json
import statistics


def load_set(path):
    runs = []
    with open(path) as f:
        for line in f:
            if line.strip():
                runs.append(json.loads(line))
    return runs


def summarize(runs):
    values = {}
    for r in runs:
        for name, m in r["result"]["metrics"].items():
            values.setdefault((r["workload"], name), []).append(m["value"])
    out = {}
    for key, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = (statistics.quantiles(vs, n=4) if len(vs) > 1
                     else (vs[0], vs[0], vs[0]))
        out[key] = {"median": med, "q1": q1, "q3": q3, "n": len(vs),
                    "spread": (q3 - q1) / abs(med) if med else 0.0}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--bench", default="BENCHMARK.json")
    args = ap.parse_args()
    with open(args.bench) as f:
        bench = json.load(f)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    a = summarize(load_set(args.base))
    b = summarize(load_set(args.new))
    print("%-11s %-30s %12s %25s %12s %25s %8s  %s" % (
        "workload", "metric", "base med", "base q1..q3", "new med",
        "new q1..q3", "ratio", "verdict"))
    for w in [x["name"] for x in bench["workloads"]]:
        for name, spec in specs.items():
            if (w, name) not in a or (w, name) not in b:
                continue
            sa, sb = a[(w, name)], b[(w, name)]
            ratio = sb["median"] / sa["median"] if sa["median"] else float("nan")
            verdict = ""
            bound = spec.get("bound")
            if bound is not None:
                if sa["spread"] > bound or sb["spread"] > bound:
                    verdict = "unresolved"
                else:
                    worse = (ratio - 1.0 if spec["better"] == "lower"
                             else 1.0 - ratio)
                    verdict = "worse" if worse > bound else "ok"
            print("%-11s %-30s %12.6g %12.6g..%-12.6g %12.6g %12.6g..%-12.6g"
                  " %8.4f  %s" % (w, name, sa["median"], sa["q1"], sa["q3"],
                                 sb["median"], sb["q1"], sb["q3"], ratio,
                                 verdict))


if __name__ == "__main__":
    main()
