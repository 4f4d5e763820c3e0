#!/usr/bin/env python3
"""Steadiness report for repeated benchmark runs.

    python3 perfbench/steadiness.py OUT...            # report saved outputs
    python3 perfbench/steadiness.py --run --workloads ingest,search \\
        --seeds 1-10 --out DIR                        # run, save, report

Each OUT is the standard output of one `perfbench/run.py --trace 0` run
(its "perfbench-meta" line names the workload; its last line is the
result). For every (workload, end-to-end metric) pair the report prints
the median, the quartiles as statistics.quantiles(values, n=4) gives
them, and the spread (Q3 - Q1) / median as a share of the metric's bound
from BENCHMARK.json. A pair whose spread exceeds its bound is flagged
WIDE (setup_s too, although only its median is compared between
commits); one above a third of its bound is flagged tight. Exits 1 if any
pair is WIDE or any run failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def load_output(path):
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    meta = {}
    for line in lines:
        if line.startswith("perfbench-meta "):
            meta = json.loads(line[len("perfbench-meta "):])
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return meta, result


def run_all(bench, workloads, seeds, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for workload in workloads:
        for seed in seeds:
            path = os.path.join(out_dir, "%s-seed%d.out" % (workload, seed))
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            with open(path, "w") as f:
                done = subprocess.run(cmd, cwd=ROOT, stdout=f, timeout=900)
            print("ran %s seed %d: exit %d" % (workload, seed, done.returncode),
                  file=sys.stderr)
            paths.append(path)
    return paths


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outputs", nargs="*")
    parser.add_argument("--bench", default=os.path.join(ROOT, "BENCHMARK.json"))
    parser.add_argument("--run", action="store_true")
    parser.add_argument("--workloads")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", default=os.path.join(ROOT, ".bench_build",
                                                      "steadiness"))
    args = parser.parse_args()
    with open(args.bench) as f:
        bench = json.load(f)
    outputs = list(args.outputs)
    if args.run:
        workloads = (args.workloads.split(",") if args.workloads
                     else [w["name"] for w in bench["workloads"]])
        outputs += run_all(bench, workloads, parse_seeds(args.seeds), args.out)

    values = {}  # (workload, metric) -> [value]
    bad_runs = 0
    for path in outputs:
        meta, result = load_output(path)
        if result is None or not result.get("correct") or result.get("failed"):
            print("run failed or incorrect: %s" % path)
            bad_runs += 1
            if result is None:
                continue
        workload = meta.get("workload", "?")
        for name, metric in result["metrics"].items():
            values.setdefault((workload, name), []).append(metric["value"])

    bounds = {m["name"]: m for m in bench["end_to_end"]}
    order = [w["name"] for w in bench["workloads"]]
    wide = 0
    print("%-8s %-16s %3s %12s %12s %12s %8s %7s %s" % (
        "workload", "metric", "n", "median", "q1", "q3", "spread",
        "/bound", "flag"))
    for workload in order:
        for name, spec in bounds.items():
            vals = values.get((workload, name))
            if not vals:
                continue
            median = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = vals[0]
            spread = (q3 - q1) / median if median else float("inf")
            share = spread / spec["bound"]
            flag = ""
            if share > 1.0:
                flag = "WIDE"
                wide += 1
            elif share > 1.0 / 3.0:
                flag = "tight"
            print("%-8s %-16s %3d %12.5g %12.5g %12.5g %8.4f %7.3f %s" % (
                workload, name, len(vals), median, q1, q3, spread, share,
                flag))
    return 1 if wide or bad_runs else 0


if __name__ == "__main__":
    sys.exit(main())
