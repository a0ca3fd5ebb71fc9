#!/usr/bin/env python3
"""Record a result set: every workload on ten seeds, plus one traced run each.

    python3 perfbench/baseline.py --out perfbench/baseline/<name>.json

Runs `run.py` as a subprocess, the way it is run in a fresh checkout, one
run at a time. For each end-to-end metric it stores the ten values, their
median, and the spread: the distance between the first and third quartiles
(`statistics.quantiles(values, n=4)`) as a share of the median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    elapsed = time.perf_counter() - t0
    if done.returncode != 0:
        raise SystemExit("%s failed (%d):\n%s" % (" ".join(cmd),
                                                  done.returncode,
                                                  done.stderr[-4000:]))
    lines = done.stdout.strip().splitlines()
    context = json.loads(lines[-2][len("context "):])
    return {"seed": seed, "trace": trace, "run_elapsed_s": elapsed,
            "context": context, "result": json.loads(lines[-1])}


def summarize(runs):
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": median,
                     "spread": (q3 - q1) / median if median else 0.0,
                     "values": values}
    return out


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    seeds = range(1, 11)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"command": spec["command"], "run_seconds": seconds,
              "workloads": {}}
    for workload in WORKLOADS:
        runs = []
        for seed in seeds:
            runs.append(one_run(workload, seed, seconds, 0))
            print(workload, seed, runs[-1]["result"]["metrics"]["wall_s"],
                  flush=True)
        summary = summarize(runs)
        for name, s in summary.items():
            print("  %-14s median %.6g spread %.4f (bound %s)" % (
                name, s["median"], s["spread"], bounds[name]), flush=True)
        failed = sum(r["result"]["failed"] for r in runs)
        attempted = sum(r["result"]["attempted"] for r in runs)
        print("  %-14s %.6g (%d of %d operations failed)" % (
            "error_rate", failed / attempted, failed, attempted), flush=True)
        traced = one_run(workload, seeds[0], seconds, 1)
        report["workloads"][workload] = {"end_to_end": summary,
                                         "runs": runs, "traced": traced}
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
