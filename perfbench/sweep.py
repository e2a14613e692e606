#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads a,b] [--trace 0|1]
                               [--seconds S] --out FILE

Calls run.py once per workload and seed, one run at a time, appending each
tagged result to FILE (JSON lines), then prints per workload and metric
the median, the quartiles and the spread (quartile distance over the
median) beside the metric's bound from BENCHMARK.json.  This is the
command that regenerates the reference figures in README.md.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    bench = compare.load_benchmark("BENCHMARK.json")
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    for workload in args.workloads.split(","):
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", args.trace, "--out", args.out]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            print("%-20s seed %3d exit %d %s" % (workload, seed, proc.returncode, last[:120]),
                  flush=True)
    runs = compare.load_runs(args.out)
    compare.print_summary(runs, bench, trace=int(args.trace))


if __name__ == "__main__":
    main()
