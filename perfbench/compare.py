#!/usr/bin/env python3
"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py OLD.jsonl NEW.jsonl [--benchmark BENCHMARK.json]

OLD and NEW are result files written by `run.py --out` (or `sweep.py`).
For each workload and metric it prints each side's median and quartiles
and the change of the median.  Every end-to-end metric gets a verdict
against its bound from BENCHMARK.json:

  regressed   worse by more than the bound
  improved    better by more than the bound
  unchanged   within the bound, and both sides' spreads are within it
  unresolved  a side's spread (quartile distance over median) is wider
              than the bound, so a move within it cannot be told from noise

With spreads wider than the bound, a side still counts as regressed or
improved when every one of its runs is worse (better) than every run of
the other.  Per-layer metrics are printed without a verdict.  The exit
code is 1 when any metric regressed or the share of failed operations
changed, else 0.
"""

import argparse
import json
import statistics
import sys


def load_benchmark(path):
    with open(path) as fh:
        return json.load(fh)


def load_runs(path):
    """{(workload, trace): [result, ...]} from a JSON-lines result file."""
    runs = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                tagged = json.loads(line)
                key = (tagged["workload"], tagged["trace"])
                runs.setdefault(key, []).append(tagged["result"])
    return runs


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def worse_share(old_med, new_med, better):
    """How much worse NEW's median is than OLD's, as a share of OLD's."""
    if old_med == 0:
        return 0.0 if new_med == 0 else float("inf")
    change = (new_med - old_med) / abs(old_med)
    return change if better == "lower" else -change


def classify(old, new, bound, better):
    """The verdict on one end-to-end metric (lists of per-run values)."""
    worse = worse_share(quartiles(old)[1], quartiles(new)[1], better)

    def beats(a, b):
        return a < b if better == "lower" else a > b

    if max(spread(old), spread(new)) > bound:
        if all(beats(n, o) for n in new for o in old):
            return "improved"
        if all(beats(o, n) for n in new for o in old):
            return "regressed"
        return "unresolved"
    if worse > bound:
        return "regressed"
    if -worse > bound:
        return "improved"
    return "unchanged"


def failed_share(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def fmt(v):
    return "%.6g" % v


def print_summary(runs, bench, trace=0):
    """One set of runs: median, quartiles and spread beside each bound."""
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for (workload, tr), results in sorted(runs.items()):
        if tr != trace:
            continue
        print("%s (%d runs, failed share %.6g)" % (workload, len(results), failed_share(results)))
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = quartiles(values)
            unit = results[0]["metrics"][name]["unit"]
            bound = bounds.get(name)
            note = "" if bound is None else "  bound %.3g%s" % (
                bound, "  OVER A THIRD" if spread(values) > bound / 3 else "")
            print("  %-32s %12s %-6s [%s, %s]  spread %.3f%s" % (
                name, fmt(med), unit, fmt(q1), fmt(q3), spread(values), note))


def compare(old_runs, new_runs, bench, out=sys.stdout):
    """Print the comparison; return the number of flagged problems."""
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    problems = 0
    for key in sorted(set(old_runs) | set(new_runs)):
        workload, trace = key
        old, new = old_runs.get(key), new_runs.get(key)
        if not old or not new:
            print("%s trace=%d: only on one side" % (workload, trace), file=out)
            continue
        print("%s%s (%d old runs, %d new runs)" % (
            workload, " [traced]" if trace else "", len(old), len(new)), file=out)
        fo, fn = failed_share(old), failed_share(new)
        if fo != fn:
            problems += 1
            print("  FAILED SHARE CHANGED: %.6g -> %.6g" % (fo, fn), file=out)
        for name in old[0]["metrics"]:
            if name not in new[0]["metrics"]:
                continue
            ov = [r["metrics"][name]["value"] for r in old]
            nv = [r["metrics"][name]["value"] for r in new]
            oq, nq = quartiles(ov), quartiles(nv)
            change = (nq[1] - oq[1]) / abs(oq[1]) if oq[1] else 0.0
            verdict = ""
            if name in e2e and not trace:
                m = e2e[name]
                verdict = classify(ov, nv, m["bound"], m["better"])
                if verdict == "regressed":
                    problems += 1
            print("  %-32s old %10s [%s, %s]  new %10s [%s, %s]  %+7.2f%%  %s" % (
                name, fmt(oq[1]), fmt(oq[0]), fmt(oq[2]), fmt(nq[1]), fmt(nq[0]),
                fmt(nq[2]), 100 * change, verdict.upper() if verdict == "regressed" else verdict),
                file=out)
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    args = ap.parse_args()
    bench = load_benchmark(args.benchmark)
    problems = compare(load_runs(args.old), load_runs(args.new), bench)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
