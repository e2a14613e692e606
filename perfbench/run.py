#!/usr/bin/env python3
"""Run one HyQSAT benchmark workload and print its result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Run from the root of a checkout.  Builds the benchmark runner and the
`hyqsat` CLI (whose `serve` daemon one workload drives) with dune, then
runs the workload.  The last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`.  `--out`
also appends that object, tagged with workload, seed and trace, to FILE
(JSON lines; `compare.py` and `sweep.py` read such files).
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join("perfbench", "out")
RUNNER = os.path.join("_build", "default", "perfbench", "perfbench.exe")
CLI = os.path.join("_build", "default", "bin", "hyqsat_cli.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("dune-project", "lib", "bin"):
        if not os.path.exists(needed):
            fail("no %s here: run from the root of a HyQSAT checkout" % needed)
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    if not dune and not shutil.which("opam"):
        fail("neither dune nor opam is on PATH")
    targets = ["./perfbench/perfbench.exe", "./bin/hyqsat_cli.exe"]
    # build output goes to stderr: standard output carries only the result
    proc = subprocess.run(cmd + ["build", "--root", ".", *targets], stdout=sys.stderr)
    if proc.returncode != 0:
        fail("build failed")


def main():
    if not os.path.exists("BENCHMARK.json"):
        fail("no BENCHMARK.json here: run from the root of a HyQSAT checkout")
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--out", help="append the tagged result to this JSON-lines file")
    args = ap.parse_args()
    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [RUNNER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--cli", CLI, "--out-dir", OUT_DIR]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)

    def stop(signum, _frame):
        # the runner stops its own daemon on SIGTERM; wait for it
        proc.terminate()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    last = None
    for line in proc.stdout:
        if line.strip():
            last = line.rstrip("\n")
        if not line.startswith("{"):
            sys.stdout.write(line)
            sys.stdout.flush()
    code = proc.wait()
    if last is None or not last.startswith("{"):
        fail("the runner printed no result (exit %d)" % code)
    result = json.loads(last)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line: " + last)
    listed = [m["name"] for m in bench["per_layer" if args.trace == "1" else "end_to_end"]]
    if sorted(listed) != sorted(result["metrics"]):
        fail("metrics differ from BENCHMARK.json: " + " ".join(
            sorted(set(listed) ^ set(result["metrics"]))))
    print(last, flush=True)
    if args.out:
        tagged = {"workload": args.workload, "seed": args.seed,
                  "trace": int(args.trace), "result": result}
        with open(args.out, "a") as fh:
            fh.write(json.dumps(tagged) + "\n")
    sys.exit(code)


if __name__ == "__main__":
    main()
