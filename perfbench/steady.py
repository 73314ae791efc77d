#!/usr/bin/env python3
"""Steadiness report: repeat workloads over several seeds and print,
for every end-to-end metric, the median, the quartiles and the
quartile spread as a share of the median, next to the metric's bound
in BENCHMARK.json.

    python3 perfbench/steady.py --runs 10 [--workloads serve_mix] \
        [--seconds 30] [--first-seed 1]

Run from the repository root. A spread above a third of the bound is
flagged: the benchmark is then too noisy to judge a change by that
metric. setup_s is reported but not held to it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    p = subprocess.run(cmd, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise SystemExit("steady.py: %s seed %d failed (exit %d)"
                         % (workload, seed, p.returncode))
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        raise SystemExit("steady.py: %s seed %d failed its output checks"
                         % (workload, seed))
    return {k: v["value"] for k, v in res["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    noisy = []
    for w in args.workloads.split(","):
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            for k, v in run_once(w, seed, args.seconds).items():
                values.setdefault(k, []).append(v)
            sys.stderr.write("  %s seed %d done\n" % (w, seed))
        print("%s (%d runs, %g s each)" % (w, args.runs, args.seconds))
        print("  %-15s %14s %14s %14s %8s %6s" % (
            "metric", "q1", "median", "q3", "spread", "bound"))
        for k, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(k)
            flag = ""
            if bound is not None and k != "setup_s" and spread > bound / 3:
                flag = "  NOISY"
                noisy.append("%s/%s" % (w, k))
            print("  %-15s %14.6g %14.6g %14.6g %8.4f %6s%s" % (
                k, q1, med, q3, spread,
                "-" if bound is None else "%g" % bound, flag))
    if noisy:
        print("spread above a third of the bound: " + ", ".join(noisy))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
