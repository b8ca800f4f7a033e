#!/usr/bin/env python3
"""Steadiness check: run each workload repeatedly on one commit and report
every end-to-end metric's median and quartiles against its bound.

Usage (from the repository root):

    python3 labbench/steadiness.py [--runs 10] [--seed 1]
        [--heldout-seed 1001] [--json .bench_out/steadiness.json]

Every workload in BENCHMARK.json runs for its run_seconds; run i of a set
uses seed <seed> + i. The spread of a metric is the
distance between its first and third quartile (statistics.quantiles,
n=4) as a share of its median; a metric is steady when the spread is
below a third of its bound in BENCHMARK.json. setup_s is reported but
its spread is not held to the bound (a single cold set-up per run is
noisy by nature; its median is). With --heldout-seed a second set runs
from that seed, and each metric's second median is compared with the
first in the metric's worse direction. Exits 1 if any check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
    done = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, check=True)
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


def run_set(workloads, first_seed, runs, seconds):
    """{workload: [result, ...]} for seeds first_seed .. first_seed+runs-1."""
    results = {w: [] for w in workloads}
    for i in range(runs):
        for workload in workloads:
            result = run_once(workload, first_seed + i, seconds)
            results[workload].append(result)
            print(f"  {workload} seed {first_seed + i}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  file=sys.stderr)
    return results


def summarize(bench, results):
    """Per workload and metric: median, quartiles, spread, verdict."""
    rows, ok = [], True
    for workload, runs in results.items():
        correct = all(r["correct"] for r in runs)
        shares = {r["failed"] / r["attempted"] for r in runs}
        ok &= correct and len(shares) == 1
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            gated = metric["name"] != "setup_s"
            steady = spread < metric["bound"] / 3
            ok &= steady or not gated
            rows.append({"workload": workload, "metric": metric["name"],
                         "median": median, "q1": q1, "q3": q3,
                         "spread": spread, "bound": metric["bound"],
                         "steady": steady, "gated": gated,
                         "correct": correct, "failed_share": sorted(shares)})
    return rows, ok


def print_table(title, rows):
    print(title)
    print(f"{'workload':14} {'metric':14} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'spread':>8} {'bound':>6}  verdict")
    for r in rows:
        verdict = ("steady" if r["steady"] else
                   ("wide" if r["gated"] else "not gated"))
        print(f"{r['workload']:14} {r['metric']:14} {r['median']:14.6g} "
              f"{r['q1']:14.6g} {r['q3']:14.6g} {r['spread']:8.4f} "
              f"{r['bound']:6.2f}  {verdict}")


def compare_sets(bench, first, second):
    """Second median vs first, in each metric's worse direction."""
    ok = True
    print("held-out set vs first set (worse-direction change / bound):")
    for metric in bench["end_to_end"]:
        for workload in first:
            a = statistics.median(r["metrics"][metric["name"]]["value"]
                                  for r in first[workload])
            b = statistics.median(r["metrics"][metric["name"]]["value"]
                                  for r in second[workload])
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            within = worse <= metric["bound"]
            ok &= within
            print(f"  {workload:14} {metric['name']:14} {a:14.6g} -> "
                  f"{b:14.6g}  worse by {worse:+.4f} (bound "
                  f"{metric['bound']:.2f}) {'ok' if within else 'EXCEEDED'}")
    for workload in first:
        shares = {r["failed"] / r["attempted"]
                  for r in first[workload] + second[workload]}
        if len(shares) != 1:
            ok = False
            print(f"  {workload}: failed share differs between sets: "
                  f"{sorted(shares)}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--heldout-seed", type=int)
    parser.add_argument("--json")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    print(f"set 1: seeds {args.seed}..{args.seed + args.runs - 1}",
          file=sys.stderr)
    first = run_set(workloads, args.seed, args.runs, seconds)
    rows, ok = summarize(bench, first)
    print_table(f"set 1 (seeds {args.seed}..{args.seed + args.runs - 1})",
                rows)
    report = {"first": rows}
    if args.heldout_seed is not None:
        print(f"set 2: seeds {args.heldout_seed}.."
              f"{args.heldout_seed + args.runs - 1}", file=sys.stderr)
        second = run_set(workloads, args.heldout_seed, args.runs, seconds)
        rows2, ok2 = summarize(bench, second)
        print_table(f"set 2 (seeds {args.heldout_seed}.."
                    f"{args.heldout_seed + args.runs - 1})", rows2)
        ok &= compare_sets(bench, first, second) and ok2
        report["second"] = rows2
    if args.json:
        os.makedirs(os.path.dirname(args.json) or ".", exist_ok=True)
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
