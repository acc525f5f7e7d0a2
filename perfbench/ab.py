#!/usr/bin/env python3
"""Interleaved A/B comparison of two checkouts on the benchmark.

    python3 perfbench/ab.py --a PARENT_CHECKOUT --b CHANGE_CHECKOUT
                            [--pairs 10]

The workloads, their run length and the metrics' bounds come from A's
BENCHMARK.json. Each checkout is built once by its own perfbench/run.py
(under its own .bench_build). Then, for every pair and workload, both sides
run the same seed back to back, alternating which side goes first, so a slow
spell of the host lands on both. Pair i runs seed FIRST_SEED + i, seeds the
benchmark was not sized on. For each workload and end-to-end metric the
report gives each side's median and quartiles, the share of pairs B won
(ties count for neither) and a verdict:

  regression  B's median is worse than A's by more than the metric's bound;
  unresolved  A's interquartile range exceeds the bound, and not every run
              of B reads better than every run of A: the metric cannot
              tell a change of that size from noise here;
  gain        B won at least nine tenths of the pairs, its median is better
              by more than A's interquartile range, and B failed no more
              operations than A;
  no claim    anything else.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

FIRST_SEED = 1000
MIN_PAIRS = 10


def run(checkout, args):
    command = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
               *args]
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)  # each checkout builds in its own tree
    done = subprocess.run(command, cwd=checkout, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(spec, a_runs, b_runs, share, b_failed_more):
    a_q, b_q = quartiles(a_runs), quartiles(b_runs)
    bound = spec["bound"]
    lower = spec["better"] == "lower"
    worse = (b_q[1] - a_q[1]) if lower else (a_q[1] - b_q[1])
    b_always_better = (max(b_runs) < min(a_runs) if lower else
                       min(b_runs) > max(a_runs))
    if a_q[1] and worse / abs(a_q[1]) > bound:
        return "regression"
    if (a_q[1] and (a_q[2] - a_q[0]) / abs(a_q[1]) > bound and
            not b_always_better):
        return "unresolved"
    if share >= 0.9 and not b_failed_more and -worse > a_q[2] - a_q[0]:
        return "gain"
    return "no claim"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", required=True, help="baseline checkout")
    parser.add_argument("--b", required=True, help="changed checkout")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    args = parser.parse_args()
    if args.pairs < MIN_PAIRS:
        parser.error(f"--pairs must be at least {MIN_PAIRS}")

    sides = {"A": os.path.abspath(args.a), "B": os.path.abspath(args.b)}
    for name, checkout in sides.items():
        if run(checkout, ["--build-only"]) is None:
            sys.exit(f"error: side {name} ({checkout}) does not build")
    with open(os.path.join(sides["A"], "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    spec = {m["name"]: m for m in benchmark["end_to_end"]}
    workloads = [w["name"] for w in benchmark["workloads"]]
    seconds = str(benchmark["run_seconds"])

    runs = {w: {"A": [], "B": []} for w in workloads}
    for pair in range(args.pairs):
        seed = str(FIRST_SEED + pair)
        order = ("A", "B") if pair % 2 == 0 else ("B", "A")
        for workload in workloads:
            for side in order:
                result = run(sides[side], ["--workload", workload, "--seed",
                                           seed, "--seconds", seconds,
                                           "--trace", "0"])
                runs[workload][side].append(result)
                status = ("no result" if result is None else
                          f"correct={result['correct']} "
                          f"failed={result['failed']}")
                print(f"pair {pair + 1}/{args.pairs} {workload} {side}: "
                      f"{status}", file=sys.stderr, flush=True)

    for workload in workloads:
        print(f"\n== {workload}")
        print(f"{'metric':24s} {'A median [q1, q3]':>30s} "
              f"{'B median [q1, q3]':>30s} {'B wins':>7s}  verdict")
        pairs = list(zip(runs[workload]["A"], runs[workload]["B"]))
        usable = [(a, b) for a, b in pairs
                  if a and b and a["correct"] and b["correct"]]
        if len(usable) < len(pairs):
            print(f"  {len(pairs) - len(usable)} pair(s) dropped: a side "
                  "failed or was incorrect")
        failed = {s: sum(r["failed"] for r in runs[workload][s] if r)
                  for s in ("A", "B")}
        if failed["B"] > failed["A"]:
            print(f"  B failed more operations ({failed['B']} vs "
                  f"{failed['A']}): no gain can be claimed")
        for name, metric in spec.items():
            values = [(a["metrics"][name]["value"], b["metrics"][name]["value"])
                      for a, b in usable
                      if name in a["metrics"] and name in b["metrics"]]
            if not values:
                continue
            lower = metric["better"] == "lower"
            wins = sum(1 for a, b in values if (b < a if lower else b > a))
            share = wins / len(values)
            a_runs = [a for a, _ in values]
            b_runs = [b for _, b in values]
            a_q, b_q = quartiles(a_runs), quartiles(b_runs)
            result = ("too few pairs" if len(values) < MIN_PAIRS else
                      verdict(metric, a_runs, b_runs, share,
                              failed["B"] > failed["A"]))
            print(f"{name:24s} {a_q[1]:12.5g} [{a_q[0]:.5g}, {a_q[2]:.5g}] "
                  f"{b_q[1]:12.5g} [{b_q[0]:.5g}, {b_q[2]:.5g}] "
                  f"{share:6.0%}  {result}")


if __name__ == "__main__":
    main()
