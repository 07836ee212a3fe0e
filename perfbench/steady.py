#!/usr/bin/env python3
"""Check that the benchmark's end-to-end metrics repeat.

    python3 perfbench/steady.py --workload analyze [--runs 10] [--seed0 1]
    python3 perfbench/steady.py --workload power --sets 2 [--runs 10]
    python3 perfbench/steady.py --workload power --overhead [--runs 5]

Runs perfbench/run.py once per seed (seed0, seed0+1, ...) with the run
length from BENCHMARK.json, and prints for every end-to-end metric its
median, first and third quartile (statistics.quantiles, n=4), the
quartile spread as a share of the median, and the metric's bound.  A
spread above a third of its bound is flagged, setup_s included.  The
failed share of attempted operations must be the same on every run.

With --sets 2 a second set of --runs runs follows on the next seeds, and
each metric's second median is set against the first: a second median
worse than the first by more than the bound is flagged.

With --overhead every seed is also run traced, and the table compares the
traced run's end-to-end figures (its "traced-end-to-end:" line) with the
untraced ones: the difference is the tracing overhead.

Run from the root of a checkout.  Exit status 1 when a run fails, a check
fails or a spread is flagged.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit("run failed (exit %d): %s" % (p.returncode, " ".join(cmd)))
    result = json.loads(lines[-1])
    traced = None
    for line in lines:
        if line.startswith("traced-end-to-end: "):
            traced = json.loads(line[len("traced-end-to-end: "):])
    return result, traced


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def run_set(args, seed0, seconds, bounds):
    """Runs one set; returns (values, traced values, failed shares, ok)."""
    values = {name: [] for name in bounds}
    traced_values = {name: [] for name in bounds}
    shares = set()
    ok = True
    for k in range(args.runs):
        seed = seed0 + k
        t0 = time.monotonic()
        result, _ = run_once(args.workload, seed, seconds, 0)
        wall = time.monotonic() - t0
        if not result["correct"]:
            ok = False
        shares.add(result["failed"] / result["attempted"])
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        if args.overhead:
            _, traced = run_once(args.workload, seed, seconds, 1)
            for name in bounds:
                traced_values[name].append(traced[name]["value"])
        print("run %d/%d seed %d done in %.1f s" % (k + 1, args.runs, seed, wall),
              file=sys.stderr)
    return values, traced_values, shares, ok


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    ap.add_argument("--overhead", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    ok = True
    medians = []
    all_shares = set()
    for n in range(args.sets):
        seed0 = args.seed0 + n * args.runs
        values, traced_values, shares, set_ok = run_set(args, seed0, seconds,
                                                        bounds)
        ok = ok and set_ok
        all_shares |= shares
        print("workload %s, %d runs of %d s, seeds %d-%d, failed shares %s" %
              (args.workload, args.runs, seconds, seed0, seed0 + args.runs - 1,
               sorted(shares)))
        print("%-28s %14s %14s %14s %8s %6s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        for name, m in bounds.items():
            med, q1, q3, s = spread(values[name])
            flag = ""
            if s > m["bound"] / 3:
                flag = "  <-- above a third of the bound"
                ok = False
            print("%-28s %14.6g %14.6g %14.6g %7.2f%% %5.0f%%%s" %
                  (name, med, q1, q3, 100 * s, 100 * m["bound"], flag))
        medians.append({name: statistics.median(values[name]) for name in bounds})
        if args.overhead:
            print("\ntracing overhead (traced median vs untraced median):")
            for name in bounds:
                a = statistics.median(values[name])
                b = statistics.median(traced_values[name])
                print("%-28s %14.6g %14.6g %+7.2f%%" %
                      (name, a, b, 100 * (b - a) / a))
        print()
    if args.sets == 2:
        print("second median against the first (positive = worse):")
        print("%-28s %14s %14s %8s %6s" %
              ("metric", "first", "second", "worse", "bound"))
        for name, m in bounds.items():
            a, b = medians[0][name], medians[1][name]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            flag = ""
            if worse > m["bound"]:
                flag = "  <-- worse by more than the bound"
                ok = False
            print("%-28s %14.6g %14.6g %+7.2f%% %5.0f%%%s" %
                  (name, a, b, 100 * worse, 100 * m["bound"], flag))
    if len(all_shares) != 1:
        print("failed share differs between runs")
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
