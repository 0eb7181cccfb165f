#!/usr/bin/env python3
"""Repeat workloads in fresh processes and report how steady they are.

Usage, from the repository root:

    python3 perfbench/steady.py --workload cc-sim-n16-d2 --runs 10
    python3 perfbench/steady.py --workload all --runs 10 --first-seed 101

Run i uses seed first-seed + i. For every end-to-end metric the script
prints the median, the first and third quartiles (Python's
statistics.quantiles(values, n=4)), the spread (q3 - q1) / median, and the
bound BENCHMARK.json gives the metric. A spread above its bound is marked
OVER; setup_s has no spread limit, only a bound on how far its median may
move, so its row is never marked. It also prints the share of failed
operations, which must be the same in every run.
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
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload} seed {seed}: no output (exit {proc.returncode})")
    return proc.returncode, json.loads(lines[-1])


def report(workload, runs, first_seed, seconds, bench):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values, shares = {}, set()
    for i in range(runs):
        code, res = run_once(workload, first_seed + i, seconds)
        shares.add((res["failed"], res["attempted"]))
        line = " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items()))
        print(f"  seed {first_seed + i}: exit {code} correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']} {line}", flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"{workload}: {runs} runs, failed/attempted {sorted(shares)}")
    print(f"  {'metric':<22}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}")
    over = False
    for name in sorted(values):
        v = values[name]
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound:
            flag, over = "  OVER", True
        print(f"  {name:<22}{med:>12.4f}{q1:>12.4f}{q3:>12.4f}{spread:>9.3f}"
              f"{bound if bound is not None else '-':>8}{flag}")
    return over or len(shares) > 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length (default: run_seconds of BENCHMARK.json)")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2 to have quartiles")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]] if args.workload == "all" else [args.workload]
    bad = False
    for name in names:
        bad |= report(name, args.runs, args.first_seed, seconds, bench)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
