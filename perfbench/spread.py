#!/usr/bin/env python3
"""Run workloads over several seeds and report each metric's spread.

Usage (from the repository root):
    python3 perfbench/spread.py [--runs 10] [--sets 1] [--seed0 1]
                                [--trace 0] [--seconds N] [workload ...]

For each set it prints the wall time of a run (median and maximum, build
check included). For every end-to-end metric (or per-layer metric with
--trace 1) it prints the median, the first and third quartile (statistics.quantiles(n=4)), and
the quartile distance as a share of the median next to the metric's bound
from BENCHMARK.json: "ok" below a third of the bound, "WIDE" below the
bound, "OVER" beyond it.

With --sets 2 or more, each workload runs that many sets of --runs runs, set
k on seeds seed0 + k*runs onwards, and a last table compares every later
set's median with the first: how much worse it reads, as a share of the
first, against the bound ("ok" within it, "OVER" beyond it).

Workloads default to all of them; --seconds defaults to run_seconds. Raw
results go to .bench_build/spread-<workload>.json.
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
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode or not result.get("correct"):
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}, {result}")
    result["wall_s"] = wall
    return result


def spread_flag(spread, bound):
    if bound is None:
        return ""
    return "ok" if spread < bound / 3 else ("WIDE" if spread < bound else "OVER")


def report_set(runs, bounds):
    """Prints one set's quartiles; returns each metric's median."""
    medians = {}
    for name, meta in runs[0]["metrics"].items():
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        medians[name] = med
        print(f"  {name:44s} {meta['unit']:8s} median {med:12.6g}  "
              f"q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:7.2%}  "
              f"bound {bound if bound is not None else '-'} "
              f"{spread_flag(spread, bound)}")
    return medians


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="*",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    lower_better = {m["name"]: m["better"] == "lower"
                    for m in bench["end_to_end"] + bench["per_layer"]}

    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    for wl in args.workloads:
        sets = []
        for k in range(args.sets):
            seed0 = args.seed0 + k * args.runs
            runs = [run_once(wl, seed0 + i, args.seconds, args.trace)
                    for i in range(args.runs)]
            walls = [r["wall_s"] for r in runs]
            print(f"{wl}: set {k + 1}, {args.runs} runs, seeds {seed0}.."
                  f"{seed0 + args.runs - 1}, {args.seconds} s each; wall time "
                  f"per run median {statistics.median(walls):.1f} s, "
                  f"max {max(walls):.1f} s")
            sets.append((runs, report_set(runs, bounds)))
            sys.stdout.flush()
        with open(os.path.join(ROOT, ".bench_build", f"spread-{wl}.json"),
                  "w") as f:
            json.dump([runs for runs, _ in sets], f, indent=1)
        if len(sets) < 2:
            continue
        print(f"{wl}: later sets against set 1 (worse by, as a share of set 1)")
        first = sets[0][1]
        for name, base in first.items():
            bound = bounds.get(name)
            cells = []
            for _, medians in sets[1:]:
                change = (medians[name] - base) / base if base else 0.0
                worse = change if lower_better.get(name, True) else -change
                flag = "" if bound is None else (
                    "ok" if worse <= bound else "OVER")
                cells.append(f"{medians[name]:12.6g} {worse:+7.2%} {flag}")
            print(f"  {name:44s} set 1 {base:12.6g}  " + "  ".join(cells) +
                  f"  bound {bound if bound is not None else '-'}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
