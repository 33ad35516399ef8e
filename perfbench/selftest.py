#!/usr/bin/env python3
"""Self-test of the benchmark: its output contract and its correctness checks.

Usage (from the repository root):
    python3 perfbench/selftest.py

1. Every listed workload runs clean: exit 0, "correct": true, "failed": 0, and the
   metric names equal BENCHMARK.json's end_to_end list (--trace 0) and
   per_layer list (--trace 1).
2. Each correctness check is broken once on purpose (--inject) and must
   fail the run: nonzero exit, "correct": false, "failed" >= 1.
3. The binary refuses to run under a runtime switch that changes the
   program being measured (TLE_CTL=1).
4. A run that passes its --deadline stops with status 4, prints no result,
   and names the stage it was in.
Exits nonzero on the first violated expectation.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "1"

INJECTIONS = [
    ("pipez", "pipez-byte"),
    ("videnc", "videnc-frame"),
    ("videnc", "videnc-stream"),
    ("set-read", "set-key"),
    ("set-update", "set-key"),
]


def run(workload, trace, extra=(), env=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", SECONDS, "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=env)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stderr


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = [m["name"] for m in bench["end_to_end"]]
    layers = [m["name"] for m in bench["per_layer"]]

    for wl in [w["name"] for w in bench["workloads"]]:
        for trace, names in ((0, e2e), (1, layers)):
            code, res, err = run(wl, trace)
            expect(code == 0 and res and res["correct"] and res["failed"] == 0
                   and res["attempted"] >= 1,
                   f"{wl} --trace {trace} runs clean")
            expect(list(res["metrics"]) == names,
                   f"{wl} --trace {trace} reports exactly the declared metrics")
            if trace == 0:
                expect(all(m["value"] > 0 for m in res["metrics"].values()),
                       f"{wl} end-to-end metrics are all nonzero")

    for wl, check in INJECTIONS:
        code, res, err = run(wl, 0, ("--inject", check))
        expect(code != 0 and res is not None and not res["correct"]
               and res["failed"] >= 1,
               f"{wl} --inject {check} fails the run ({res and res['failed']} failed)")

    env = dict(os.environ, TLE_CTL="1")
    code, res, err = run("set-read", 0, env=env)
    expect(code != 0 and res is None, "TLE_CTL=1 in the environment is refused")

    # A deadline shorter than the run stands in for a hang.
    code, res, err = run("set-read", 0, ("--deadline", "0.5"))
    expect(code == 4 and res is None and "stage set-up" in err,
           "a run past its deadline stops with status 4 and names its stage")


if __name__ == "__main__":
    main()
