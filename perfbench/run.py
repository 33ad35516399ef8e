#!/usr/bin/env python3
"""Build the benchmark from this checkout's sources and run one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload pipez --seed 1 --seconds 15 --trace 0

The binary is built with CMake into .bench_build/perfbench on first use and
rebuilt incrementally afterwards; build output goes to stderr so that the
last line of stdout stays the benchmark's JSON result. Every argument is
passed through to the binary (see perfbench/main.cpp).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    """Configure (once) and build the binary; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "tm", "api.hpp")):
        print("perfbench: no runtime sources under src/ in this checkout",
              file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", "3"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 2
    sys.stdout.flush()
    return subprocess.run([BINARY] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
