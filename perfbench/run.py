#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload seismic-steady --seed 1 --seconds 20 --trace 0

Builds perfbench/main.exe with dune (build output goes to standard
error), then runs it with the given arguments.  The last line of
standard output is the result object; the provenance file and, for
--trace 1, the Chrome trace land in perfbench/out/.  Exits nonzero
without a result when the build fails, for instance in a directory
that holds the benchmark but not the program.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def commit():
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "--cache=disabled",
             "--display=quiet", "./perfbench/main.exe"],
            cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    if build.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    argv = [EXE] + sys.argv[1:] + [
        "--commit", commit(), "--out", os.path.join("perfbench", "out")]
    sys.stdout.flush()
    try:
        return subprocess.run(argv, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
