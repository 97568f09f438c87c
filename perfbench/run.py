#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload colo --seed 42 --seconds 15 --trace 0

The build (dune, release profile, into .bench_build/) happens before the
benchmark process starts, so it never falls inside a timed span; a
no-op rebuild takes about a second. The benchmark process inherits
standard output, and the last line it prints is the JSON result. Any
failure to build or run exits non-zero without printing a result.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("colo", "objcopy", "fleet", "trace_export")
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
# The benchmark stops starting rounds after --seconds; a round takes at
# most ~15 s on a 2-core machine. This is the hard stop after that.
TIMEOUT_S = 170


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    # The checkout root is the parent of this script's directory.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "--display", "quiet",
         "./perfbench/main.exe"],
        cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    # A SIGTERM to this script stops the benchmark process too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # The benchmark's set-up time starts at this process's launch.
    t0 = time.monotonic_ns()
    child = subprocess.Popen(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--t0-ns", str(t0)],
        cwd=root)
    try:
        return child.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: timed out", file=sys.stderr)
        return 3
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
