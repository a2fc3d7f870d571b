#!/usr/bin/env python3
"""Build and run the Snorlax benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/snorlax_bench.exe with
dune into .bench_build (or $CARGO_TARGET_DIR, relative to the root), then
runs it; the executable's standard output is passed through, so the last
line is the JSON result.  Exits non-zero, without a result, when the
sources to build are missing or the build fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("stream-warm", "fix-corpus")
# Beyond --seconds: set-up, the cycle running when time is up, and the
# traced run's span dump.
ALLOWANCE_S = 120


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(root, needed)):
            print(f"run.py: {needed} not found under {root}: nothing to build",
                  file=sys.stderr)
            return 2

    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", root, "--build-dir", build_dir,
         "--profile", "release", "-j", "2", "./perfbench/snorlax_bench.exe"],
        cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode or 1

    exe = os.path.join(build_dir, "default", "perfbench", "snorlax_bench.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    timeout = args.seconds + ALLOWANCE_S
    proc = subprocess.Popen(cmd, cwd=root)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run.py: benchmark exceeded {timeout}s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
