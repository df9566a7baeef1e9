#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 bench/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 1 runs the traced variant and writes its spans to
_perf/trace-NAME.tsv.  Build output goes to stderr, so the last line of
standard output is the run's JSON result.  Exits 2 when the directory
is not a checkout of the repository or the build fails.
"""

import argparse
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "bench", "perf", "perf.exe")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("run.py: run from the root of a repository checkout", file=sys.stderr)
        return 2
    # The shared dune cache would be written outside the checkout.
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./bench/perf/perf.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=dict(os.environ, DUNE_CACHE="disabled"),
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2

    cmd = [EXE, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        os.makedirs("_perf", exist_ok=True)
        cmd += ["--trace", os.path.join("_perf", "trace-%s.tsv" % args.workload)]
    sys.stdout.flush()
    os.execv(EXE, cmd)


if __name__ == "__main__":
    sys.exit(main())
