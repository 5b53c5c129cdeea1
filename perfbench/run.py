#!/usr/bin/env python3
"""Builds and runs one workload of the gpumas benchmark.

  python3 perfbench/run.py --workload sim_corun --seed 1 --seconds 15 --trace 0

Run it from the repository root. The first run configures and builds the
benchmark, together with the gpumas library compiled from ./src, into
.bench_build/perfbench; later runs only bring that build up to date. Build
output goes to stderr, so the last line of stdout is always the benchmark's
JSON result. Scratch stores and traced runs' Chrome traces go to .bench_out/.
See perfbench/README.md for the workloads and metrics.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sim_corun", "grid_cold", "store_warm")


def run(cmd, **kwargs):
    """Runs cmd to completion; the child is killed if this process is."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def build(build_dir):
    jobs = str(len(os.sched_getaffinity(0)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        code = run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"], stdout=sys.stderr)
        if code != 0:
            return code
    return run(["cmake", "--build", build_dir, "-j", jobs,
                "--target", "perfbench"], stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # SIGTERM unwinds like Ctrl-C, so run() reaps the child either way.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    build_dir = os.path.join(os.getcwd(), ".bench_build", "perfbench")
    if build(build_dir) != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return run([os.path.join(build_dir, "perfbench"),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--digests", os.path.join(HERE, "digests.txt"),
                "--out", os.path.join(os.getcwd(), ".bench_out")])


if __name__ == "__main__":
    sys.exit(main())
