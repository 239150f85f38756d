#!/usr/bin/env python3
"""Builds and runs the CoverMe end-to-end campaign benchmark.

Run from the repository root:

    python3 campaignbench/run.py --workload powell-vm --seed 1 --seconds 10 --trace 0
    python3 campaignbench/run.py --selftest

The first run configures and builds campaignbench/ (which builds the CoverMe
libraries from ../src) under $CARGO_TARGET_DIR, or .bench_build when that is
unset. The last line of standard output is the result as one JSON object:
{"correct", "attempted", "failed", "metrics"}. See campaignbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("powell-vm", "cmaes-jit", "service-jit")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("campaignbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "campaignbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no CoverMe source tree next to the benchmark (expected src/)")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", out]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode:
            fail("configure failed", 1)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", out, "-j", jobs],
                      stdout=sys.stderr).returncode:
        fail("build failed", 1)
    return os.path.join(out, "campaignbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true",
                        help="run the tracing transparency check and exit")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed,
                                      args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    binary = build()
    if args.selftest:
        sys.exit(subprocess.run([binary, "selftest"]).returncode)

    work = os.path.join(build_dir(), "work")
    os.makedirs(work, exist_ok=True)
    command = [binary, "run", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--refs", os.path.join(BENCH_DIR, "refs", "digests.txt"),
               "--ref-cache", os.path.join(work, "digests-computed.txt")]
    if args.trace:
        command += ["--trace-out", os.path.join(
            work, "trace-%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out", 1)
    sys.stdout.write(proc.stdout)
    if proc.returncode:
        fail("benchmark exited with %d" % proc.returncode, 1)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("benchmark printed no result line", 1)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line", 1)


if __name__ == "__main__":
    main()
