#!/usr/bin/env python3
"""Builds the ECO benchmark program from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

eco_perfbench is built (Release) into .bench_build/perfbench; traced runs
write their Chrome trace and per-layer table to .bench_build/perfbench-out.
Its report goes to stderr and its result, one JSON object, is the last
line of stdout. The exit code is non-zero when the arguments are malformed
or the build fails (no result printed), or when any engine result is wrong.
"""

import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
WORKLOADS = ("contest20", "tiled_parity", "wide_netlist", "fuzz_mix")
FLAGS = ("--workload", "--seed", "--seconds", "--trace")
# A run must end within 180 s; stop eco_perfbench short of that.
RUN_TIMEOUT_S = 175


def usage(problem):
    sys.stderr.write(
        "run.py: %s\nusage: python3 perfbench/run.py --workload {%s} "
        "--seed N --seconds S --trace 0|1\n" % (problem, ",".join(WORKLOADS)))
    return 2


def parse(argv):
    """Returns ({flag: value}, problem); every flag once, values checked whole."""
    if len(argv) % 2 != 0:
        return None, "flags come in pairs"
    args = {}
    for flag, value in zip(argv[0::2], argv[1::2]):
        if flag not in FLAGS:
            return None, "unknown flag %r" % flag
        if flag in args:
            return None, "%s given twice" % flag
        args[flag] = value
    missing = [f for f in FLAGS if f not in args]
    if missing:
        return None, "missing " + ", ".join(missing)
    if args["--workload"] not in WORKLOADS:
        return None, "unknown workload %r" % args["--workload"]
    for flag in ("--seed", "--seconds"):
        if not re.fullmatch(r"[0-9]{1,19}", args[flag]):
            return None, "bad %s %r" % (flag, args[flag])
    if not 1 <= int(args["--seconds"]) <= 3600:
        return None, "--seconds must be 1..3600"
    if args["--trace"] not in ("0", "1"):
        return None, "--trace must be 0 or 1"
    return args, None


def build():
    """Configures once, then builds incrementally; logs go to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "eco_perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.stderr.write("run.py: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def main(argv):
    args, problem = parse(argv)
    if problem:
        return usage(problem)
    if not build():
        return 1
    os.makedirs(OUT, exist_ok=True)
    cmd = [os.path.join(BUILD, "eco_perfbench")]
    for flag in FLAGS:
        cmd += [flag, args[flag]]
    cmd += ["--out", OUT]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: eco_perfbench exceeded %d s; no result\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
