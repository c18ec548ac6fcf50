#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The first form builds perfbench/ (the dcspanner library from src/ plus the
perfbench driver, Release) into .bench_build/perfbench, runs one workload in
its own process and passes its output through; the last line of standard
output is the result JSON. The exit code is the driver's: non-zero when the
build fails, when a correctness gate fails, or when the run times out.

--smoke runs every workload of BENCHMARK.json at toy size, untraced and
traced, and checks that each prints every metric BENCHMARK.json names, with
its unit.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the driver; build output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def run_workload(workload, seed, seconds, trace, toy=False, echo=True):
    """Runs one workload; returns (exit code, parsed result or None)."""
    workdir = os.path.join(ROOT, ".bench_build",
                           "run-%s-%d" % (workload, os.getpid()))
    cmd = [BINARY, "--workload", workload, "--seconds", str(seconds),
           "--trace", str(trace), "--workdir", workdir]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if toy:
        cmd.append("--toy")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: %s timed out\n" % workload)
        return 1, None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if result is None or set(result) != {"correct", "attempted", "failed",
                                         "metrics"}:
        sys.stderr.write("perfbench: %s printed no result\n" % workload)
        return proc.returncode or 1, None
    return proc.returncode, result


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run_workload(w["name"], None, 2, trace, toy=True,
                                        echo=False)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = ({k: v["unit"] for k, v in result["metrics"].items()}
                   if result else {})
            problems = []
            if code != 0 or not result or not result["correct"]:
                problems.append("exit %d, correct=%s" %
                                (code, result and result["correct"]))
            if got != want:
                problems.append("missing %s, unexpected %s, unit mismatch %s" % (
                    sorted(set(want) - set(got)), sorted(set(got) - set(want)),
                    sorted(k for k in set(want) & set(got)
                           if want[k] != got[k])))
            print("smoke %-12s trace=%d %s" % (w["name"], trace,
                                               "; ".join(problems) or "ok"))
            ok = ok and not problems
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload or --smoke is required")
    if not build():
        return 1
    if args.smoke:
        return smoke()
    code, result = run_workload(args.workload, args.seed, args.seconds,
                                args.trace)
    return code if result is not None else (code or 1)


if __name__ == "__main__":
    sys.exit(main())
