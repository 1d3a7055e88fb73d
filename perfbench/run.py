#!/usr/bin/env python3
"""Build and run the qpi end-to-end benchmark.

    python3 perfbench/run.py --workload tpch_mix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

The first form builds perfbench/ (Release, into $CARGO_TARGET_DIR or
.bench_build) and runs one workload; the last line of stdout is the result
JSON. --smoke runs every workload briefly, traced and untraced, and fails on
a missing metric or any failed operation. Build output goes to stderr.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(REPO, path)


def build():
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", "qpi_perfbench", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return None
    return os.path.join(out, "qpi_perfbench")


def run(binary, workload, seed, seconds, trace, capture=False):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                          text=True)


def smoke(binary):
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: {m["name"] for m in spec["end_to_end"]},
              1: {m["name"] for m in spec["per_layer"]}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run(binary, workload, 1, 1, trace, capture=True)
            lines = proc.stdout.strip().splitlines()
            problem = None
            if proc.returncode != 0 or not lines:
                problem = "exit code %d" % proc.returncode
            else:
                result = json.loads(lines[-1])
                missing = wanted[trace] - set(result["metrics"])
                if missing:
                    problem = "missing metrics " + ", ".join(sorted(missing))
                elif result["failed"] or not result["correct"]:
                    problem = "%d of %d operations failed" % (
                        result["failed"], result["attempted"])
            print("%-16s trace=%d %s" % (workload, trace, problem or "ok"))
            ok = ok and problem is None
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload or --smoke is required")
    binary = build()
    if binary is None:
        return 1
    if args.smoke:
        return smoke(binary)
    return run(binary, args.workload, args.seed, args.seconds,
               args.trace).returncode


if __name__ == "__main__":
    sys.exit(main())
