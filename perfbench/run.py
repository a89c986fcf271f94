#!/usr/bin/env python3
"""Builds and runs the eventnet perfbench benchmark for one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the perfbench binary from this checkout's sources (CMake, Release)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the
variable is unset, then runs one workload. The last line of standard
output is the result object {"correct", "attempted", "failed",
"metrics"}; the line before it carries the detail (sample counts, failed
checks, hardware threads). The metric names and units are checked
against BENCHMARK.json. Exits non-zero without a result line when the
sources are missing, the build fails, or the binary misbehaves.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("forward-fattree8", "echo-tcp")
# Bound on one run of the binary, well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "Engine.h")):
        fail(f"eventnet sources not found under {ROOT}/src")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    exe = os.path.join(build_dir, "perfbench")
    if not os.path.isfile(exe):
        fail("build produced no perfbench binary")
    return exe


def declared_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    try:
        res = json.loads(line)
    except ValueError:
        fail(f"perfbench's last line is not JSON: {line!r}")
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys are {sorted(res)}")
    if not isinstance(res["correct"], bool):
        fail("'correct' is not a boolean")
    for k in ("attempted", "failed"):
        if not isinstance(res[k], int) or res[k] < 0:
            fail(f"'{k}' is not a whole number")
    if res["attempted"] < 1:
        fail("nothing was attempted")
    want = declared_metrics(trace)
    got = {n: m.get("unit") for n, m in res["metrics"].items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}, "
             f"units {[n for n in got if n in want and got[n] != want[n]]}")
    for n, m in res["metrics"].items():
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            fail(f"metric {n} has no finite value")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()
    if not 1 <= a.seconds <= 60:
        fail("--seconds must be within 1..60")

    build_dir = os.path.abspath(os.path.join(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench"))
    exe = build(build_dir)

    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{a.workload}-seed{a.seed}.json")]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench exceeded {RUN_TIMEOUT_S} s")
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or len(lines) < 2:
        fail(f"perfbench exited with {r.returncode}")
    check_result(lines[-1], a.trace)
    print(lines[-2])
    print(lines[-1])


if __name__ == "__main__":
    main()
