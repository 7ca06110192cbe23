#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md here).

    python3 perfbench/run.py --workload fanout --seed 1 --seconds 10 --trace 0

Run from the repository root.  The first call configures and builds the
core library and the benchmark into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); later calls only rebuild what changed.  The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics.  BENCHMARK.json defines the metric names and units: with
--trace 0 every end_to_end metric must be measured; with --trace 1 the
per_layer metrics a workload does not exercise are reported as 0.
Exits non-zero, without printing a result, when the build or the run
fails; exits 1 after printing the result when a result was wrong.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def normalize(result, spec, trace):
    """Checks the result's metrics against BENCHMARK.json; returns an error
    string or None.  Fills unexercised per-layer metrics with 0."""
    want = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in want}
    metrics = result.get("metrics", {})
    for name, m in metrics.items():
        if name not in units:
            return f"metric {name} is not in BENCHMARK.json"
        if m.get("unit") != units[name]:
            return f"metric {name} has unit {m.get('unit')}, want {units[name]}"
    for name, unit in units.items():
        if name not in metrics:
            if not trace:
                return f"end-to-end metric {name} was not measured"
            metrics[name] = {"value": 0, "unit": unit}
    result["metrics"] = {name: metrics[name] for name in units}
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload}")
        return 2

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"), "perfbench")
    if not build(build_dir):
        log("build failed")
        return 1
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--trace-dir", trace_dir, "--git-sha", git_sha()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"timed out after {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"benchmark exited {proc.returncode} without a result")
        return proc.returncode or 1
    error = normalize(result, spec, args.trace == "1")
    if error:
        log(error)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
