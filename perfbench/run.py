#!/usr/bin/env python3
"""Builds the benchmark harness from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (the warpindex library plus the harness, Release)
into .bench_build/perfbench; later runs reuse that build. Each run then
executes the harness's self-test and the harness itself, whose last line of
standard output is the result: one JSON object with the keys correct,
attempted, failed and metrics. With --trace 1 the harness also writes every
span of its traced window to .bench_build/perfbench/traces/.

Exits nonzero, without printing a result, when the sources are missing,
the build or the self-test fails, or the result does not carry exactly the
metrics BENCHMARK.json lists.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
HARNESS_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no warpindex sources under {ROOT / 'src'}")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    compile_ = ["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                "perfbench_harness", "perfbench_selftest"]
    return subprocess.run(compile_, stdout=sys.stderr).returncode == 0


def source_digest():
    """The git commit when there is one, else a hash of src/."""
    if (ROOT / ".git").exists():
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if head.returncode == 0:
            return "commit " + head.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256 " + digest.hexdigest()[:16]


def listed_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        log("build failed")
        return 1
    selftest = subprocess.run(
        [str(BUILD / "perfbench_selftest"), str(ROOT / "BENCHMARK.json")],
        stdout=sys.stderr)
    if selftest.returncode != 0:
        log("self-test failed")
        return 1

    command = [str(BUILD / "perfbench_harness"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--source_digest", source_digest(), "--work_dir", str(BUILD)]
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"harness did not finish within {HARNESS_TIMEOUT_S} s")
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("harness printed no result line")
        return 1
    expected = listed_metrics(args.trace == 1)
    if set(result.get("metrics", {})) != expected:
        log("result metrics differ from BENCHMARK.json: " +
            str(sorted(set(result.get("metrics", {})) ^ expected)))
        return 1
    if run.returncode != 0:
        log(f"harness exited with {run.returncode}")
    print(lines[-1], flush=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
