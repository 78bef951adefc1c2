#!/usr/bin/env python3
"""Measures the run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
                                    [--workloads a,b] [--json out.json]

Run from the repository root. For each workload it runs perfbench/run.py
once per seed (seeds first-seed .. first-seed+runs-1, --trace 0) and
reports, per end-to-end metric, the median and the spread: the distance
between the first and third quartiles (statistics.quantiles, n=4) as a
share of the median, next to a third of the metric's bound from
BENCHMARK.json, the target every spread should stay under. It also lists
each run's host steal time (printed by the harness), to tell a noisy host
from a noisy benchmark.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--json", default="")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    ok = True
    for workload in workloads:
        values = {name: [] for name in bounds}
        steal = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            run = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True)
            result = json.loads(run.stdout.strip().split("\n")[-1])
            found = re.search(r"host steal during the window: ([0-9.]+)%",
                              run.stdout)
            steal.append(float(found.group(1)) if found else float("nan"))
            if run.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: run failed", file=sys.stderr)
                ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        report[workload] = {"steal_pct": steal}
        print(f"{workload} ({args.runs} seeds from {args.first_seed}), "
              f"host steal per run (%): "
              + " ".join(f"{x:.1f}" for x in steal))
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            target = bounds[name] / 3.0
            report[workload][name] = {"median": median, "spread": spread,
                                      "bound": bounds[name],
                                      "values": series}
            flag = "" if spread < target or name == "setup_s" else "  WIDE"
            print(f"  {name:16s} median {median:12.6g}  spread {spread:7.2%}"
                  f"  (bound/3 {target:.2%}){flag}")
        sys.stdout.flush()
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
