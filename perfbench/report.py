"""Every workload, untraced and traced, in one table.

    python3 perfbench/report.py [--seed N]

Runs `run.py` for each workload with --trace 0 and --trace 1, for the
run_seconds that BENCHMARK.json sets, and prints
the end-to-end metrics with units, the failed fraction, the tracing
overhead (traced minus untraced median wall time) and how much of the
traced wall time the layer spans account for.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    seconds = run.BENCH["run_seconds"]

    names = list(run.END_TO_END) + ["failed_frac"]
    units = dict(run.END_TO_END, failed_frac="1")
    print("workload".ljust(16) + "".join(f"{n} [{units[n]}]".rjust(20) for n in names))
    traced = {}
    for workload in workloads.WORKLOADS:
        plain = measure(workload, args.seed, seconds, 0)
        traced[workload] = (plain, measure(workload, args.seed, seconds, 1))
        values = {k: v["value"] for k, v in plain["metrics"].items()}
        values["failed_frac"] = plain["failed"] / plain["attempted"]
        print(workload.ljust(16) + "".join(f"{values[n]:20.4f}" for n in names)
              + f"   ({plain['attempted']} jobs)")
    print()
    print("workload".ljust(16) + "".join(c.rjust(20) for c in (
        "overhead [s]", "traced wall [s]", "setup [s]", "layers [s]", "unattributed [s]")))
    for workload, (plain, trace) in traced.items():
        m = {k: v["value"] for k, v in trace["metrics"].items()}
        overhead = m["trace.wall_s"] - plain["metrics"]["wall_s"]["value"]
        print(workload.ljust(16) + "".join(f"{x:20.4f}" for x in (
            overhead, m["trace.wall_s"], m["trace.setup_s"], m["trace.layers_s"],
            m["trace.unattributed_s"])))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
