"""``python -m benchmarks.ledger calibrate`` — A/A runs and the bound table.

Runs every workload ``--runs`` times in fresh processes, each run with
another seed (``--seed`` + run) and alternating the order so slow drifts
of the box hit every workload alike, then prints per
metric × workload the quartiles and two spreads: max−min (what the
bounds are set from) and inter-quartile (what the acceptance check
tests), both as a share of the median.  The last table is the one pasted
into ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from typing import Dict, List

from benchmarks.ledger import quiet
from benchmarks.ledger.metrics import END_TO_END, WORKLOADS

#: Regression-bound floors: a bound is ``max(floor, 1.5 × max−min spread)``.
#: One bound per metric serves all four workloads, so the floor is the
#: serving-path one (0.15) where the issue splits in-process from served.
FLOORS = {"setup_s": 0.15, "ops_s": 0.15, "p50_us": 0.15, "p99_us": 0.15, "rss_mb": 0.05}
#: The contract's ceiling on any bound.
MAX_BOUND = 0.25
#: Above this a metric is unresolved on that workload (README says so).
UNRESOLVED = 0.20


def child_argv(args: argparse.Namespace, workload: str, seed: int) -> List[str]:
    """The command line of one single-workload run with ``args``' settings."""
    return [sys.executable, "-m", "benchmarks.ledger", "--workload", workload,
            "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--cardinality", str(args.cardinality)]


def calibrate(args: argparse.Namespace) -> int:
    values: Dict[str, Dict[str, List[float]]] = {
        workload: {metric.name: [] for metric in END_TO_END} for workload in WORKLOADS
    }
    status = 0
    for run in range(args.runs):
        order = list(WORKLOADS) if run % 2 == 0 else list(reversed(WORKLOADS))
        seed = args.seed + run  # another seed each run, as the acceptance check does
        for workload in order:
            done = subprocess.run(
                child_argv(args, workload, seed), stdout=subprocess.PIPE, text=True
            )
            if done.returncode != 0:
                print(f"run {run} of {workload} failed (exit {done.returncode})")
                status = 1
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            for name, reading in result["metrics"].items():
                values[workload][name].append(reading["value"])
            print(f"run {run + 1}/{args.runs} {workload} seed={seed}: " + "  ".join(
                f"{name}={reading['value']:.5g}" for name, reading in result["metrics"].items()
            ), flush=True)

    print("\nmetric x workload: quartiles, max-min spread, inter-quartile spread")
    bounds: Dict[str, float] = {}
    for metric in END_TO_END:
        for workload in WORKLOADS:
            series = values[workload][metric.name]
            if len(series) < 2:
                continue
            _, median, _ = quiet.quartiles(series)
            full = (max(series) - min(series)) / median
            bound = max(FLOORS[metric.name], 1.5 * full)
            flag = "  UNRESOLVED (>0.20)" if bound > UNRESOLVED else ""
            print(f"{workload}/{metric.name} [{metric.unit}]: {quiet.describe(series)}  "
                  f"max-min {full:.3f}  iqr {quiet.spread(series):.3f}  "
                  f"-> bound {bound:.3f}{flag}")
            bounds[metric.name] = max(bounds.get(metric.name, 0.0), min(bound, MAX_BOUND))

    print(f"\nbound table for BENCHMARK.json (largest over workloads, capped at {MAX_BOUND}):")
    print(json.dumps([
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": round(bounds.get(m.name, FLOORS[m.name]), 2)}
        for m in END_TO_END
    ], indent=2))
    return status
