"""``python -m benchmarks.ledger`` — run the ledger (README beside this file)."""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _fixed_environment() -> None:
    """Re-exec once with ``PYTHONHASHSEED=0`` and ``src`` importable.

    Set iteration order decides the order terms are scanned in, so a
    random hash seed is run-to-run noise; the daemon child inherits both.
    """
    src = str(ROOT / "src")
    if os.environ.get("PYTHONHASHSEED") == "0" and src in sys.path:
        return
    if os.environ.get("LEDGER_REEXEC"):
        raise SystemExit("benchmarks.ledger: could not fix PYTHONHASHSEED/PYTHONPATH")
    env = dict(os.environ, PYTHONHASHSEED="0", LEDGER_REEXEC="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    os.execve(sys.executable, [sys.executable, "-m", "benchmarks.ledger", *sys.argv[1:]], env)


def _parser() -> argparse.ArgumentParser:
    from benchmarks.ledger.data import DEFAULT_CARDINALITY
    from benchmarks.ledger.metrics import WORKLOADS

    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger", description=__doc__)
    parser.add_argument("command", nargs="?", choices=["calibrate"],
                        help="calibrate: repeat every workload and print the bound table")
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="one workload, result object on the last line (default: all four)")
    parser.add_argument("--seed", type=int, default=0, help="draws the op list")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="nominal measuring time per run; sets the pass count")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=[0, 1],
                        help="1: per-layer rung ledger in place of the end-to-end metrics")
    parser.add_argument("--cardinality", type=int, default=DEFAULT_CARDINALITY)
    parser.add_argument("--runs", type=int, default=8, help="calibrate: runs per workload")
    return parser


def main() -> int:
    _fixed_environment()
    args = _parser().parse_args()
    if args.command == "calibrate":
        from benchmarks.ledger.calibrate import calibrate

        return calibrate(args)
    if args.workload is None:
        return _all_workloads(args)

    from benchmarks.ledger.data import Config
    from benchmarks.ledger.runner import run

    _sweep_dead_runs()
    result = run(Config(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        cardinality=args.cardinality, scratch=HERE / "out" / f"run-{os.getpid()}",
    ))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _sweep_dead_runs() -> None:
    """Remove the scratch directory of every run whose process is gone (killed)."""
    for left in (HERE / "out").glob("run-*"):
        try:
            os.kill(int(left.name[4:]), 0)
        except ProcessLookupError:
            shutil.rmtree(left, ignore_errors=True)
        except (ValueError, PermissionError):
            pass  # not ours to judge


def _all_workloads(args: argparse.Namespace) -> int:
    """Each workload in a process of its own, so ``rss_mb`` is that workload's."""
    from benchmarks.ledger.calibrate import child_argv
    from benchmarks.ledger.metrics import WORKLOADS

    status = 0
    for name in WORKLOADS:
        status |= subprocess.run(child_argv(args, name, args.seed)).returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
