"""Smoke test of the ledger at toy scale (cardinality 2,000, 5 passes).

Outside tier-1 ``testpaths``; run it explicitly from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger_smoke.py -q
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from functools import lru_cache
from pathlib import Path

import pytest

from benchmarks.ledger.metrics import END_TO_END, PER_LAYER, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SCALE = ["--cardinality", "2000", "--seconds", "1"]

#: Counts a fixed seed must reproduce exactly, and the workload whose
#: traced run measures each.
EXACT = {
    "indexes.results_per_query": "index-query",
    "service.wal_bytes_per_op": "live-ingest",
    "storage.cache_hit_ratio": "cold-tier",
    "cluster.shards_visited": "cold-tier",
}


def _argv(workload: str, seed: int, trace: int) -> list:
    return [sys.executable, "-m", "benchmarks.ledger", "--workload", workload,
            "--seed", str(seed), "--trace", str(trace), *SCALE]


@lru_cache(maxsize=None)
def _run(workload: str, seed: int, trace: int, attempt: int = 0) -> dict:
    # A session of its own: every process the run starts is in it.
    with subprocess.Popen(
        _argv(workload, seed, trace), cwd=ROOT, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    ) as bench:
        try:
            stdout, _ = bench.communicate(timeout=300)
        finally:
            bench.kill()
    assert bench.returncode == 0, stdout
    assert _in_session(bench.pid) == [], "the run left processes behind"
    return json.loads(stdout.strip().splitlines()[-1])


def _in_session(session: int) -> list:
    """Command lines of the processes of ``session``, zombies included."""
    found = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as stat:
                if int(stat.read().rsplit(")", 1)[1].split()[3]) != session:
                    continue
            with open(f"/proc/{entry}/cmdline", "rb") as cmdline:
                found.append(f"{entry}: {cmdline.read().replace(bytes(1), b' ').decode()}")
        except (OSError, ValueError, IndexError):
            continue  # not a process, or gone since it was listed
    return found


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == [tuple(m) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in PER_LAYER
    ]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_end_to_end_metrics(workload):
    result = _run(workload, 1, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m.name for m in END_TO_END}
    for metric in END_TO_END:
        reading = result["metrics"][metric.name]
        assert reading["unit"] == metric.unit
        assert reading["value"] > 0, metric.name


def test_per_layer_metrics_cover_the_catalogue():
    measured = set()
    for workload in WORKLOADS:
        result = _run(workload, 1, 1)
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m.name for m in PER_LAYER}
        for metric in PER_LAYER:
            assert result["metrics"][metric.name]["unit"] == metric.unit
        measured |= {name for name, r in result["metrics"].items() if r["value"] != 0}
    # shed_ratio must read 0 and the benchmark-side spans cost the program
    # nothing; every other layer metric is measured somewhere.
    assert measured >= {m.name for m in PER_LAYER} - {"server.shed_ratio", "trace.overhead_pct"}
    assert _run("daemon-query", 1, 1)["metrics"]["server.shed_ratio"]["value"] == 0


def test_exact_counts_repeat_for_a_seed_and_move_with_it():
    def counts(seed: int, attempt: int) -> tuple:
        return tuple(
            _run(workload, seed, 1, attempt)["metrics"][name]["value"]
            for name, workload in EXACT.items()
        )

    assert counts(1, 0) == counts(1, 1)
    assert counts(1, 0) != counts(2, 0)


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
def test_daemon_child_never_outlives_the_benchmark(signum):
    """SIGINT unwinds through ``close``; SIGTERM kills the generator
    outright and the child's parent-death signal takes it down."""
    bench = subprocess.Popen(
        _argv("daemon-query", 1, 0), cwd=ROOT, stdout=subprocess.PIPE, text=True
    )
    try:
        daemon_pid = None
        for line in bench.stdout:
            match = re.search(r"daemon pid=(\d+)", line)
            if match:
                daemon_pid = int(match.group(1))
                break
        assert daemon_pid is not None, "benchmark never started a daemon"
        bench.send_signal(signum)
        bench.wait(timeout=60)
    finally:
        bench.kill()
        bench.stdout.close()
        bench.wait()
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if _gone(daemon_pid):
            return
        time.sleep(0.1)
    os.kill(daemon_pid, signal.SIGKILL)
    pytest.fail(f"daemon child {daemon_pid} outlived the benchmark")


def _gone(pid: int) -> bool:
    """No such process, or a zombie nobody has reaped yet."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True
