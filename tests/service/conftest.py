"""Shared fixtures for the crash-safety suite: deterministic workloads.

Everything here is seeded — the fault-injection tests assert byte-exact
convergence between an interrupted run and its uninterrupted oracle, so
the op stream must be identical on every run and platform.
"""

from __future__ import annotations

import os
import random
from typing import List, Tuple

import pytest

from repro.core.model import TemporalObject, TimeTravelQuery, make_object, make_query
from repro.indexes.brute import BruteForce

#: Fixed seed of the crash-consistency workload; CI pins it explicitly via
#: the REPRO_FAULT_SEED environment variable.
FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "20250806"))

#: A store op: ("insert", TemporalObject) or ("delete", object_id).
StoreOp = Tuple


def make_ops(n: int = 80, seed: int = FAULT_SEED) -> List[StoreOp]:
    """A deterministic interleaving of inserts and valid deletes."""
    rng = random.Random(seed)
    elements = [f"e{i}" for i in range(12)]
    ops: List[StoreOp] = []
    live: List[int] = []
    next_id = 0
    for _ in range(n):
        if live and rng.random() < 0.25:
            victim = live.pop(rng.randrange(len(live)))
            ops.append(("delete", victim))
        else:
            st = rng.randint(0, 10_000)
            end = st + rng.randint(0, 1_000)
            d = frozenset(rng.sample(elements, rng.randint(1, 4)))
            ops.append(("insert", make_object(next_id, st, end, d)))
            live.append(next_id)
            next_id += 1
    return ops


def apply_ops(target, ops: List[StoreOp]) -> None:
    """Apply a workload to anything exposing ``insert``/``delete``."""
    for op in ops:
        if op[0] == "insert":
            target.insert(op[1])
        else:
            target.delete(op[1])


def oracle_index(ops: List[StoreOp]) -> BruteForce:
    """The uninterrupted ground truth: the ops applied to a BruteForce."""
    index = BruteForce()
    apply_ops(index, ops)
    return index


def probe_queries() -> List[TimeTravelQuery]:
    """Probes mixing pure-temporal, selective and broad element queries."""
    return [
        make_query(0, 11_000),
        make_query(2_000, 4_000),
        make_query(0, 11_000, {"e0"}),
        make_query(1_000, 9_000, {"e1", "e2"}),
        make_query(5_000, 5_000, {"e3"}),
        make_query(0, 500, {"e0", "e5"}),
    ]


def query_results(index) -> List[List[int]]:
    """The index's answers to every probe (the convergence fingerprint)."""
    return [index.query(q).tolist() for q in probe_queries()]


@pytest.fixture()
def ops() -> List[StoreOp]:
    return make_ops()
