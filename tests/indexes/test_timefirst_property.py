"""Property leg: irHINT's time-first table vs the flat scan vs BruteForce.

Seeded traces interleave everything that can happen to a list under a
table — appends, mid-list inserts, deletes, delete-then-reinsert with the
same and with another interval, compaction, a pickle round trip, a spill
to non-i64 values — and after every step the subject
(:class:`IRHintPerformance` with the crossover forced to 8, so its lists
reach the table) must answer like plain :class:`TIF` and like
:class:`BruteForce`, and each fresh table must answer raw windows
(±inf, NaN, ``2.0**63``, floats past ``2**53``, point windows, the
domain's edges) like a Python loop over the live entries.  Three regimes:
a domain much wider than the grid, one beside the i64 limits, and a burst
narrower than the grid (where cells are exact offsets).

The traces are only as good as what they catch, so the mutants below are
checked in: each is a one-line change to ``repro/indexes/timefirst.py``
that some trace must kill (same discipline as the kernel mutants of
``tests/ir/test_postings_property.py``'s history, PRs 18/19).

Determinism: every trace derives from an integer seed; a mismatch prints
the regime, the seed and the step.
"""

from __future__ import annotations

import importlib.util
import pickle
import random
import sys
from typing import List

import numpy as np
import pytest

from repro.core.model import TemporalObject, make_query
from repro.indexes import irhint, timefirst
from repro.indexes.brute import BruteForce
from repro.indexes.tif import TIF
from repro.intervals.hint.traversal import assign
from repro.ir.packed import PackedPostingsList

SEEDS = (11, 4242)
N_OPS = 120

I64_MAX = (1 << 63) - 1
INF = float("inf")
_TWO_53 = 1 << 53

TERMS = (frozenset({"hot"}), frozenset({"hot", "warm"}), frozenset({"warm"}))


# --------------------------------------------------------------- generators
def _spread_interval(rng: random.Random):
    """A 10,000-unit domain with point, short and long lifespans: at m = 6
    the partitions are 157 units wide, so every level holds rows."""
    st = rng.randrange(10_000)
    return st, min(9_999, st + rng.choice((0, 0, 3, 40, 400, 6_000)))


def _extreme_interval(rng: random.Random):
    """Lifespans beside 2**53 and I64_MAX: a span too wide for the
    vectorised cell arithmetic, values float64 cannot tell apart."""
    st = rng.choice((0, 1, _TWO_53, _TWO_53 + 1, _TWO_53 + 2, I64_MAX - 2, I64_MAX - 1))
    return st, rng.choice((st, st + 1, I64_MAX))


def _burst_interval(rng: random.Random):
    """A term alive for 41 timestamps: fewer than the 64 cells of m = 6, so
    cells are exact offsets and only the domain's top maps past its offset."""
    st = rng.randrange(41)
    return st, min(40, st + rng.choice((0, 0, 1, 3, 10, 40)))


REGIMES = {"spread": _spread_interval, "extremes": _extreme_interval, "burst": _burst_interval}


def _windows(rng: random.Random, regime: str, live: List[TemporalObject]):
    """Query windows biased to stored endpoints; floats beside them."""
    stored = [t for obj in live for t in (obj.st, obj.end)] or [0]
    out = []
    for _ in range(6):
        a = rng.choice(stored) + rng.choice((-1, 0, 0, 1))
        b = a + rng.choice((0, 0, 1, 150, 5_000))
        out.append((a, b))
    a = rng.choice(stored)
    out += [(a - 0.5, a + 0.5), (float(a), float(a)), (min(stored), max(stored))]
    top = max(stored)  # a window starting at the last end, and just below it
    out += [(top, top), (top - 0.5, top + 3), (float(top), float(top) + 1)]
    if regime == "extremes":
        out += [(0, 2.0**63), (float(_TWO_53 + 2), 2.0**63), (2.0**63, 2.0**64)]
    return out


#: Raw bounds a TimeTravelQuery refuses; the table must still order them.
RAW_WINDOWS = [
    (-INF, INF), (-INF, 5_000), (5_000, INF), (float("nan"), INF), (0, float("nan")),
    (2.0**63, INF), (-INF, -(2.0**63)), (4_999.5, 4_999.75), (float(_TWO_53 + 2), INF),
]


# ------------------------------------------------------------------ harness
def run_trace(regime: str, seed: int, n_ops: int = N_OPS) -> irhint.IRHintPerformance:
    """Replay one seeded trace; AssertionError on the first mismatch.
    Returns the subject as the trace left it."""
    rng = random.Random(seed * 7907 + len(regime))
    interval = REGIMES[regime]
    subject = irhint.IRHintPerformance(num_bits=6)
    flat, oracle = TIF(), BruteForce()
    live: dict = {}
    next_even = 0

    def insert(obj: TemporalObject) -> None:
        live[obj.id] = obj
        for index in (subject, flat, oracle):
            index.insert(obj)

    def delete(object_id: int) -> TemporalObject:
        for index in (subject, flat, oracle):
            index.delete(object_id)
        return live.pop(object_id)

    def fresh(object_id: int) -> TemporalObject:
        d = {"hot"} | ({"warm"} if rng.random() < 0.5 else set())
        return TemporalObject(object_id, *interval(rng), frozenset(d))

    for _ in range(40):  # appends: even ids, the odd ones stay free
        insert(fresh(next_even))
        next_even += 2

    for step in range(n_ops):
        roll = rng.random()
        if roll < 0.25:
            op = "append"
            insert(fresh(next_even))
            next_even += 2
        elif roll < 0.40:
            op = "mid-list insert"
            free = [i for i in range(1, next_even, 2) if i not in live]
            if free:
                insert(fresh(rng.choice(free)))
        elif roll < 0.60 and live:
            op = "delete"
            delete(rng.choice(sorted(live)))
        elif roll < 0.72 and live:
            op = "reinsert, same interval"
            insert(delete(rng.choice(sorted(live))))
        elif roll < 0.82 and live:
            op = "reinsert, other interval"
            old = delete(rng.choice(sorted(live)))
            insert(TemporalObject(old.id, *interval(rng), old.d))
        elif roll < 0.88:
            op = "compaction"
            subject.inverted_file.compact()
            flat.inverted_file.compact()
        elif roll < 0.96:
            op = "pickle round trip"
            blob = pickle.dumps(subject)
            assert b"TimeFirstTable" not in blob
            subject = pickle.loads(blob)
            assert subject._tables == {}
        else:
            op = "spill"
            if regime == "spread" and step > n_ops // 2:
                insert(TemporalObject(next_even, 12.5, 99.25, frozenset({"hot", "warm"})))
                next_even += 2
                # Both lists now hold floats: no table is wanted, none is kept.
                assert not irhint.timefirst.wants_table(subject.inverted_file.postings("hot"))
                assert subject.stats()["n_tables"] == 0 and subject._tables == {}
        context = f"regime={regime!r} seed={seed} step={step} after {op}"

        for st, end in _windows(rng, regime, list(live.values())):
            for d in TERMS:
                q = make_query(st, end, d)
                want = oracle.query(q)
                assert flat.query(q) == want, f"{context}: tif on {q}"
                assert subject.query(q) == want, f"{context}: irhint on {q}"
        for element in ("hot", "warm"):
            postings = subject.inverted_file.postings(element)
            if not irhint.timefirst.wants_table(postings):
                continue
            table = subject._table_for(element, postings)
            for a, b in RAW_WINDOWS:
                want = sorted(
                    o.id for o in live.values() if element in o.d and a <= o.end and o.st <= b
                )
                got = table.scan_ids(postings, a, b)
                assert list(got) == want, f"{context}: table I[{element}] on [{a}, {b}]"
    return subject


@pytest.fixture()
def forced(small_tables):
    """The crossover at 8: the 40-object prefill already reaches the table."""


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_table_matches_flat_scan_and_brute_force(forced, regime, seed):
    run_trace(regime, seed)


def test_traces_reach_the_table_the_tail_and_the_spill(forced, monkeypatch):
    """Coverage the traces exist for, asserted on the subject itself."""
    seen = {"fresh": 0, "tail": 0, "dead": 0, "scalar cells": 0}
    real = timefirst.TimeFirstTable

    class Spy(real):
        def __init__(self, postings, num_bits):
            super().__init__(postings, num_bits)
            span = self.mapper.hi - self.mapper.lo
            seen["scalar cells"] += span * self.mapper.n_cells > I64_MAX

        def scan_ids(self, postings, q_st, q_end, notes=None):
            seen["fresh"] += 1
            seen["tail"] += postings.physical_len() > self.n_slots
            seen["dead"] += postings.alive_column() is not None
            return super().scan_ids(postings, q_st, q_end, notes)

    monkeypatch.setattr(timefirst, "TimeFirstTable", Spy)
    left = [run_trace(regime, seed) for regime in sorted(REGIMES) for seed in SEEDS]
    assert all(seen.values()), seen
    assert any(not index.inverted_file.postings("hot").layout_epoch for index in left)


@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_vectorised_assignment_equals_the_scalar_loop(regime):
    """The table's rows are ``traversal.assign`` of every slot — the loop
    version stays here as the reference — in (key, slot) order, each row
    carrying its slot's own entry."""
    rng = random.Random(77)
    postings = PackedPostingsList()
    for object_id in range(0, 1000, 2):
        postings.add(object_id, *REGIMES[regime](rng))
    entries = list(postings.entries())
    for m in (0, 1, 6, 13):
        table = timefirst.TimeFirstTable(postings, m)
        n_keys = 1 << (m + 1)
        want = sorted(
            ((1 << level) - 1 + j + (0 if is_original else n_keys), slot)
            for slot, (_id, st, end) in enumerate(entries)
            for level, j, is_original in assign(m, *table.mapper.cell_range(st, end))
        )
        keys = np.repeat(table._keys, np.diff(table._offsets)).tolist()
        slots, *columns = table._rows.tolist()
        assert list(zip(keys, slots)) == want, (regime, m)
        assert list(zip(*columns)) == [entries[slot] for slot in slots], (regime, m)


# ------------------------------------------------------------------ mutants
#: (name, the line as it stands in timefirst.py, what the mutant makes of it).
MUTANTS = [
    (
        "off by one at f",
        "first = mapper.cell(min(window)) >> self._shifts",
        "first = (mapper.cell(min(window)) >> self._shifts) + 1",
    ),
    (
        "off by one at l",
        'hi = self._keys.searchsorted(self._bases + last, "right")',
        'hi = self._keys.searchsorted(self._bases + last, "left")',
    ),
    (
        "replicas taken at in-between partitions",
        "last[m + 1 :] = first[m + 1 :]  # replicas: the first partition only",
        "pass",
    ),
    (
        "originals filed as replicas",
        "replica = ((a[right] << shift) > origin[right]) * n_keys",
        "replica = ((a[right] << shift) >= origin[right]) * n_keys",
    ),
    (
        "top of a narrow domain filed under its offset",
        "cells[column >= mapper.hi] = mapper.n_cells - 1",
        "pass",
    ),
    (
        "tombstones not looked up",
        "        if alive is not None:\n            hit &=",
        "        if False:\n            hit &=",
    ),
    (
        "stale table served after a shifting insert",
        "self.epoch == postings.layout_epoch",
        "True",
    ),
    (
        "tail not scanned",
        "if n_now > n:  # the tail",
        "if False:  # the tail",
    ),
]


def _mutated(old: str, new: str):
    """``repro.indexes.timefirst`` with one line changed, as a module."""
    source = open(timefirst.__file__, encoding="utf-8").read()
    assert source.count(old) == 1, f"mutant anchor not unique: {old!r}"
    spec = importlib.util.spec_from_file_location("timefirst_mutant", timefirst.__file__)
    module = importlib.util.module_from_spec(spec)
    exec(compile(source.replace(old, new), timefirst.__file__, "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("name,old,new", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_mutant_is_killed(monkeypatch, name, old, new):
    mutant = _mutated(old, new)
    mutant.TABLE_MIN = 8
    monkeypatch.setattr(irhint, "timefirst", mutant)
    killed_by = []
    for regime in sorted(REGIMES):
        for seed in SEEDS:
            try:
                run_trace(regime, seed)
            except AssertionError:
                killed_by.append((regime, seed))
    assert killed_by, f"mutant survived every trace: {name}"


def test_unmutated_module_survives_the_mutant_harness(monkeypatch):
    """The harness's own control: the same loader, no change, no kill."""
    anchor = "self.epoch == postings.layout_epoch"
    module = _mutated(anchor, anchor)
    module.TABLE_MIN = 8
    monkeypatch.setattr(irhint, "timefirst", module)
    for regime in sorted(REGIMES):
        run_trace(regime, SEEDS[0], n_ops=40)
    assert "timefirst_mutant" not in sys.modules
