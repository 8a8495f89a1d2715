"""Property leg: every index on the time-first table vs BruteForce.

Seeded traces interleave everything that can happen to a run under a
table — appends, mid-list inserts, deletes, delete-then-reinsert with the
same and with another interval or description, compaction, a pickle round
trip, a spill to non-i64 values — and after every step each subject must
answer like :class:`BruteForce` (and plain :class:`TIF`): irHINT-perf
under the ``small_tables`` charges, so its lists reach the table; the four
HINT-based indexes (``tif-hint-binary``, ``tif-hint-merge``,
``tif-hint-slicing``, ``irhint-size``), started empty; and two bare
:class:`Hint` over every live interval, capped at ``m = 6`` and at
``m = 0`` (the flat scan).  Every trace must take the cost rule's three
paths: a narrow read served by a table, a run the rule reads flat, and a
window sent flat per query.  Each fresh table must answer raw
windows (±inf, NaN, ``2.0**63``, floats past ``2**53``, point windows, the
domain's edges) like a Python loop over the live entries.  Three regimes:
a domain much wider than the grid, one beside the i64 limits, and a burst
narrower than the grid (where cells are exact offsets).

The traces are only as good as what they catch, so the mutants below are
checked in: each is a one-line change to the table
(``repro/intervals/hint/timefirst.py``), to the cost rule
(``repro/intervals/hint/cost_model.py``), to ``Hint``'s division reads
(``repro/intervals/hint/index.py``) or to irHINT-size's id columns
(``repro/indexes/irhint.py``) that some trace must kill (same discipline
as the kernel mutants of ``tests/ir/test_postings_property.py``'s
history).

Determinism: every trace derives from an integer seed; a mismatch prints
the regime, the seed and the step.
"""

from __future__ import annotations

import importlib.util
import pickle
import random
import sys
import types
from typing import Dict, List

import numpy as np
import pytest

from repro.core.model import TemporalObject, make_query
from repro.indexes import irhint
from repro.indexes.brute import BruteForce
from repro.indexes.tif import TIF
from repro.indexes.tif_hint import TIFHintBinary, TIFHintMerge
from repro.indexes.tif_hint_slicing import TIFHintSlicing
from repro.intervals.hint import cost_model, timefirst
from repro.intervals.hint import index as hint_index
from repro.intervals.hint.index import Hint
from repro.intervals.hint.traversal import assign
from repro.ir.blocks import exact_window
from repro.ir.packed import PackedPostingsList

SEEDS = (11, 4242)
N_OPS = 120

I64_MAX = (1 << 63) - 1
INF = float("inf")
_TWO_53 = 1 << 53

TERMS = (frozenset({"hot"}), frozenset({"hot", "warm"}), frozenset({"warm"}), frozenset())
DESCRIPTIONS = TERMS[:3]


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
def _subjects() -> Dict[str, object]:
    """Every index the table serves, started empty, at m = 6."""
    return {
        "irhint-perf": irhint.IRHintPerformance(num_bits=6),
        "tif-hint-binary": TIFHintBinary(num_bits=6),
        "tif-hint-merge": TIFHintMerge(num_bits=6),
        "tif-hint-slicing": TIFHintSlicing(num_bits=6, n_slices=8),
        "irhint-size": irhint.IRHintSize(num_bits=6),
    }


def _hints(subjects: Dict[str, object], bare: List[Hint]) -> List[Hint]:
    """Every ``Hint`` the subjects hold, and the bare ones."""
    found = list(bare)
    for subject in subjects.values():
        found += getattr(subject, "_hints", {}).values()
        found += [hint for hint in [getattr(subject, "_hint", None)] if hint is not None]
    return found


def run_trace(regime: str, seed: int, n_ops: int = N_OPS) -> Dict[str, object]:
    """Replay one seeded trace; AssertionError on the first mismatch.
    Returns the subjects (and the bare ``Hint`` at ``m = 6``, as
    ``"hint"``) as the trace left them."""
    rng = random.Random(seed * 7907 + len(regime))
    interval = REGIMES[regime]
    subjects = _subjects()
    bare = [Hint(6), Hint(0)]
    flat, oracle = TIF(), BruteForce()
    live: dict = {}
    next_even = 0

    def insert(obj: TemporalObject) -> None:
        live[obj.id] = obj
        for index in (*subjects.values(), flat, oracle):
            index.insert(obj)
        for hint in bare:
            hint.insert(obj.id, obj.st, obj.end)

    def delete(object_id: int) -> TemporalObject:
        for index in (*subjects.values(), flat, oracle):
            index.delete(object_id)
        old = live.pop(object_id)
        for hint in bare:
            hint.delete(object_id, old.st, old.end)
        return old

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
        elif roll < 0.56 and live:
            op = "delete"
            delete(rng.choice(sorted(live)))
        elif roll < 0.68 and live:
            op = "reinsert, same interval"
            insert(delete(rng.choice(sorted(live))))
        elif roll < 0.76 and live:
            op = "reinsert, other interval"
            old = delete(rng.choice(sorted(live)))
            insert(TemporalObject(old.id, *interval(rng), old.d))
        elif roll < 0.82 and live:
            op = "reinsert, other description"
            old = delete(rng.choice(sorted(live)))
            d = rng.choice([d for d in DESCRIPTIONS if d != old.d])
            insert(TemporalObject(old.id, old.st, old.end, d))
        elif roll < 0.88:
            op = "compaction"
            flat.inverted_file.compact()
            for hint in _hints(subjects, bare):
                hint._run.compact()
        elif roll < 0.96:
            op = "pickle round trip"
            blob = pickle.dumps((subjects, bare))
            assert b"TimeFirstTable" not in blob
            subjects, bare = pickle.loads(blob)
            assert subjects["irhint-size"]._columns is None
            assert all(hint._table is None for hint in _hints(subjects, bare))
        else:
            op = "spill"
            if regime == "spread" and step > n_ops // 2:
                insert(TemporalObject(next_even, 12.5, 99.25, frozenset({"hot", "warm"})))
                next_even += 2
                # Both lists now hold floats: no table is wanted, none is kept.
                assert subjects["irhint-perf"].stats()["n_tables"] == 0
                assert all(hint.table() is None for hint in _hints(subjects, bare))
        context = f"regime={regime!r} seed={seed} step={step} after {op}"

        for st, end in _windows(rng, regime, list(live.values())):
            for d in TERMS:
                q = make_query(st, end, d)
                want = oracle.query(q).tolist()
                assert flat.query(q).tolist() == want, f"{context}: tif on {q}"
                for name, subject in subjects.items():
                    assert subject.query(q).tolist() == want, f"{context}: {name} on {q}"
            want = sorted(o.id for o in live.values() if st <= o.end and o.st <= end)
            for hint in bare:
                got = hint.range_query(st, end)
                assert got == want, f"{context}: Hint({hint.num_bits}) on [{st}, {end}]"
        perf, binary = subjects["irhint-perf"], subjects["tif-hint-binary"]
        for element in ("hot", "warm"):
            tables = []
            for subject in (perf, binary):
                hint = subject.hint_for(element)
                if hint is not None and hint.table() is not None:
                    tables.append((hint.table(), hint._run))
            for table, run in tables:
                for a, b in RAW_WINDOWS:
                    want = sorted(
                        o.id for o in live.values() if element in o.d and a <= o.end and o.st <= b
                    )
                    got = table.scan_ids(run, a, b)
                    assert list(got) == want, f"{context}: table I[{element}] on [{a}, {b}]"
        for hint in _hints(subjects, bare):
            verdict = hint._table
            if verdict is not None and verdict.table is not None:
                assert verdict.table.mapper.num_bits <= hint.num_bits, f"{context}: m over the cap"
    return {**subjects, "hint": bare[0]}


@pytest.fixture()
def forced(small_tables):
    """The ``small_tables`` charges: the 40-object prefill already reaches
    the table."""


def _traced(regime: str, seed: int, n_ops: int = N_OPS) -> Dict[str, object]:
    """:func:`run_trace`, counting the paths the cost rule sends each read
    down — whatever rule is installed, a mutant's included — and asserting
    that the trace took all three."""
    paths = {"narrow table read": 0, "flat verdict": 0, "per-query fallback": 0}
    decide, prefers_flat = timefirst.decide, cost_model.prefers_flat

    def counted_decide(postings, held, cap):
        verdict = decide(postings, held, cap)
        paths["flat verdict"] += verdict is not None and verdict.table is None
        return verdict

    def counted_prefers_flat(slices, rows, n_slots):
        flat = prefers_flat(slices, rows, n_slots)
        paths["per-query fallback"] += flat
        paths["narrow table read"] += not flat and rows < n_slots
        return flat

    timefirst.decide, cost_model.prefers_flat = counted_decide, counted_prefers_flat
    try:
        left = run_trace(regime, seed, n_ops)
    finally:
        timefirst.decide, cost_model.prefers_flat = decide, prefers_flat
    assert all(paths.values()), f"regime={regime!r} seed={seed}: a path never taken: {paths}"
    return left


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_table_matches_flat_scan_and_brute_force(forced, regime, seed):
    _traced(regime, seed)


def test_traces_reach_the_table_the_tail_and_the_spill(forced, monkeypatch):
    """Coverage the traces exist for, asserted on the subjects themselves."""
    seen = {
        "fresh": 0, "tail": 0, "dead": 0, "scalar cells": 0,
        "gathered tail": 0, "gathered dead": 0, "id columns": 0,
    }
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

        def gather(self, postings, bounds, notes=None):
            seen["gathered tail"] += postings.physical_len() > self.n_slots
            seen["gathered dead"] += postings.alive_column() is not None
            return super().gather(postings, bounds, notes)

    columns_for = irhint.IRHintSize._columns_for

    def counted(index, table):
        seen["id columns"] += index._columns is None or index._columns[0] is not table
        return columns_for(index, table)

    monkeypatch.setattr(timefirst, "TimeFirstTable", Spy)
    monkeypatch.setattr(irhint.IRHintSize, "_columns_for", counted)
    left = [_traced(regime, seed) for regime in sorted(REGIMES) for seed in SEEDS]
    assert all(seen.values()), seen
    for key in ("irhint-perf", "hint"):
        spilled = [
            subjects[key].hint_for("hot")._run if key == "irhint-perf"
            else subjects[key]._run
            for subjects in left
        ]
        assert any(not run.layout_epoch for run in spilled), key


def _scalar_sweep(m: int, first: int, last: int) -> set:
    """The divisions a window over cells ``[first, last]`` reads, one
    ``(level, j, is_original)`` at a time: originals of ``f … l``, replicas
    of ``f``."""
    out = set()
    for level in range(m, -1, -1):
        f, l = first >> (m - level), last >> (m - level)
        out |= {(level, j, True) for j in range(f, l + 1)} | {(level, f, False)}
    return out


@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_division_slices_are_the_scalar_sweep(regime):
    """The row ranges a window reads are exactly the rows of the divisions
    the scalar sweep names."""
    rng = random.Random(5)
    postings = PackedPostingsList()
    for object_id in range(0, 600, 2):
        postings.add(object_id, *REGIMES[regime](rng))
    stored = [t for _id, st, end in postings.entries() for t in (st, end)]
    for m in (0, 3, 6):
        table = timefirst.TimeFirstTable(postings, m)
        n_keys = 1 << (m + 1)
        keys = np.repeat(table._keys, np.diff(table._offsets)).tolist()
        for _ in range(30):
            a = rng.choice(stored) + rng.choice((-1, 0, 1))
            window = exact_window(a, a + rng.choice((0, 1, 150, 5_000)))
            if window is None:
                continue
            read = {row for start, stop in table.slices(window) for row in range(start, stop)}
            want_divisions = _scalar_sweep(m, *table.mapper.cell_range(*window))
            want = set()
            for row, key in enumerate(keys):
                original, k = key < n_keys, key % n_keys
                level = (k + 1).bit_length() - 1
                if (level, k - (1 << level) + 1, original) in want_divisions:
                    want.add(row)
            assert read == want, (regime, m, window)


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
#: (name, module, the line as it stands there, what the mutant makes of it).
MUTANTS = [
    (
        "off by one at f",
        timefirst,
        "first = mapper.cell(min(window)) >> self._shifts",
        "first = (mapper.cell(min(window)) >> self._shifts) + 1",
    ),
    (
        "off by one at l",
        timefirst,
        'hi = self._keys.searchsorted(self._bases + last, "right")',
        'hi = self._keys.searchsorted(self._bases + last, "left")',
    ),
    (
        "replicas taken at in-between partitions",
        timefirst,
        "last[m + 1 :] = first[m + 1 :]  # replicas: the first partition only",
        "pass",
    ),
    (
        "originals filed as replicas",
        timefirst,
        "replica = ((a[right] << shift) > origin[right]) * n_keys",
        "replica = ((a[right] << shift) >= origin[right]) * n_keys",
    ),
    (
        "top of a narrow domain filed under its offset",
        timefirst,
        "cells[column >= mapper.hi] = mapper.n_cells - 1",
        "pass",
    ),
    (
        "tombstones not looked up",
        timefirst,
        "        if alive is not None:\n            hit &=",
        "        if False:\n            hit &=",
    ),
    (
        "stale table served after a shifting insert",
        timefirst,
        "self.epoch == postings.layout_epoch",
        "True",
    ),
    (
        "tail not scanned",
        timefirst,
        "if n_now > n:  # the tail",
        "if False:  # the tail",
    ),
    (
        "rule always flat",
        timefirst,
        "return TimeFirstTable(postings, m) if m else Verdict(postings)",
        "return Verdict(postings)",
    ),
    (
        "rule always table",
        timefirst,
        "return TimeFirstTable(postings, m) if m else Verdict(postings)",
        "return TimeFirstTable(postings, m)",
    ),
    (
        "per-query fallback inverted",
        cost_model,
        "return table_cost(slices, rows) >= n_slots",
        "return table_cost(slices, rows) < n_slots",
    ),
    (
        "cap ignored",
        cost_model,
        "cap = min(cap, MAX_BITS)",
        "cap = MAX_BITS",
    ),
    (
        "a Hint serves a stale table",
        timefirst,
        "if held is not None and held.is_fresh(postings):",
        "if held is not None:",
    ),
    (
        "dead division rows pass the overlap mask",
        hint_index,
        "return hit if live is None else hit & live",
        "return hit",
    ),
    (
        "sweep keeps dead rows",
        hint_index,
        "ids = gathered[-3] if live is None else gathered[-3][live]",
        "ids = gathered[-3]",
    ),
    (
        "sweep intersects unsorted ids",
        hint_index,
        "ids = np.sort(ids)",
        "ids = ids",
    ),
    (
        "division rows number the tail from n_slots",
        hint_index,
        "+ [np.arange(table.n_rows, table.n_rows + tail)]",
        "+ [np.arange(table.n_slots, table.n_slots + tail)]",
    ),
    (
        "id columns kept across a revive",
        irhint,
        "if self._columns is not None and obj.id <= self._columns[1]:",
        "if False:",
    ),
    (
        "id columns split by row, not by element",
        irhint,
        "order = np.lexsort((rows, elements))",
        "order = np.lexsort((elements, rows))",
    ),
    (
        "tail objects not checked against the catalog",
        irhint,
        "kept = [oid for oid in tail if self._holds(oid, ordered)]",
        "kept = tail",
    ),
]


def _mutated(module: types.ModuleType, old: str, new: str) -> types.ModuleType:
    """``module`` with one line changed, as a module of its own."""
    source = open(module.__file__, encoding="utf-8").read()
    assert source.count(old) == 1, f"mutant anchor not unique: {old!r}"
    spec = importlib.util.spec_from_file_location(f"{module.__name__}_mutant", module.__file__)
    mutant = importlib.util.module_from_spec(spec)
    exec(compile(source.replace(old, new), module.__file__, "exec"), mutant.__dict__)
    return mutant


def _install(monkeypatch, module: types.ModuleType, mutant: types.ModuleType) -> int:
    """Swap in every function of ``mutant`` whose code differs from
    ``module``'s — module-level, or a method of a class defined there — so
    every importer sees it.  Returns how many were swapped."""
    swapped = 0
    for name, real in vars(module).items():
        if getattr(real, "__module__", None) != module.__name__:
            continue
        if isinstance(real, types.FunctionType):
            pairs = [(module, name, real, getattr(mutant, name))]
        elif isinstance(real, type):
            other = vars(getattr(mutant, name))
            pairs = [
                (real, attr, member, other[attr])
                for attr, member in vars(real).items()
                if isinstance(member, types.FunctionType)
            ]
        else:
            continue
        for owner, attr, member, replacement in pairs:
            if member.__code__ != replacement.__code__:
                monkeypatch.setattr(owner, attr, replacement)
                swapped += 1
    return swapped


@pytest.mark.parametrize("name,module,old,new", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_mutant_is_killed(forced, monkeypatch, name, module, old, new):
    assert _install(monkeypatch, module, _mutated(module, old, new)) == 1
    for regime in sorted(REGIMES):
        for seed in SEEDS:
            try:
                _traced(regime, seed)
            except Exception:  # a wrong answer, a path never taken, or a crash
                return
    pytest.fail(f"mutant survived every trace: {name}")


def test_unmutated_module_survives_the_mutant_harness(forced, monkeypatch):
    """The harness's own control: the same loader and the same swap, a
    change that keeps the behaviour, no kill."""
    anchor = "self.epoch == postings.layout_epoch"
    mutant = _mutated(timefirst, anchor, f"{anchor} and True")
    assert _install(monkeypatch, timefirst, mutant) == 1
    for regime in sorted(REGIMES):
        _traced(regime, SEEDS[0], n_ops=40)
    assert not any(name.endswith("_mutant") for name in sys.modules)
