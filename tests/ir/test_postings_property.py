"""Property-based differential harness: every postings layout vs one model.

:class:`~tests.ir.model.PostingsModel` — a dict of live entries — is the
reference semantics for the whole postings surface: adds that overwrite
and revive, deletes, order-preserving scans, the intersection, span.
This harness replays seeded operation traces drawn from *adversarial
regimes* (duplicate-heavy id universes, point intervals, tombstone churn,
i64 extremes, float/overflow spill) against ``packed`` and ``compressed``
and cross-checks the **full** observable surface after every mutation
(the ``blocks`` regime first bulk-loads enough entries that the block
layouts seal, tombstone and rebuild real blocks; the ``extremes`` regime
bulk-loads half-way, so its second half runs on packed's numpy kernels;
the read-only ``cold`` view is checked over the model's entries laid
out as a segment's catalog columns and rows after each step):

``add`` / ``delete`` (exception parity included) / ``__len__`` /
``__contains__`` / ``entries`` / ``ids`` / ``overlapping`` /
``overlapping_ids`` (both sides, and each side open) /
``intersect_sorted`` / ``span`` / ``size_bytes`` invariants.

Determinism: no wall-clock, no unseeded RNG — every trace derives from
an explicit integer seed, and a mismatch prints the seed, the regime and
the reproducing operation trace (same discipline as
``tests/exec/test_differential.py``).  CI pins the per-trace operation
budget with ``REPRO_POSTINGS_PROP_OPS``; the defaults below replay
500+ operations per layout.
"""

from __future__ import annotations

import os
import random
from typing import Callable, List, Tuple

import numpy as np
import pytest

from repro.core.errors import UnknownObjectError
from repro.ir.blocks import BLOCK_SIZE
from repro.ir.cold import ColdPostingsList, SegmentColumns
from repro.ir.compressed import CompressedPostingsList
from repro.ir.packed import _VECTOR_MIN, PackedPostingsList
from repro.utils.memory import CONTAINER_BYTES

from tests.ir.model import PostingsModel

#: Operations per (backend, regime, seed) trace; CI pins this knob the
#: same way REPRO_DIFF_OPS pins the exec harness.
N_OPS = int(os.environ.get("REPRO_POSTINGS_PROP_OPS", "60"))

SEEDS = (2025, 8061)

I64_MIN = -(1 << 63)
I64_MAX = (1 << 63) - 1

Op = Tuple  # ("add", id, st, end) | ("delete", id)


# --------------------------------------------------------------- generators
def _gen_mixed(rng: random.Random) -> Op:
    """General workload: moderate id universe, mixed interval shapes."""
    if rng.random() < 0.30:
        return ("delete", rng.randrange(160))
    st = rng.randint(-500, 2_000)
    return ("add", rng.randrange(160), st, st + rng.choice([0, 1, 7, 90, 800]))


def _gen_duplicates(rng: random.Random) -> Op:
    """Tiny id universe: every add is likely an overwrite or a revive."""
    if rng.random() < 0.35:
        return ("delete", rng.randrange(8))
    st = rng.randint(0, 50)
    return ("add", rng.randrange(8), st, st + rng.choice([0, 0, 3, 10]))


def _gen_points(rng: random.Random) -> Op:
    """Every interval is a point (st == end) — boundary-equality heavy."""
    if rng.random() < 0.25:
        return ("delete", rng.randrange(120))
    t = rng.randint(0, 300)
    return ("add", rng.randrange(120), t, t)


def _gen_churn(rng: random.Random) -> Op:
    """Tombstone-heavy: deletes dominate, compaction must keep up."""
    if rng.random() < 0.55:
        return ("delete", rng.randrange(100))
    st = rng.randint(0, 1_000)
    return ("add", rng.randrange(100), st, st + rng.choice([0, 5, 60]))


#: Neighbours above 2**53, where float64 no longer tells integers apart:
#: a float query bound there must still order them as Python does.
_ABOVE_2_53 = ((1 << 53) + 1, (1 << 53) + 2, (1 << 53) + 3)


def _extreme_interval(rng: random.Random) -> Tuple[int, int]:
    st = rng.choice((I64_MIN, I64_MIN + 1, -1, 0, 1, I64_MAX - 1, I64_MAX) + _ABOVE_2_53)
    return st, rng.choice((st, I64_MAX)) if st != I64_MAX else st


def _gen_extremes(rng: random.Random) -> Op:
    """Ids and timestamps at the i64 boundary (packed/compressed native
    limits) and just past float64's exact range: the columns must neither
    wrap nor lose precision, whatever the type of the query bound."""
    ids = (0, 1, I64_MAX, I64_MAX - 1, I64_MIN, I64_MIN + 1, 7, 1 << 40)
    if rng.random() < 0.30:
        return ("delete", rng.choice(ids))
    return ("add", rng.choice(ids), *_extreme_interval(rng))


def _extremes_bulk(seed: int) -> List[Op]:
    """The ``extremes`` regime's unchecked mid-trace bulk load, on ids the
    generator never deletes: from there on the list stays past
    ``_VECTOR_MIN`` and packed answers from its numpy kernels."""
    rng = random.Random(seed * 7919 + 11)
    return [("add", 100 + i, *_extreme_interval(rng)) for i in range(_VECTOR_MIN + 6)]


def _gen_spill(rng: random.Random) -> Op:
    """Floats and beyond-i64 ints: forces the packed/compressed one-way
    spill to boxed storage mid-trace, which must be seamless."""
    if rng.random() < 0.25:
        return ("delete", rng.randrange(60))
    roll = rng.random()
    if roll < 0.4:
        st: float = rng.uniform(-100.0, 100.0)
        return ("add", rng.randrange(60), st, st + rng.uniform(0.0, 10.0))
    if roll < 0.5:
        big = 1 << rng.randint(64, 80)
        return ("add", rng.randrange(60), -big, big)
    st2 = rng.randint(0, 500)
    return ("add", rng.randrange(60), st2, st2 + rng.choice([0, 2, 30]))


#: The ``blocks`` regime's bulk load: three ids of every four (the fourth
#: stays free for out-of-order inserts; neighbours straddle block
#: boundaries), near-sorted short intervals so block summaries are tight
#: and the skip scans really skip.
_BLOCKS_N = 5 * BLOCK_SIZE + 40
_BLOCKS_IDS = 4 * _BLOCKS_N // 3


def _blocks_interval(rng: random.Random, object_id: int) -> Tuple[int, int]:
    st = 2 * object_id + rng.randint(-4, 4)
    return st, st + rng.choice([0, 5, 40])


def _blocks_prefill(seed: int) -> List[List[Op]]:
    """Unchecked bulk phases (the surface is checked after each one): five
    sealed blocks plus a tail; then tombstones — all inside sealed blocks —
    up to exactly half the entries, the brink of the compaction threshold;
    then the one delete that crosses it."""
    rng = random.Random(seed * 7919 + 5)
    adds: List[Op] = [
        ("add", oid, *_blocks_interval(rng, oid))
        for oid in (4 * i // 3 for i in range(_BLOCKS_N))
    ]
    doomed = rng.sample(adds[: 4 * BLOCK_SIZE], _BLOCKS_N // 2 + 1)
    deletes: List[Op] = [("delete", op[1]) for op in doomed]
    return [adds, deletes[:-1], deletes[-1:]]


def _gen_blocks(rng: random.Random) -> Op:
    """Churn over the bulk-loaded universe: deletes tombstone entries of
    sealed blocks (or miss: free and already-dead ids), adds overwrite or
    revive a loaded id, insert a free one out of order (both rebuild), or
    append above the universe (the tail)."""
    roll = rng.random()
    if roll < 0.40:
        return ("delete", rng.randrange(_BLOCKS_IDS))
    if roll < 0.85:
        oid = rng.randrange(_BLOCKS_IDS)
    else:
        oid = _BLOCKS_IDS + rng.randrange(400)
    return ("add", oid, *_blocks_interval(rng, oid))


REGIMES: List[Tuple[str, Callable[[random.Random], Op]]] = [
    ("mixed", _gen_mixed),
    ("duplicates", _gen_duplicates),
    ("points", _gen_points),
    ("churn", _gen_churn),
    ("extremes", _gen_extremes),
    ("spill", _gen_spill),
    ("blocks", _gen_blocks),
]
REGIME_GENERATORS = dict(REGIMES)
REGIME_NAMES = [name for name, _ in REGIMES]

#: The mutable layouts under the harness.
BACKENDS = {"packed": PackedPostingsList, "compressed": CompressedPostingsList}
#: ``cold`` holds what a segment's i64 columns hold: every regime but the
#: one whose floats and beyond-i64 ints exist to force a spill.
COLD_REGIMES = [name for name in REGIME_NAMES if name != "spill"]


def make_trace(regime: str, seed: int, n_ops: int) -> List[Op]:
    """The deterministic operation trace for one (regime, seed) pair."""
    rng = random.Random(seed * 6151 + 17)
    gen = REGIME_GENERATORS[regime]
    return [gen(rng) for _ in range(n_ops)]


def format_trace(ops: List[Op]) -> str:
    lines = []
    for i, op in enumerate(ops):
        if op[0] == "add":
            lines.append(f"  {i:3d} add    id={op[1]} [{op[2]}, {op[3]}]")
        else:
            lines.append(f"  {i:3d} delete id={op[1]}")
    return "\n".join(lines)


# ----------------------------------------------------------------- checking
def _probe_times(rng: random.Random, oracle: PostingsModel) -> List:
    """Query timestamps biased toward stored endpoints (boundary hits),
    one of them as a float: past 2**53 that is a *neighbour's* value, and
    for ``I64_MAX`` one beyond the i64 range."""
    stored = [t for _, st, end in oracle.entries() for t in (st, end)]
    times = [rng.randint(-600, 2_200), rng.uniform(-50.0, 50.0)]
    if stored:
        times.append(rng.choice(stored))
        times.append(float(rng.choice(stored)))
    return times


def _check_surface(
    backend: str, subject, oracle: PostingsModel, rng: random.Random, context: str
) -> None:
    """Compare every read-side observation of ``subject`` vs the oracle."""
    # A cold view models bytes on disk, not a container: empty is 0 bytes.
    size_floor = 0 if backend == "cold" else CONTAINER_BYTES

    def expect(label: str, got, want) -> None:
        assert got == want, (
            f"{context}\n  surface  {label}\n  got      {got!r}\n"
            f"  expected {want!r}"
        )

    expect("len()", len(subject), len(oracle))
    expect("bool()", bool(subject), bool(oracle))
    expect("entries()", list(subject.entries()), list(oracle.entries()))
    expect("ids()", subject.ids(), oracle.ids())
    assert subject.physical_len() >= len(subject), (
        f"{context}\n  physical_len() {subject.physical_len()} < live "
        f"len() {len(subject)}"
    )
    assert subject.size_bytes() >= size_floor, (
        f"{context}\n  size_bytes() fell below the container overhead"
    )

    known = oracle.ids()
    probes = [rng.randrange(200), I64_MAX, I64_MIN]
    if known:
        probes.append(rng.choice(known))
    # Where a freshly sealed list changes block: the last id of each run
    # and the first of the next.
    probes += known[BLOCK_SIZE - 1 :: BLOCK_SIZE] + known[BLOCK_SIZE::BLOCK_SIZE]
    for oid in probes:
        expect(f"{oid} in list", oid in subject, oid in oracle)

    times = _probe_times(rng, oracle)
    for q_st in times:
        for window in ((q_st, float("inf")), (float("-inf"), q_st)):
            expect(
                f"overlapping_ids{window}",
                subject.overlapping_ids(*window),
                oracle.overlapping_ids(*window),
            )
        for q_end in times:
            if q_end < q_st:
                continue
            expect(
                f"overlapping_ids({q_st}, {q_end})",
                subject.overlapping_ids(q_st, q_end),
                oracle.overlapping_ids(q_st, q_end),
            )
            expect(
                f"overlapping({q_st}, {q_end})",
                subject.overlapping(q_st, q_end),
                oracle.overlapping(q_st, q_end),
            )

    # Candidate sets: subsets of stored ids, misses, duplicates, and a long
    # run that keeps the merge path (not just the gallop path) exercised.
    candidate_sets = [
        [],
        sorted(rng.sample(known, min(len(known), 5))) if known else [0],
        sorted({rng.randrange(250) for _ in range(rng.randint(1, 40))}),
        [I64_MIN, -3, 0, I64_MAX - 1, I64_MAX],
    ]
    if known:
        dup_source = sorted(rng.choices(known, k=min(len(known), 6)))
        candidate_sets.append(dup_source)  # repeated candidates must dedup
    for candidates in candidate_sets:
        expect(
            f"intersect_sorted({candidates})",
            subject.intersect_sorted(candidates),
            oracle.intersect_sorted(candidates),
        )

    try:
        want_span = oracle.span()
    except UnknownObjectError:
        with pytest.raises(UnknownObjectError):
            subject.span()
    else:
        expect("span()", subject.span(), want_span)


def _apply(target, op: Op) -> bool:
    """Apply one operation; True when it raised ``UnknownObjectError``."""
    try:
        if op[0] == "add":
            target.add(op[1], op[2], op[3])
        else:
            target.delete(op[1])
    except UnknownObjectError:
        return True
    return False


def _cold_view(oracle: PostingsModel) -> ColdPostingsList:
    """The model's entries as a cold list, laid out the way a segment is:
    a catalog in id order — the model's objects, and an object spanning
    every time in each gap of the id range, which the list must never
    report — and the list as the ascending catalog rows of its entries.
    Every read is metered as one run, read or skipped."""
    entries = list(oracle.entries())
    catalog = []
    for at, entry in enumerate(entries):
        below = entries[at - 1][0] + 1 if at else I64_MIN
        if below < entry[0]:  # a gap before this id: an object in it
            catalog.append(((below + entry[0]) // 2, I64_MIN, I64_MAX))
        catalog.append(entry)
    columns = np.array(catalog, dtype=np.int64).reshape(-1, 3).T.copy()
    rows = np.flatnonzero(np.isin(columns[0], [entry[0] for entry in entries]))

    def sink(read: bool) -> None:
        assert type(read) is bool, f"cold metering: {read!r} is not one run read or skipped"

    return ColdPostingsList(
        SegmentColumns(rows.astype(np.int32), *columns), 0, len(rows), sink
    )


def run_property_trace(backend: str, regime: str, seed: int, n_ops: int = N_OPS) -> None:
    """Replay one trace against ``backend`` and the oracle; fail loudly.

    ``cold`` cannot be mutated: its subject is rebuilt from the model's
    entries before every check instead.
    """
    subject = None if backend == "cold" else BACKENDS[backend]()
    oracle = PostingsModel()
    check_rng = random.Random(seed ^ 0x5EED)

    def check(context: str) -> None:
        view = _cold_view(oracle) if subject is None else subject
        _check_surface(backend, view, oracle, check_rng, context)

    def bulk(phase: List[Op]) -> None:
        for op in phase:
            _apply(oracle, op)
            if subject is not None:
                _apply(subject, op)

    prefill = _blocks_prefill(seed) if regime == "blocks" else []
    for number, phase in enumerate(prefill):
        bulk(phase)
        check(
            f"{backend}: postings property mismatch after prefill phase "
            f"{number} of {len(prefill)} (regime={regime!r}, seed={seed})"
        )
    ops = make_trace(regime, seed, n_ops)
    for step, op in enumerate(ops):
        context = (
            f"{backend}: postings property mismatch at step {step} "
            f"(regime={regime!r}, seed={seed}, n_ops={n_ops}); reproducing "
            f"trace:\n{format_trace(ops[: step + 1])}"
        )
        if regime == "extremes" and step == n_ops // 2:
            bulk(_extremes_bulk(seed))
        oracle_raised = _apply(oracle, op)
        if subject is not None:
            subject_raised = _apply(subject, op)
            assert subject_raised == oracle_raised, (
                f"{context}\n  {op[0]}({op[1]}) exception parity: subject "
                f"raised={subject_raised}, oracle raised={oracle_raised}"
            )
        check(context)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("regime", REGIME_NAMES)
@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_postings_backend_matches_oracle(backend, regime, seed):
    """Each mutable layout is observationally equal to the model on
    seeded adversarial traces."""
    run_property_trace(backend, regime, seed)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("regime", COLD_REGIMES)
def test_cold_backend_matches_oracle(regime, seed):
    """The read-only cold view, over the same traces: whatever the model
    holds, its sealed image answers the whole read surface alike."""
    run_property_trace("cold", regime, seed)


def test_blocks_regime_reaches_sealed_blocks():
    """The coverage the ``blocks`` regime exists for, asserted on the
    trace itself: tombstones outnumber any tail (so they sit in sealed
    blocks), the compaction threshold fires, and the checked ops include
    overwrites of sealed entries and out-of-order inserts below them."""
    for seed in SEEDS:
        subject = CompressedPostingsList()
        adds, tombstones, crossing = _blocks_prefill(seed)
        for op in adds + tombstones:
            _apply(subject, op)
        assert len(subject) >= 5 * BLOCK_SIZE // 2
        assert subject.physical_len() - len(subject) > BLOCK_SIZE
        _apply(subject, crossing[0])
        assert subject.physical_len() == len(subject)  # compacted
        ops = make_trace("blocks", seed, N_OPS)
        stored = {op[1] for op in adds}
        kinds = {
            (op[0], op[1] in stored) for op in ops if op[1] < _BLOCKS_IDS
        }
        if N_OPS >= 60:
            assert kinds == {
                ("add", True), ("add", False), ("delete", True), ("delete", False)
            }


class _ForgetsDeletes(PackedPostingsList):
    """Refuses a delete it should refuse, then forgets the rest."""

    __slots__ = ()

    def delete(self, object_id: int) -> None:
        if object_id not in self:
            raise UnknownObjectError(object_id)


@pytest.mark.parametrize("regime", ["mixed", "churn"])
def test_oracle_self_consistency(regime, monkeypatch):
    """The checker itself can fail: a list that drops its deletes is
    caught (a checker that never fails would pass vacuously)."""
    monkeypatch.setitem(BACKENDS, "forgets-deletes", _ForgetsDeletes)
    with pytest.raises(AssertionError, match="forgets-deletes: postings property"):
        run_property_trace("forgets-deletes", regime, SEEDS[0])


def test_trace_generation_is_deterministic():
    """Identical (regime, seed) pairs yield identical traces — the
    contract the reproducing failure message relies on."""
    for regime in REGIME_NAMES:
        assert make_trace(regime, 99, 50) == make_trace(regime, 99, 50)


def test_default_budget_covers_acceptance_floor():
    """Unless explicitly capped below the default, each layout sees 500+
    seeded operations across the regime × seed grid."""
    if N_OPS < 60:
        pytest.skip("REPRO_POSTINGS_PROP_OPS capped below the default")
    assert N_OPS * len(REGIME_NAMES) * len(SEEDS) >= 500
