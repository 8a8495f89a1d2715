"""Measurement primitives for the experiments.

Everything the paper reports reduces to four measurements:

* **indexing time** — wall-clock seconds of a cold build (Tables 5, Figs 8-9),
* **index size** — modelled bytes (:mod:`repro.utils.memory`),
* **query throughput** — queries/second over a prepared workload (footnote
  11: the paper reports throughput rather than mean latency),
* **update time** — seconds to apply a batch of insertions or deletions
  (Tables 6-7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.collection import Collection
from repro.core.model import TemporalObject, TimeTravelQuery
from repro.indexes.base import TemporalIRIndex
from repro.indexes.registry import build_index
from repro.obs.registry import OBS
from repro.utils.timing import Stopwatch, timed


@dataclass(frozen=True, slots=True)
class BuildResult:
    """A timed index build."""

    key: str
    seconds: float
    size_bytes: int
    index: TemporalIRIndex


def build_timed(key: str, collection: Collection, **params: object) -> BuildResult:
    """Build the registered index over the collection, timing it."""
    with timed() as watch:
        index = build_index(key, collection, **params)
    return BuildResult(
        key=key, seconds=watch.elapsed, size_bytes=index.size_bytes(), index=index
    )


def query_throughput(
    index: TemporalIRIndex, queries: Sequence[TimeTravelQuery]
) -> float:
    """Queries per second over the workload (results consumed, not checked).

    Short workloads (≤ 200 queries — the tiny/small scales) are measured
    twice and the faster pass reported: single millisecond-scale samples are
    at the mercy of scheduler noise and GC pauses, and a spurious dip reads
    as a fake crossover in the shape checks.
    """
    if not queries:
        return 0.0
    passes = 2 if len(queries) <= 200 else 1
    best = float("inf")
    total = 0
    for _ in range(passes):
        watch = Stopwatch()
        watch.start()
        for q in queries:
            total += len(index.query(q))
        best = min(best, watch.stop())
    if best <= 0.0:
        return float("inf")
    # `total` is deliberately folded into a no-op so the loop cannot be
    # hollowed out by a future optimiser; it also doubles as a sanity value.
    _ = total
    return len(queries) / best


def insert_batch_time(index: TemporalIRIndex, batch: Sequence[TemporalObject]) -> float:
    """Seconds to insert ``batch`` (index is mutated).

    The garbage collector is paused during the timed region: update batches
    are milliseconds long, so a single cyclic-GC pass triggered by the
    surrounding build's allocations would otherwise dominate the sample.
    """
    import gc

    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        watch = Stopwatch()
        watch.start()
        for obj in batch:
            index.insert(obj)
        return watch.stop()
    finally:
        if gc_was_enabled:
            gc.enable()


def delete_batch_time(index: TemporalIRIndex, batch: Sequence[TemporalObject]) -> float:
    """Seconds to tombstone ``batch`` (index is mutated); GC paused as above."""
    import gc

    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        watch = Stopwatch()
        watch.start()
        for obj in batch:
            index.delete(obj)
        return watch.stop()
    finally:
        if gc_was_enabled:
            gc.enable()


def split_for_insertion(
    collection: Collection, holdout_fraction: float = 0.10
) -> "tuple[Collection, List[TemporalObject]]":
    """90/10 split for the insertion experiment (Table 6).

    The objects with the largest ids form the holdout — matching the paper's
    observation that new objects carry larger ids than indexed ones, which
    keeps id-sorted structures append-friendly.
    """
    objects = collection.objects()  # id-ordered
    cut = int(len(objects) * (1.0 - holdout_fraction))
    return Collection(objects[:cut]), objects[cut:]


def deletion_batch(
    collection: Collection, fraction: float, seed: int = 0
) -> List[TemporalObject]:
    """A reproducible random sample of objects to delete (Table 7)."""
    import random

    rng = random.Random(seed)
    objects = collection.objects()
    k = max(1, int(len(objects) * fraction))
    return rng.sample(objects, k)


def validate_index(
    index: TemporalIRIndex,
    collection: Collection,
    queries: Sequence[TimeTravelQuery],
    sample: int = 10,
) -> None:
    """Assert a sample of workload queries matches the oracle.

    Experiments call this once per built index so a silent correctness
    regression can never masquerade as a performance win.
    """
    for q in list(queries)[:sample]:
        expected = collection.evaluate(q)
        got = index.query(q).tolist()
        if got != expected:
            raise AssertionError(
                f"{index.name}: wrong answer on {q}: {len(got)} vs {len(expected)} ids"
            )


def _counter_deltas(
    before: Dict[str, float], after: Dict[str, float]
) -> Dict[str, float]:
    """Nonzero counter movement between two snapshots, keyed ``_obs_<name>``."""
    out: Dict[str, float] = {}
    for key, value in after.items():
        delta = value - before.get(key, 0.0)
        if delta:
            out[f"_obs_{key}"] = delta
    return out


def measure_methods(
    methods: Sequence[str],
    collection: Collection,
    workloads: Dict[str, Sequence[TimeTravelQuery]],
    build_params: Optional[Dict[str, Dict[str, object]]] = None,
    validate: bool = True,
) -> Dict[str, Dict[str, float]]:
    """Build each method once and run every workload against it.

    Returns ``{method: {workload_label: queries_per_second, "_build_s": …,
    "_size_mb": …}}`` — the common inner loop of Figures 10-12.  When a
    metrics registry is enabled, each row additionally carries the
    counters this method's measurement moved, as ``_obs_``-prefixed
    deltas (e.g. ``_obs_repro_queries_total{index=tIF}``), so experiment
    outputs double as per-experiment metric snapshots.
    """
    build_params = build_params or {}
    out: Dict[str, Dict[str, float]] = {}
    for key in methods:
        registry = OBS.registry
        before = registry.counter_snapshot() if registry.enabled else None
        result = build_timed(key, collection, **build_params.get(key, {}))
        row: Dict[str, float] = {
            "_build_s": result.seconds,
            "_size_mb": result.size_bytes / (1024.0 * 1024.0),
        }
        for label, queries in workloads.items():
            if validate and queries:
                validate_index(result.index, collection, queries, sample=3)
            row[label] = query_throughput(result.index, queries)
        if before is not None:
            row.update(_counter_deltas(before, registry.counter_snapshot()))
        out[key] = row
    return out
