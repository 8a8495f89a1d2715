"""Disabled-observability overhead must stay negligible.

The hard constraint of the observability subsystem: when no registry is
enabled and no trace is active, the query path pays one attribute load and
a branch.  This smoke check measures an instrumented index against a
baseline closure that replicates the pre-instrumentation dispatch, and
asserts the ratio stays within the CI budget (≤ 10%, with a little slack
built in via best-of-N timing).
"""

import pytest

from repro.core.collection import Collection
from repro.indexes.registry import build_index
from repro.obs.registry import OBS, isolated_registry
from repro.utils.timing import Stopwatch
from tests.conftest import random_objects, random_queries

#: CI budget: instrumented-but-disabled may cost at most 10% over baseline.
MAX_DISABLED_OVERHEAD = 1.10

_PASSES = 7


def _time_once(run_batch) -> float:
    watch = Stopwatch()
    watch.start()
    run_batch()
    return watch.stop()


def _best_of_interleaved(batches, passes: int = _PASSES):
    """Best-of-N wall-clock for each batch, with the passes *interleaved*.

    Timing every baseline pass and then every instrumented pass puts the
    two measurement windows ~50 ms apart — far enough that a transient
    slowdown of the host lands on one side only and shows up as phantom
    overhead.  Interleaving (A, B, A, B, ...) exposes both closures to the
    same conditions, so best-of-N compares like with like.  The GC is
    paused during the timed region (the bench runner's idiom, see
    insert_batch_time): batches are ~10 ms, so one cyclic pass triggered
    by the surrounding suite's allocations would swamp the
    single-digit-percent effect this smoke exists to bound.
    """
    import gc

    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        best = [float("inf")] * len(batches)
        for _ in range(passes):
            for i, run_batch in enumerate(batches):
                best[i] = min(best[i], _time_once(run_batch))
        return best
    finally:
        if gc_was_enabled:
            gc.enable()


@pytest.fixture(scope="module")
def workload():
    collection = Collection(random_objects(800, seed=5))
    index = build_index("tif", collection)
    queries = random_queries(collection, 60, seed=9) * 3
    return index, queries


@pytest.mark.timing
def test_disabled_overhead_within_budget(workload):
    index, queries = workload
    assert OBS.active is False, "overhead smoke requires the default disabled state"

    def baseline_batch():
        # The pre-observability dispatch, verbatim: no OBS check at all.
        pure = index._pure_temporal_query
        impl = index._query_impl
        for q in queries:
            if q.is_pure_temporal:
                pure(q)
            else:
                impl(q)

    def instrumented_batch():
        query = index.query
        for q in queries:
            query(q)

    # Warm both paths (allocator, caches) before timing.
    baseline_batch()
    instrumented_batch()
    baseline, instrumented = _best_of_interleaved([baseline_batch, instrumented_batch])
    ratio = instrumented / baseline
    assert ratio <= MAX_DISABLED_OVERHEAD, (
        f"disabled-observability overhead {ratio:.3f}x exceeds "
        f"{MAX_DISABLED_OVERHEAD:.2f}x (baseline {baseline * 1e3:.2f} ms, "
        f"instrumented {instrumented * 1e3:.2f} ms)"
    )


def test_enabled_path_returns_identical_results(workload):
    index, queries = workload
    expected = [index.query(q) for q in queries[:40]]
    with isolated_registry():
        got = [index.query(q) for q in queries[:40]]
    assert got == expected
