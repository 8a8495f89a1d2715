"""Distributed-tracing overhead must stay within the CI budget.

The acceptance bar for the tracing plane: at full sampling (rate 1.0,
every request builds a span tree) the request path may cost at most 10%
over an untraced baseline; at the default production rate of 0.01 the
cost must stay under 2%.  Per-request tracing cost is constant, so the
workload uses wide-interval queries over tens of thousands of objects —
the regime the daemon actually serves — rather than micro-queries that
would measure the tracer against an empty denominator.

Timing uses the interleaved best-of-N idiom from ``test_overhead.py``
(GC paused, passes alternated) so a transient host slowdown cannot land
on one side of the comparison only.
"""

import random

import pytest

from repro.core.collection import Collection
from repro.core.model import make_query
from repro.indexes.registry import build_index
from repro.obs.context import Tracer, span
from repro.obs.registry import OBS
from tests.conftest import random_objects
from tests.obs.test_overhead import _best_of_interleaved

#: Full sampling may cost at most 10% over the untraced baseline.
MAX_SAMPLED_OVERHEAD = 1.10

#: The default production rate (0.01) may cost at most 2%.
MAX_DEFAULT_RATE_OVERHEAD = 1.02


@pytest.fixture(scope="module")
def workload():
    collection = Collection(random_objects(32000, seed=11))
    index = build_index("tif", collection)
    lo = min(obj.st for obj in collection)
    hi = max(obj.end for obj in collection)
    width = hi - lo
    rng = random.Random(23)
    queries = []
    for _ in range(25):
        start = lo + rng.random() * width * 0.2
        queries.append(make_query(start, start + width * 0.7, set()))
    return index, queries


def traced_batch(index, queries, tracer):
    """The daemon's per-request shape: begin → spans → execute → finish."""
    for q in queries:
        trace = tracer.begin(None, verb="query", tenant="bench")
        with trace.activate():
            with span("admission"):
                pass
            with span("execute"):
                index.query(q)
        trace.finish("ok")


def _measure(index, queries, tracer):
    def baseline_batch():
        query = index.query
        for q in queries:
            query(q)

    def instrumented_batch():
        traced_batch(index, queries, tracer)

    baseline_batch()
    instrumented_batch()
    baseline, instrumented = _best_of_interleaved(
        [baseline_batch, instrumented_batch], passes=9
    )
    return instrumented / baseline, baseline, instrumented


@pytest.mark.timing
def test_full_sampling_overhead_within_budget(workload):
    index, queries = workload
    assert OBS.active is False
    tracer = Tracer(sample_rate=1.0, capacity=64, rng=random.Random(5))
    ratio, baseline, instrumented = _measure(index, queries, tracer)
    assert tracer.sampled_total > 0  # every request really built a trace
    assert ratio <= MAX_SAMPLED_OVERHEAD, (
        f"tracing overhead at sample rate 1.0 is {ratio:.3f}x, budget "
        f"{MAX_SAMPLED_OVERHEAD:.2f}x (baseline {baseline * 1e3:.2f} ms, "
        f"traced {instrumented * 1e3:.2f} ms)"
    )


@pytest.mark.timing
def test_default_rate_overhead_within_budget(workload):
    index, queries = workload
    assert OBS.active is False
    tracer = Tracer(sample_rate=0.01, capacity=64, rng=random.Random(5))
    ratio, baseline, instrumented = _measure(index, queries, tracer)
    assert ratio <= MAX_DEFAULT_RATE_OVERHEAD, (
        f"tracing overhead at sample rate 0.01 is {ratio:.3f}x, budget "
        f"{MAX_DEFAULT_RATE_OVERHEAD:.2f}x (baseline {baseline * 1e3:.2f} ms, "
        f"traced {instrumented * 1e3:.2f} ms)"
    )


def test_unsampled_requests_leave_no_residue(workload):
    index, queries = workload
    tracer = Tracer(sample_rate=0.0, capacity=64, rng=random.Random(5))
    traced_batch(index, queries[:5], tracer)
    assert len(tracer.buffer) == 0
    assert tracer.sampled_total == 0
