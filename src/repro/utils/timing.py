"""Timing and throughput helpers shared by the bench harness and ``repro.obs``.

The paper reports *query throughput* (queries/second, footnote 11) rather
than per-query latency, plus indexing and update times in seconds.  These
helpers wrap :func:`time.perf_counter` — a **monotonic** clock, immune to
wall-clock adjustments — with a tiny amount of structure so experiments
stay declarative.  :class:`Stopwatch` is the single timing primitive of
the repository: the latency histograms of the serving layer, the bench
runner and the CLI all accumulate through it rather than calling
``perf_counter`` pairs by hand.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, List


@dataclass
class Stopwatch:
    """Accumulating monotonic stopwatch; ``elapsed`` sums every start/stop span.

    Misuse (double start, stop without start) raises rather than producing
    silently-wrong timings.
    """

    elapsed: float = 0.0
    _started_at: float | None = field(default=None, repr=False)

    def start(self) -> None:
        if self._started_at is not None:
            raise RuntimeError("stopwatch already running")
        self._started_at = time.perf_counter()

    def stop(self) -> float:
        if self._started_at is None:
            raise RuntimeError("stopwatch not running")
        span = time.perf_counter() - self._started_at
        self.elapsed += span
        self._started_at = None
        return span

    def reset(self) -> None:
        self.elapsed = 0.0
        self._started_at = None

    @property
    def running(self) -> bool:
        return self._started_at is not None


@contextmanager
def timed() -> Iterator[Stopwatch]:
    """Context manager measuring the wall-clock time of its body."""
    watch = Stopwatch()
    watch.start()
    try:
        yield watch
    finally:
        if watch.running:
            watch.stop()


def time_call(fn: Callable[[], object]) -> float:
    """Seconds taken by one invocation of ``fn``."""
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def throughput(n_operations: int, seconds: float) -> float:
    """Operations per second; 0-duration runs report ``inf`` safely."""
    if seconds <= 0.0:
        return float("inf")
    return n_operations / seconds


@dataclass
class ThroughputMeasurement:
    """Result of timing a batch of queries."""

    n_queries: int
    seconds: float
    results_total: int

    @property
    def queries_per_second(self) -> float:
        return throughput(self.n_queries, self.seconds)


def measure_query_throughput(
    run_query: Callable[[object], List[int]],
    queries: List[object],
) -> ThroughputMeasurement:
    """Run every query once, returning the aggregate throughput.

    The per-query results are consumed (their lengths summed) so the work
    cannot be optimised away and result sizes can be sanity-checked.
    """
    results_total = 0
    start = time.perf_counter()
    for query in queries:
        results_total += len(run_query(query))
    seconds = time.perf_counter() - start
    return ThroughputMeasurement(len(queries), seconds, results_total)
