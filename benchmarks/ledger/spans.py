"""The traced run's rung ledger: benchmark-side spans around public calls.

A *rung* is one public boundary (``indexes.query``, ``service.query``,
``server.roundtrip`` …) through which a workload's op list is replayed.
Every call is one span — layer, op, start, end, and the rung that calls
it in the real system (its parent).  Spans stay in memory until the run
ends and are then written to ``out/spans-<workload>.json``; a layer's
self time is its rung minus the rung below, per op (README, "Reading
spans").
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from benchmarks.ledger.quiet import Op, Pass, quiet_us, replay


class Ledger:
    """Collects the rungs of one traced run."""

    def __init__(self, passes: int) -> None:
        #: Every rung replays its op list this many times.
        self.passes = passes
        self._rungs: Dict[str, Dict[str, object]] = {}

    def rung(
        self,
        name: str,
        parent: Optional[str],
        ops: Optional[Sequence[Op]] = None,
        *,
        run_pass: Optional[Callable[[], Pass]] = None,
        op_ids: Optional[Sequence[int]] = None,
    ) -> List[Pass]:
        """Replay one rung; keeps every span."""
        if run_pass is None:
            assert ops is not None
            run_pass = lambda: replay(ops)  # noqa: E731
        passes = [run_pass() for _ in range(self.passes)]
        self._rungs[name] = {
            "layer": name.split(".")[0],
            "parent": parent,
            "op_ids": list(op_ids) if op_ids is not None else None,
            "passes": [{"start_ns": p.starts, "end_ns": p.ends} for p in passes],
        }
        return passes

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"rungs": self._rungs}), encoding="utf-8")


def median_us(passes: Sequence[Pass]) -> float:
    """A rung's time per call: the median over ops of each op's quiet time."""
    return statistics.median(quiet_us(passes))


def self_us(upper: Sequence[Pass], lower: Sequence[Pass]) -> float:
    """Self time of ``upper``'s layer: median per-op gap to the rung below.

    Both rungs replayed the same op list, so the gap is taken op by op
    before the median — medians of skewed latencies do not subtract.
    """
    return statistics.median(
        above - below for above, below in zip(quiet_us(upper), quiet_us(lower))
    )
