"""``index-query``: in-process ``build_index`` + ``index.query``.

``ir``/``intervals``/``indexes`` do all the work here and the serving
layers none, so this is where columnar-HINT and postings-kernel changes
must show and where serving-path changes must not move anything.
"""

from __future__ import annotations

import time
from typing import Dict, Sequence

from repro.indexes.registry import build_index
from repro.intervals.hint import Hint
from repro.ir.inverted import TemporalInvertedFile

from benchmarks.ledger import data
from benchmarks.ledger.quiet import Pass
from benchmarks.ledger.spans import Ledger, median_us
from benchmarks.ledger.workload import Workload, overlapping_ids

#: Queries per pass.
N_QUERIES = 5_000


def _range(args):
    hint, q_st, q_end = args
    return hint.range_query(q_st, q_end)


class IndexQuery(Workload):
    name = "index-query"
    pass_seconds = 0.5
    top_rung = "indexes.query"
    n_rungs = 3

    def prepare(self) -> None:
        self.queries = data.sample_queries(self.coll, self.cfg.seed, N_QUERIES)
        self.steps = [("query", q) for q in self.queries]
        self.index = None

    def set_up(self) -> None:
        self.index = build_index(data.METHOD, self.coll, **data.PARAMS)

    def tear_down(self) -> None:
        self.index = None

    def target(self) -> object:
        return self.index

    def notes(self) -> Dict[str, object]:
        return {"queries_per_pass": len(self.steps)}

    # --------------------------------------------------------------- tracing
    def trace(self, ledger: Ledger, top: Sequence[Pass]) -> Dict[str, float]:
        objects = self.coll.objects()
        started = time.perf_counter()
        build_index(data.METHOD, self.coll, **data.PARAMS)
        build_s = time.perf_counter() - started

        # ir: the packed postings kernels on each query's rarest terms.
        tif = TemporalInvertedFile(backend="packed")
        for obj in objects:
            tif.add_object(obj.id, obj.st, obj.end, obj.d)
        scans, intersects, intersect_ids = [], [], []
        for i, q in enumerate(self.queries):
            ordered = tif.order_elements_locally(q.d)
            first = tif.postings(ordered[0])
            scans.append((overlapping_ids, (first, q.st, q.end)))
            if len(ordered) > 1:
                candidates = first.overlapping_ids(q.st, q.end)
                intersects.append((tif.postings(ordered[1]).intersect_sorted, candidates))
                intersect_ids.append(i)
        scan = ledger.rung("ir.scan", "indexes.query", scans)
        intersect = ledger.rung(
            "ir.intersect", "indexes.query", intersects, op_ids=intersect_ids
        )

        # intervals: the HINT the registry indexes query, same m as the index.
        hint = Hint.build(((o.id, o.st, o.end) for o in objects), num_bits=self.index.num_bits)
        ranges = ledger.rung(
            "intervals.hint_range",
            "indexes.query",
            [(_range, (hint, q.st, q.end)) for q in self.queries],
        )

        return {
            "ir.scan_us": median_us(scan),
            "ir.intersect_us": median_us(intersect),
            "intervals.hint_range_us": median_us(ranges),
            "indexes.build_s": build_s,
            "indexes.query_us": median_us(top),
            "indexes.size_mb": self.index.size_bytes() / 2**20,
            "indexes.results_per_query": sum(self.expected) / len(self.expected),
        }
