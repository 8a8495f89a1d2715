"""``live-ingest``: inserts and deletes beside queries on a durable store.

Writes land on the same ``indexes``/``intervals.hint``/``ir.packed``
structures ``index-query`` reads, so a read win bought with slower
updates (paper Tables 6/7) shows here.  Each pass inserts the held-out
objects and deletes them again, every mutation followed by one query;
logical content returns to the baseline each pass and no checkpoint runs
inside a pass.  ``p50_us``/``p99_us`` describe the mutation calls — the
op class this workload exists for.  ``setup_s`` is build + first
snapshot (``bootstrap``), so snapshot-format changes show.
"""

from __future__ import annotations

import shutil
import statistics
import time
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

from repro.core.collection import Collection
from repro.indexes.registry import build_index
from repro.intervals.hint import Hint
from repro.service import layout
from repro.service.store import DurableIndexStore

from benchmarks.ledger import data, quiet
from benchmarks.ledger.spans import Ledger
from benchmarks.ledger.workload import Workload

#: Objects inserted then deleted per pass (at most a tenth of the collection).
HELD_OUT = 2_000


def _hint_insert(args):
    hint, obj = args
    hint.insert(obj.id, obj.st, obj.end)


class LiveIngest(Workload):
    name = "live-ingest"
    pass_seconds = 0.5
    top_rung = "service.ops"
    n_rungs = 2

    def prepare(self) -> None:
        objects = self.coll.objects()
        n_held = min(HELD_OUT, len(objects) // 10)
        self.held = objects[-n_held:]
        self.base = Collection(objects[:-n_held])
        self.baseline_size = len(self.base)
        queries = iter(data.sample_queries(self.coll, self.cfg.seed, 2 * n_held))
        self.steps = []
        for obj in self.held:
            self.steps += [("insert", obj), ("query", next(queries))]
        for obj in self.held:
            self.steps += [("delete", obj.id), ("query", next(queries))]
        self.is_write = [kind != "query" for kind, _ in self.steps]
        self.store: Optional[DurableIndexStore] = None
        self.directory: Optional[Path] = None
        self.set_ups = 0
        self.wal_bytes_per_op = 0.0

    def set_up(self) -> None:
        self.set_ups += 1
        self.directory = self.cfg.scratch / f"store-{self.set_ups}"
        self.store = DurableIndexStore.open(
            self.directory, index_key=data.METHOD, index_params=data.PARAMS, wal_fsync=False
        )
        self.store.bootstrap(self.base, data.METHOD, **data.PARAMS)

    def tear_down(self) -> None:
        if self.store is not None:
            self.store.close()
            self.store = None
            shutil.rmtree(self.directory, ignore_errors=True)

    def target(self) -> object:
        return self.store

    def _wal_bytes(self) -> int:
        return sum(path.stat().st_size for _, path in layout.list_wal_segments(self.directory))

    def validate(self, answers: Sequence[data.Answer]) -> Tuple[int, int]:
        # The validation pass is the store's first pass, so the log bytes
        # it appends (LSNs 1..n) are the same in every run of one seed.
        before = self._wal_bytes()
        outcome = super().validate(answers)
        self.wal_bytes_per_op = (self._wal_bytes() - before) / sum(self.is_write)
        return outcome

    def latency_class(self) -> Sequence[bool]:
        return self.is_write

    def notes(self) -> Dict[str, object]:
        return {
            "ops_per_pass": len(self.steps),
            "mutations_per_pass": sum(self.is_write),
            "baseline_objects": len(self.base),
            "wal_fsync": False,
        }

    # --------------------------------------------------------------- tracing
    def trace(self, ledger: Ledger, top: Sequence[quiet.Pass]) -> Dict[str, float]:
        # indexes: the same steps on a bare index, no log in front of it.
        index = build_index(data.METHOD, self.base, **data.PARAMS)
        index_rung = ledger.rung("indexes.ops", "service.ops", data.bind(index, self.steps))
        store_us = quiet.quiet_us(top)
        index_us = quiet.quiet_us(index_rung)
        kinds = [kind for kind, _ in self.steps]

        def median_of(values, kind: str) -> float:
            return statistics.median(v for v, k in zip(values, kinds) if k == kind)

        # intervals: HINT insertion alone, the held-out set removed again
        # after every pass.
        hint = Hint.build(
            ((o.id, o.st, o.end) for o in self.base.objects()), num_bits=index.num_bits
        )

        def hint_pass() -> quiet.Pass:
            one = quiet.replay([(_hint_insert, (hint, obj)) for obj in self.held])
            for obj in self.held:
                hint.delete(obj.id, obj.st, obj.end)
            return one

        hint_rung = ledger.rung("intervals.hint_insert", "indexes.ops", run_pass=hint_pass)

        # Query latency beside the writes: p50_us/p99_us are the mutations'.
        reads = quiet.PassStats([not is_write for is_write in self.is_write])
        for one in top:
            reads.add(one)

        started = time.perf_counter()
        snapshot = self.store.checkpoint()
        checkpoint_s = time.perf_counter() - started
        return {
            "service.query_p50_us": reads.metrics()["p50_us"],
            "service.query_p99_us": reads.metrics()["p99_us"],
            "intervals.hint_insert_us": statistics.median(quiet.quiet_us(hint_rung)),
            "indexes.query_us": median_of(index_us, "query"),
            "indexes.insert_us": median_of(index_us, "insert"),
            "indexes.delete_us": median_of(index_us, "delete"),
            "service.insert_self_us": median_of(
                [above - below for above, below in zip(store_us, index_us)], "insert"
            ),
            "service.wal_bytes_per_op": self.wal_bytes_per_op,
            "service.checkpoint_s": checkpoint_s,
            "service.snapshot_mb": snapshot.stat().st_size / 2**20,
        }
