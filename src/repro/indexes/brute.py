"""Brute-force time-travel IR evaluation — the oracle every index must match."""

from __future__ import annotations

from typing import Dict, List

from repro.core.model import TemporalObject, TimeTravelQuery
from repro.indexes.base import BuildColumns, TemporalIRIndex
from repro.utils.memory import CONTAINER_BYTES


class BruteForce(TemporalIRIndex):
    """Linear scan over an id → object dict of its own, whatever form the
    catalog holds them in; correct by construction, never fast.

    Used as the ground truth in tests and as the no-index baseline in
    ablation benchmarks.  Its modelled size is zero.
    """

    name = "brute-force"

    def __init__(self) -> None:
        super().__init__()
        self._objects: Dict[int, TemporalObject] = {}

    # Remade from the catalog: a frozenset unpickled may iterate in another order.
    def __getstate__(self) -> Dict[str, object]:
        return {k: v for k, v in super().__getstate__().items() if k != "_objects"}

    def __setstate__(self, state: Dict[str, object]) -> None:
        super().__setstate__(state)
        self._objects = {obj.id: obj for obj in self._catalog.objects()}

    def _load_columns(self, columns: BuildColumns) -> None:
        self._objects = {obj.id: obj for obj in columns.objects}

    def _insert_impl(self, obj: TemporalObject) -> None:
        self._objects[obj.id] = obj

    def _delete_impl(self, obj: TemporalObject) -> None:
        del self._objects[obj.id]

    def _query_impl(self, q: TimeTravelQuery) -> List[int]:
        q_st, q_end, q_d = q.st, q.end, q.d
        return sorted(
            obj.id
            for obj in self._objects.values()
            if obj.st <= q_end and q_st <= obj.end and obj.d >= q_d
        )

    def size_bytes(self) -> int:
        return CONTAINER_BYTES
