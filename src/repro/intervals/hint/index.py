"""The HINT index (Christodoulou et al. [19, 20]; paper Section 2.3).

HINT hierarchically and uniformly divides the (discretised) time domain into
``2^l`` partitions at each of its ``m + 1`` levels; each interval is assigned
to the smallest covering set of partitions (at most two per level), split
into originals and replicas.  Range queries traverse the hierarchy bottom-up
(Algorithm 2) so that endpoint comparisons are needed in at most four
partitions; everything else is reported comparison-free.

This implementation keeps only non-empty partitions in a hash map — the
pragmatic CPython counterpart of the paper's skewness & sparsity
optimisation — and always applies the subdivisions and storage
optimisations; the sort policy picks beneficial sorting or id order (see
:mod:`repro.intervals.hint.partition`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.errors import ConfigurationError, UnknownObjectError
from repro.core.interval import Timestamp
from repro.intervals.base import IntervalIndex, IntervalRecord
from repro.intervals.hint.domain import DomainMapper
from repro.intervals.hint.partition import Partition, SortPolicy
from repro.intervals.hint.traversal import (
    assign,
    iter_relevant_divisions,
    iter_relevant_partitions,
)
from repro.utils.bitops import partition_extent, validate_num_bits
from repro.utils.memory import CONTAINER_BYTES


class Hint(IntervalIndex):
    """Hierarchical index for intervals with bottom-up range queries."""

    def __init__(
        self,
        mapper: DomainMapper,
        sort_policy: SortPolicy = SortPolicy.TEMPORAL,
    ) -> None:
        """Create an empty HINT over ``mapper``'s domain.

        Parameters
        ----------
        mapper:
            Domain discretisation (fixes ``m``, the number of index bits).
        sort_policy:
            ``TEMPORAL`` — the paper's beneficial sorting (default);
            ``BY_ID`` — divisions ordered by object id (Algorithm 4 needs
            this; beneficial sorting is then unavailable by construction).
        """
        validate_num_bits(mapper.num_bits)
        self._mapper = mapper
        self._m = mapper.num_bits
        self._sort_policy = sort_policy
        self._partitions: Dict[Tuple[int, int], Partition] = {}
        self._n_live = 0

    # ------------------------------------------------------------ constructors
    @classmethod
    def build(
        cls,
        records: Iterable[IntervalRecord],
        num_bits: Optional[int] = None,
        mapper: Optional[DomainMapper] = None,
        sort_policy: SortPolicy = SortPolicy.TEMPORAL,
        domain_slack: float = 0.25,
    ) -> "Hint":
        """Bulk-build over ``records``.

        When no ``mapper`` is given the domain is derived from the records
        (with ``domain_slack`` headroom for future insertions) and
        ``num_bits`` must be provided (use
        :func:`repro.intervals.hint.cost_model.choose_num_bits` to derive
        one).
        """
        materialised = list(records)
        if mapper is None:
            if num_bits is None:
                raise ConfigurationError("Hint.build needs either a mapper or num_bits")
            if not materialised:
                mapper = DomainMapper.for_domain(0, 1, num_bits)
            else:
                lo = min(record[1] for record in materialised)
                hi = max(record[2] for record in materialised)
                mapper = DomainMapper.with_slack(lo, hi, num_bits, slack=domain_slack)
        index = cls(mapper, sort_policy=sort_policy)
        for object_id, st, end in materialised:
            index.insert(object_id, st, end)
        return index

    # ------------------------------------------------------------- properties
    @property
    def num_bits(self) -> int:
        """``m`` — the number of index bits (``m + 1`` levels)."""
        return self._m

    @property
    def mapper(self) -> DomainMapper:
        """The domain discretisation in use."""
        return self._mapper

    @property
    def sort_policy(self) -> SortPolicy:
        return self._sort_policy

    def __len__(self) -> int:
        return self._n_live

    def n_partitions(self) -> int:
        """Number of materialised (non-empty) partitions."""
        return len(self._partitions)

    def partition(self, level: int, j: int) -> Optional[Partition]:
        """Access a partition (test/introspection helper)."""
        return self._partitions.get((level, j))

    # ---------------------------------------------------------------- updates
    def insert(self, object_id: int, st: Timestamp, end: Timestamp) -> None:
        """Assign the interval to at most two partitions per level."""
        st_cell, end_cell = self._mapper.cell_range(st, end)
        partitions = self._partitions
        m = self._m
        for level, j, is_original in assign(m, st_cell, end_cell):
            key = (level, j)
            partition = partitions.get(key)
            if partition is None:
                first, last = partition_extent(level, j, m)
                partition = partitions[key] = Partition(first, last, self._sort_policy)
            partition.add(object_id, st, end, end_cell, is_original)
        self._n_live += 1

    def delete(self, object_id: int, st: Timestamp, end: Timestamp) -> None:
        """Tombstone the record in every partition its assignment touches.

        All or nothing: every entry is located (id and both endpoints) before
        any is tombstoned, so a record that is absent anywhere raises and
        leaves the index unchanged.
        """
        st_cell, end_cell = self._mapper.cell_range(st, end)
        located = []
        for level, j, is_original in assign(self._m, st_cell, end_cell):
            partition = self._partitions.get((level, j))
            if partition is None:
                raise UnknownObjectError(object_id)
            located.append(partition.locate(object_id, st, end, end_cell, is_original))
        for sub, i in located:
            sub.tombstone_at(i)
        self._n_live -= 1

    # ------------------------------------------------------------------ query
    def range_query(self, q_st: Timestamp, q_end: Timestamp) -> List[int]:
        """All live interval ids overlapping ``[q_st, q_end]``, sorted."""
        out = self.range_query_unsorted(q_st, q_end)
        out.sort()
        return out

    def range_query_unsorted(self, q_st: Timestamp, q_end: Timestamp) -> List[int]:
        """Algorithm 2: bottom-up traversal, duplicate-free by construction."""
        first_cell, last_cell = self._mapper.cell_range(q_st, q_end)
        out: List[int] = []
        partitions = self._partitions
        for level, j, kind, check in iter_relevant_divisions(self._m, first_cell, last_cell):
            partition = partitions.get((level, j))
            if partition is not None:
                partition.scan_division(kind, check, q_st, q_end, out)
        return out

    def iter_query_divisions(self, q_st: Timestamp, q_end: Timestamp):
        """Yield ``(level, j, partition, kind, check)`` for composite indexes.

        Exposes the traversal skeleton over materialised partitions so
        composite structures (irHINT) can run their own per-division search
        in place of the id scan.
        """
        first_cell, last_cell = self._mapper.cell_range(q_st, q_end)
        partitions = self._partitions
        for level, j, kind, check in iter_relevant_divisions(self._m, first_cell, last_cell):
            partition = partitions.get((level, j))
            if partition is not None:
                yield level, j, partition, kind, check

    def iter_sweep_partitions(self, q_st: Timestamp, q_end: Timestamp):
        """Yield ``(partition, is_first)`` per Algorithm 4's simple sweep."""
        first_cell, last_cell = self._mapper.cell_range(q_st, q_end)
        partitions = self._partitions
        for level, j, is_first in iter_relevant_partitions(self._m, first_cell, last_cell):
            partition = partitions.get((level, j))
            if partition is not None:
                yield partition, is_first

    # ------------------------------------------------------------------ stats
    def n_replicated_entries(self) -> int:
        """Total stored entries across partitions (≥ live records)."""
        return sum(partition.n_entries() for partition in self._partitions.values())

    def replication_factor(self) -> float:
        """Stored entries per live record (1.0 = no replication)."""
        if self._n_live == 0:
            return 0.0
        return self.n_replicated_entries() / self._n_live

    def level_histogram(self) -> Dict[int, int]:
        """Live entries per level (diagnostics; cost-model validation)."""
        histogram: Dict[int, int] = {}
        for (level, _j), partition in self._partitions.items():
            histogram[level] = histogram.get(level, 0) + partition.n_entries()
        return histogram

    def size_bytes(self) -> int:
        """Modelled size of all partitions plus the directory."""
        total = CONTAINER_BYTES
        for partition in self._partitions.values():
            total += partition.size_bytes()
        return total
