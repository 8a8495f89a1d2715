"""The common interface of all composite temporal-IR indexes.

Every index answers the time-travel IR query of Definition 2.1 — objects
whose lifespan overlaps the query interval *and* whose description contains
every query element — and supports the update workloads of Section 5.5
(batch insertions of new objects, tombstone deletions).

The base class centralises the bookkeeping all methods share:

* the element :class:`~repro.core.dictionary.Dictionary` with document
  frequencies, used to order query elements ascending (Algorithm 1 line 2)
  and kept in sync across updates;
* an object catalog (id → object) used for pure-temporal query fallbacks on
  IR-first structures, for delete-by-id convenience, and for diagnostics.
  It holds the caller's objects and, after a load, sealed columns
  (:mod:`repro.indexes.catalog`); it is deliberately excluded from
  ``size_bytes()`` — it is the corpus, not the index;
* a data ``version`` that result caches check instead of being told about
  mutations (see :mod:`repro.exec.cache`).
"""

from __future__ import annotations

import abc
import itertools
import sys
from bisect import bisect_right
from functools import cached_property
from typing import ClassVar, Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.core.answer import as_answer
from repro.core.collection import Collection
from repro.core.dictionary import Dictionary
from repro.core.errors import DuplicateObjectError, UnknownObjectError
from repro.core.model import Element, TemporalObject, TimeTravelQuery
from repro.indexes.catalog import Catalog, Codes
from repro.ir.packed import IdSorted, PackedPostingsList, id_sorted
from repro.obs.context import annotate, event, tracing_active
from repro.obs.registry import OBS
from repro.utils.timing import Stopwatch

#: One process-wide source of data versions, so that no two index states —
#: of one index or of two — ever share a value within a process.
_VERSIONS = itertools.count(1)


def next_version() -> int:
    """A data version never handed out before in this process."""
    return next(_VERSIONS)


#: Bytes of one column a bulk load gathers at once while it cuts runs: its
#: transient memory past the sort stays under a MiB at any collection size.
_GATHER_BYTES = 1 << 18


class BuildColumns:
    """A collection read once into the columns a bulk load splits
    (:meth:`TemporalIRIndex._load_columns`).

    Each column is computed on first use, so an index that loads by its
    insert loop pays for the object list alone.
    """

    def __init__(self, collection: Iterable[TemporalObject]) -> None:
        self.objects: List[TemporalObject] = list(collection)

    @cached_property
    def by_id(self) -> Optional[IdSorted]:
        """The objects' ``(id, t_st, t_end)`` as int64 columns sorted by id,
        or ``None`` when only the insert loop loads these objects as the
        loop would: an endpoint no i64 slot holds (a float, which spills
        its lists) or a repeated id (the loop's :class:`DuplicateObjectError`)."""
        objects = self.objects
        return id_sorted(
            [obj.id for obj in objects], [obj.st for obj in objects], [obj.end for obj in objects]
        )

    def held(self) -> IdSorted:
        """:attr:`by_id`, which a columnar load may take to exist."""
        held = self.by_id
        assert held is not None, "what the columns cannot hold loads by the loop"
        return held

    @cached_property
    def descriptions(self) -> Tuple[List[Element], np.ndarray, np.ndarray]:
        """``(elements, codes, lengths)``: the elements in first-seen order
        (the order the insert loop meets them); for each (object, element)
        pair in collection order, its element's code — its place in that
        order; and each object's description length."""
        ds = [obj.d for obj in self.objects]
        lengths = np.fromiter(map(len, ds), dtype=np.int64, count=len(ds))
        codes = Codes()
        pairs = np.fromiter(map(codes.__getitem__, itertools.chain.from_iterable(ds)), np.int32)
        return list(codes), pairs, lengths

    def runs(self) -> Iterator[Tuple[Element, PackedPostingsList]]:
        """Every element's postings run, in first-seen element order: the
        pairs sorted by (element, id) once and cut at each element's bounds
        (:attr:`by_id` must exist)."""
        ids, sts, ends, permutation = self.held()
        elements, codes, lengths = self.descriptions
        # The row of each pair's object in the id-sorted columns, narrow:
        # the sort's index is the widest column.
        narrow = np.min_scalar_type(len(ids))
        owner = np.repeat(np.arange(len(ids), dtype=narrow), lengths)
        if permutation is None:  # collection order is id order
            order = np.argsort(codes, kind="stable")
        else:
            rank = np.empty(len(ids), dtype=narrow)
            rank[permutation] = np.arange(len(ids), dtype=narrow)
            owner = rank[owner]
            del rank
            order = np.lexsort((owner, codes))
        owner = owner[order]
        del order
        # Byte offsets of each run; a chunk of whole runs is gathered at once.
        bounds = [0, *itertools.accumulate((np.bincount(codes) * 8).tolist())]
        first = 0
        while first < len(elements):
            lo = bounds[first]
            last = max(first + 1, bisect_right(bounds, lo + _GATHER_BYTES) - 1)
            rows = owner[lo // 8 : bounds[last] // 8]
            chunk_ids, chunk_sts, chunk_ends = (
                memoryview(column[rows]).cast("B") for column in (ids, sts, ends)
            )
            for e in range(first, last):
                a, b = bounds[e] - lo, bounds[e + 1] - lo
                yield elements[e], PackedPostingsList.from_columns(
                    chunk_ids[a:b], chunk_sts[a:b], chunk_ends[a:b]
                )
            first = last


class TemporalIRIndex(abc.ABC):
    """Abstract base class for time-travel IR indexes."""

    #: Human-readable method name, matching the paper's tables.
    name: ClassVar[str] = "abstract"

    def __init__(self) -> None:
        self._dictionary = Dictionary()
        self._catalog = Catalog()
        #: Changes at every ``insert``/``delete`` and at unpickling: an answer
        #: computed at one version is valid exactly while it is current.
        self.version = next_version()

    def __getstate__(self) -> Dict[str, object]:
        """The pickled state, without the version: a version means nothing
        outside the process that drew it, so a copy draws its own."""
        state = self.__dict__.copy()
        state.pop("version", None)
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        # Interned names, as pickle's own restore makes them: attribute
        # lookups on an index with plain string keys run measurably slower.
        self.__dict__.update((sys.intern(key), value) for key, value in state.items())
        self.version = next_version()

    # ------------------------------------------------------------ construction
    @classmethod
    def build(cls, collection: Collection, **params: object) -> "TemporalIRIndex":
        """Build an index over every object of ``collection``.

        Creates an empty index configured for the collection's domain (via
        :meth:`_configure_for`), reads the collection once into columns,
        hands them to :meth:`_load` and lets the index settle
        (:meth:`_settle`).  The finished index draws a fresh version.
        """
        index = cls(**params)  # type: ignore[call-arg]
        index._configure_for(collection)
        index._load(BuildColumns(collection))
        index._settle()
        index.version = next_version()
        return index

    def _configure_for(self, collection: Collection) -> None:
        """Hook: derive domain-dependent parameters before the load."""

    def _load(self, columns: BuildColumns) -> None:
        """Fill the empty index with ``columns.objects``: the dictionary, the
        structures (:meth:`_load_columns`) and a sealed catalog, unless the
        columns cannot hold the collection (:attr:`BuildColumns.by_id` is
        ``None``): then the insert loop, whose semantics the rest have."""
        if columns.by_id is None:
            for obj in columns.objects:
                self.insert(obj)
            return
        elements, codes, _lengths = columns.descriptions  # frequencies: descriptions are sets
        self._dictionary = Dictionary.from_frequencies(zip(elements, np.bincount(codes).tolist()))
        self._load_columns(columns)
        # Sealed as a load seals it, once the runs' sort has let go.
        self._catalog = Catalog.sealed(columns.held(), *columns.descriptions)

    @abc.abstractmethod
    def _load_columns(self, columns: BuildColumns) -> None:
        """Fill the index's structures from ``columns`` (whose
        :attr:`~BuildColumns.by_id` exists) exactly as the insert loop
        would."""

    def _settle(self) -> None:
        """Hook: after the load, derive what the first queries would
        otherwise build (a HINT's table)."""

    # ---------------------------------------------------------------- updates
    def insert(self, obj: TemporalObject) -> None:
        """Add one object (paper Section 5.5 insertions)."""
        if obj.id in self._catalog:
            raise DuplicateObjectError(f"object id {obj.id} already indexed")
        try:
            self._insert_impl(obj)
            self._catalog.add(obj)
            self._dictionary.add_description(obj.d)
        finally:
            self.version = next_version()

    def delete(self, obj: Union[TemporalObject, int]) -> None:
        """Tombstone one object, given the object or its id.

        Missing ids raise :class:`UnknownObjectError` uniformly across every
        registry index (the catalog is consulted before any index-specific
        work).  When a :class:`TemporalObject` is passed, the *catalog's*
        copy for that id is the one deleted, so a stale caller-side object
        with divergent fields cannot desynchronise the dictionary.
        """
        object_id = obj if isinstance(obj, int) else obj.id
        found = self._catalog.get(object_id)
        if found is None:
            raise UnknownObjectError(object_id)
        try:
            self._delete_impl(found)
            self._catalog.discard(object_id)
            self._dictionary.remove_description(found.d)
        finally:
            self.version = next_version()

    @abc.abstractmethod
    def _insert_impl(self, obj: TemporalObject) -> None:
        """Index-specific insertion."""

    @abc.abstractmethod
    def _delete_impl(self, obj: TemporalObject) -> None:
        """Index-specific tombstone deletion."""

    # ------------------------------------------------------------------ query
    def query(self, q: TimeTravelQuery) -> np.ndarray:
        """Answer a time-travel IR query: the live object ids, as an answer
        (:mod:`repro.core.answer` — sorted, read-only, owned int64).

        When metrics are off (the default) this is the bare dispatch; one
        attribute load and a branch is the entire overhead.  With a metrics
        registry enabled the evaluation is timed and counted (see
        :mod:`repro.obs`).  Phases are recorded by the index paths
        themselves, inside a sampled request trace only.
        """
        if OBS.active:
            return self._observed_query(q)
        if q.is_pure_temporal:
            return as_answer(self._pure_temporal_query(q))
        return as_answer(self._query_impl(q))

    def _observed_query(self, q: TimeTravelQuery) -> np.ndarray:
        """The slow-path twin of :meth:`query`: timed and counted."""
        from repro.obs.instruments import query_instruments

        watch = Stopwatch()
        watch.start()
        if q.is_pure_temporal:
            result = self._pure_temporal_query(q)
        else:
            result = self._query_impl(q)
        result = as_answer(result)
        seconds = watch.stop()
        instruments = query_instruments(OBS.registry)
        instruments.queries.labels(self.name).inc()
        instruments.seconds.labels(self.name).observe(seconds)
        instruments.results.labels(self.name).inc(len(result))
        if q.is_pure_temporal:
            instruments.pure_temporal.labels(self.name).inc()
        return result

    @abc.abstractmethod
    def _query_impl(self, q: TimeTravelQuery) -> "np.ndarray | List[int]":
        """Index-specific evaluation for queries with ``q.d`` non-empty:
        the ascending ids, as an int64 array nothing else holds or as a
        list; :meth:`query` makes the answer."""

    def work_bound(self, q: TimeTravelQuery) -> Optional[int]:
        """An upper bound on the postings entries answering ``q`` reads, or
        ``None`` when this index cannot say.

        A bound is sound: never below the ``entries_scanned`` of the query's
        own explain trace, summed over its phases.  It is read without
        evaluating the query, so that a server can decide whether a query is
        cheap enough to answer without a thread hop.
        """
        return None

    def _pure_temporal_query(self, q: TimeTravelQuery) -> "np.ndarray | List[int]":
        """Fallback for ``q.d = ∅``: a catalog scan.

        IR-first structures have no temporal index over *all* objects, so the
        honest answer is a scan; time-first structures override this with
        their HINT traversal.
        """
        result = self._catalog.overlapping(q.st, q.end)
        if tracing_active():
            event(
                "catalog scan",
                entries_scanned=len(self._catalog),
                candidates_after=len(result),
                structures_touched=1,
            )
            annotate(note="pure-temporal query: catalog scan")
        return result

    # -------------------------------------------------------------- inspection
    @property
    def dictionary(self) -> Dictionary:
        """The index's element dictionary (kept in sync across updates)."""
        return self._dictionary

    def __len__(self) -> int:
        """Number of live indexed objects."""
        return len(self._catalog)

    def __contains__(self, object_id: int) -> bool:
        return object_id in self._catalog

    def objects(self) -> List[TemporalObject]:
        """The live indexed objects, ordered by id (catalog view)."""
        return self._catalog.objects()

    def object_ids(self) -> np.ndarray:
        """The live object ids, ascending, as int64 (no object is made)."""
        return self._catalog.object_ids()

    def get(self, object_id: int) -> Optional[TemporalObject]:
        """A live object by id, or ``None``."""
        return self._catalog.get(object_id)

    def order_query_elements(self, q: TimeTravelQuery) -> List[Element]:
        """Query elements by ascending global frequency (Alg. 1 line 2)."""
        return self._dictionary.order_by_frequency(q.d)

    @abc.abstractmethod
    def size_bytes(self) -> int:
        """Modelled index size (catalog excluded — it is the corpus)."""

    def stats(self) -> Dict[str, object]:
        """Diagnostics: name, cardinality, size; subclasses extend."""
        return {
            "name": self.name,
            "objects": len(self),
            "size_bytes": self.size_bytes(),
            "dictionary_size": len(self._dictionary),
        }

    def validate_against(
        self, collection: Collection, queries: List[TimeTravelQuery]
    ) -> Optional[str]:
        """Check this index against the linear-scan oracle; None when clean."""
        for q in queries:
            expected = collection.evaluate(q)
            got = self.query(q).tolist()
            if got != expected:
                return (
                    f"{self.name}: mismatch on {q}: got {len(got)} ids, "
                    f"expected {len(expected)}"
                )
        return None
