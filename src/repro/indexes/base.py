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
  The catalog holds *references* to the collection's objects and is
  deliberately excluded from ``size_bytes()`` — it is the corpus, not the
  index.
"""

from __future__ import annotations

import abc
import weakref
from typing import ClassVar, Dict, List, Optional, Union

from repro.core.collection import Collection
from repro.core.dictionary import Dictionary
from repro.core.errors import DuplicateObjectError, UnknownObjectError
from repro.core.model import Element, TemporalObject, TimeTravelQuery
from repro.obs.context import annotate, event, tracing_active
from repro.obs.registry import OBS
from repro.utils.timing import Stopwatch


class TemporalIRIndex(abc.ABC):
    """Abstract base class for time-travel IR indexes."""

    #: Human-readable method name, matching the paper's tables.
    name: ClassVar[str] = "abstract"

    def __init__(self) -> None:
        self._dictionary = Dictionary()
        self._catalog: Dict[int, TemporalObject] = {}

    # ------------------------------------------------------------ construction
    @classmethod
    def build(cls, collection: Collection, **params: object) -> "TemporalIRIndex":
        """Build an index over every object of ``collection``.

        The default path creates an empty index configured for the
        collection's domain (via :meth:`_configure_for`) and inserts object
        by object; subclasses override either hook when a bulk path differs.
        """
        index = cls(**params)  # type: ignore[call-arg]
        index._configure_for(collection)
        for obj in collection:
            index.insert(obj)
        return index

    def _configure_for(self, collection: Collection) -> None:
        """Hook: derive domain-dependent parameters before bulk insertion."""

    # ---------------------------------------------------------------- updates
    def insert(self, obj: TemporalObject) -> None:
        """Add one object (paper Section 5.5 insertions)."""
        if obj.id in self._catalog:
            raise DuplicateObjectError(f"object id {obj.id} already indexed")
        self._insert_impl(obj)
        self._catalog[obj.id] = obj
        self._dictionary.add_description(obj.d)
        self._invalidate_caches()

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
        self._delete_impl(found)
        del self._catalog[object_id]
        self._dictionary.remove_description(found.d)
        self._invalidate_caches()

    @abc.abstractmethod
    def _insert_impl(self, obj: TemporalObject) -> None:
        """Index-specific insertion."""

    @abc.abstractmethod
    def _delete_impl(self, obj: TemporalObject) -> None:
        """Index-specific tombstone deletion."""

    # ------------------------------------------------------- result caches
    def attach_cache(self, cache) -> None:
        """Register a result cache to invalidate on every mutation.

        ``cache`` is anything exposing ``invalidate()`` — in practice a
        :class:`repro.exec.cache.ResultCache`.  The cache is invalidated
        *at attach time*, so a cache carried over from another index (or
        an earlier state of this one, e.g. across crash recovery) can
        never serve stale results.  The index holds only a weak
        reference: dropping the executor that owns the cache frees it.

        The registration list lives outside pickled state (see
        :meth:`__getstate__`) — snapshots and the ``process`` execution
        strategy transfer the index alone, never its observers.
        """
        cache.invalidate()
        refs = self.__dict__.setdefault("_cache_refs", [])
        refs[:] = [r for r in refs if r() is not None and r() is not cache]
        refs.append(weakref.ref(cache))

    def detach_cache(self, cache) -> None:
        """Stop invalidating ``cache`` on this index's mutations."""
        refs = self.__dict__.get("_cache_refs")
        if refs:
            refs[:] = [r for r in refs if r() is not None and r() is not cache]

    def _invalidate_caches(self) -> None:
        """Invalidate every attached cache (called after each mutation)."""
        refs = self.__dict__.get("_cache_refs")
        if not refs:
            return
        live = []
        for ref in refs:
            cache = ref()
            if cache is not None:
                cache.invalidate()
                live.append(ref)
        refs[:] = live

    def __getstate__(self) -> Dict[str, object]:
        """Pickled state excludes cache registrations (weakrefs don't
        pickle, and a snapshot or process-pool copy must not invalidate —
        or be invalidated through — the original's caches)."""
        state = self.__dict__.copy()
        state.pop("_cache_refs", None)
        return state

    # ------------------------------------------------------------------ query
    def query(self, q: TimeTravelQuery) -> List[int]:
        """Answer a time-travel IR query; returns sorted live object ids.

        When metrics are off (the default) this is the bare dispatch; one
        attribute load and a branch is the entire overhead.  With a metrics
        registry enabled the evaluation is timed and counted (see
        :mod:`repro.obs`).  Phases are recorded by the index paths
        themselves, inside a sampled request trace only.
        """
        if OBS.active:
            return self._observed_query(q)
        if q.is_pure_temporal:
            return self._pure_temporal_query(q)
        return self._query_impl(q)

    def _observed_query(self, q: TimeTravelQuery) -> List[int]:
        """The slow-path twin of :meth:`query`: timed and counted."""
        from repro.obs.instruments import query_instruments

        watch = Stopwatch()
        watch.start()
        if q.is_pure_temporal:
            result = self._pure_temporal_query(q)
        else:
            result = self._query_impl(q)
        seconds = watch.stop()
        instruments = query_instruments(OBS.registry)
        instruments.queries.labels(self.name).inc()
        instruments.seconds.labels(self.name).observe(seconds)
        instruments.results.labels(self.name).inc(len(result))
        if q.is_pure_temporal:
            instruments.pure_temporal.labels(self.name).inc()
        return result

    @abc.abstractmethod
    def _query_impl(self, q: TimeTravelQuery) -> List[int]:
        """Index-specific evaluation for queries with ``q.d`` non-empty."""

    def work_bound(self, q: TimeTravelQuery) -> Optional[int]:
        """An upper bound on the postings entries answering ``q`` reads, or
        ``None`` when this index cannot say.

        A bound is sound: never below the ``entries_scanned`` of the query's
        own explain trace, summed over its phases.  It is read without
        evaluating the query, so that a server can decide whether a query is
        cheap enough to answer without a thread hop.
        """
        return None

    def _pure_temporal_query(self, q: TimeTravelQuery) -> List[int]:
        """Fallback for ``q.d = ∅``: a catalog scan.

        IR-first structures have no temporal index over *all* objects, so the
        honest answer is a scan; time-first structures override this with
        their HINT traversal.
        """
        result = sorted(
            obj.id
            for obj in self._catalog.values()
            if obj.st <= q.end and q.st <= obj.end
        )
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
        return [self._catalog[object_id] for object_id in sorted(self._catalog)]

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
            got = self.query(q)
            if got != expected:
                return (
                    f"{self.name}: mismatch on {q}: got {len(got)} ids, "
                    f"expected {len(expected)}"
                )
        return None
