"""Named multi-tenant collections behind one uniform serving facade.

A tenant root is a directory holding one subdirectory per tenant; each
subdirectory is either a :class:`~repro.service.store.DurableIndexStore`
directory (``store.json`` manifest) or a
:class:`~repro.cluster.TemporalCluster` directory (``cluster.json``
manifest) — the registry autodetects which and opens it.  Every tenant
therefore brings its own isolated WAL/snapshot layout: tenants never
share durability state, and a corrupted tenant cannot poison another.

:class:`Tenant` normalises the two backends behind the daemon's
vocabulary: ``query_partial`` (deadline-aware, degrades to partial
results), ``work_bound`` (what a query reads, when the index can say),
``insert``/``delete`` and ``stats``.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.cluster import TemporalCluster, PartialResult
from repro.cluster import layout as cluster_layout
from repro.core.errors import ConfigurationError, ReproError
from repro.core.model import TemporalObject, TimeTravelQuery
from repro.obs.context import span
from repro.service import layout as store_layout
from repro.service.store import DurableIndexStore

PathLike = Union[str, Path]

#: Tenant names are path components; keep them boring and safe.
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

STORE = "store"
CLUSTER = "cluster"


class UnknownTenantError(ReproError, KeyError):
    """A request named a tenant the registry does not serve."""


def validate_tenant_name(name: str) -> str:
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ConfigurationError(
            f"invalid tenant name {name!r} (alphanumeric, '_', '.', '-'; "
            "max 64 chars; must not start with a separator)"
        )
    return name


class Tenant:
    """One named collection: a durable store or a shard cluster."""

    def __init__(
        self,
        name: str,
        kind: str,
        handle: Union[DurableIndexStore, TemporalCluster],
    ) -> None:
        self.name = name
        self.kind = kind
        self.handle = handle

    # ------------------------------------------------------------------ reads
    def query_partial(
        self, q: TimeTravelQuery, deadline: Optional[float] = None
    ) -> PartialResult:
        """Deadline-aware query; single stores always answer completely.

        A store query is one indivisible index probe — there is no shard
        boundary to check a deadline at — so the deadline only gates
        *starting* it (the daemon's job) and the answer is always
        complete.  Cluster tenants degrade per shard.
        """
        if self.kind == CLUSTER:
            assert isinstance(self.handle, TemporalCluster)
            return self.handle.query_partial(q, deadline)
        assert isinstance(self.handle, DurableIndexStore)
        with span("store_query"):
            ids = self.handle.query(q)
        return PartialResult(ids=ids, shards_planned=1, shards_answered=1)

    def work_bound(self, q: TimeTravelQuery) -> Optional[int]:
        """A store's bound on the postings ``q`` reads, or ``None``.

        A cluster is always ``None``: its reads may open segments (file
        I/O) and degrade per shard, so their cost is not the index's.
        """
        if self.kind == CLUSTER:
            return None
        assert isinstance(self.handle, DurableIndexStore)
        return self.handle.work_bound(q)

    # ----------------------------------------------------------------- writes
    def insert(self, obj: TemporalObject) -> None:
        self.handle.insert(obj)

    def delete(self, object_id: int) -> None:
        self.handle.delete(object_id)

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Flush WALs and release the tenant (both backends fsync-close)."""
        self.handle.close()

    def stats(self) -> Dict[str, object]:
        out = dict(self.handle.stats())
        out["tenant"] = self.name
        out["kind"] = self.kind
        return out


class TenantRegistry:
    """All tenants served by one daemon, opened from a tenant root."""

    def __init__(self, root: Path, tenants: Dict[str, Tenant]) -> None:
        self.root = Path(root)
        self._tenants = tenants

    @classmethod
    def open_root(
        cls,
        root: PathLike,
        *,
        wal_fsync: bool = True,
        cache_size: int = 0,
        segment_cache_bytes: Optional[int] = None,
    ) -> "TenantRegistry":
        """Open every recognisable tenant under ``root``.

        Subdirectories carrying neither manifest are skipped (scratch
        dirs, editor droppings) rather than refused — an operator can
        stage a tenant and only have it served once its manifest exists.

        ``segment_cache_bytes`` bounds each cluster tenant's cold-segment
        cache (every cluster gets its own budget — tenants never share
        mmap residency any more than they share WALs).
        """
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        tenants: Dict[str, Tenant] = {}
        for child in sorted(root.iterdir()):
            if not child.is_dir():
                continue
            tenant = _open_tenant_dir(
                child,
                wal_fsync=wal_fsync,
                cache_size=cache_size,
                segment_cache_bytes=segment_cache_bytes,
            )
            if tenant is not None:
                tenants[tenant.name] = tenant
        return cls(root, tenants)

    def create_store_tenant(
        self,
        name: str,
        *,
        index_key: str = "irhint-perf",
        index_params: Optional[Dict[str, object]] = None,
        wal_fsync: bool = True,
    ) -> Tenant:
        """Create (and start serving) an empty durable-store tenant."""
        validate_tenant_name(name)
        if name in self._tenants:
            raise ConfigurationError(f"tenant {name!r} already exists")
        store = DurableIndexStore.open(
            self.root / name,
            index_key=index_key,
            index_params=index_params,
            wal_fsync=wal_fsync,
        )
        tenant = Tenant(name, STORE, store)
        self._tenants[name] = tenant
        return tenant

    # -------------------------------------------------------------- accessors
    def get(self, name: str) -> Tenant:
        try:
            return self._tenants[name]
        except KeyError:
            raise UnknownTenantError(
                f"unknown tenant {name!r}; serving: {', '.join(self.names()) or '(none)'}"
            ) from None

    def names(self) -> List[str]:
        return sorted(self._tenants)

    def __len__(self) -> int:
        return len(self._tenants)

    def __contains__(self, name: str) -> bool:
        return name in self._tenants

    # -------------------------------------------------------------- lifecycle
    def close_all(self) -> None:
        """Flush and close every tenant (drain's final durability step)."""
        for tenant in self._tenants.values():
            tenant.close()

    def stats(self) -> List[Dict[str, object]]:
        return [self._tenants[name].stats() for name in self.names()]


def _open_tenant_dir(
    directory: Path,
    *,
    wal_fsync: bool,
    cache_size: int,
    segment_cache_bytes: Optional[int] = None,
) -> Optional[Tenant]:
    """Autodetect and open one tenant directory; ``None`` if unrecognised.

    Manifest detection runs *before* name validation: a manifest-less
    subdirectory with an unservable name (``lost+found``, ``.tmp``,
    ``__pycache__``) is simply not a tenant and must be skipped, not
    refused.  Only a directory that proves it is a tenant by carrying a
    manifest has its name held to the tenant-name rules.
    """
    if cluster_layout.is_cluster_dir(directory):
        name = validate_tenant_name(directory.name)
        extra: Dict[str, object] = {}
        if segment_cache_bytes is not None:
            extra["segment_cache_bytes"] = segment_cache_bytes
        cluster = TemporalCluster.open(
            directory, wal_fsync=wal_fsync,
            cache_size=cache_size if cache_size else 0,
            **extra,  # type: ignore[arg-type]
        )
        return Tenant(name, CLUSTER, cluster)
    if store_layout.read_manifest(directory) is not None:
        name = validate_tenant_name(directory.name)
        store = DurableIndexStore.open(directory, wal_fsync=wal_fsync)
        return Tenant(name, STORE, store)
    return None
