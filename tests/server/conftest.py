"""Fixtures for the daemon suite: a populated tenant root + live daemon.

The tenant root carries one durable-store tenant (``docs``) and one
3-shard × 2-replica cluster tenant (``shards``), so every test exercises
the registry's autodetection and the daemon's per-tenant isolation.
``REPRO_FAULT_SEED`` pins the chaos suite's fault schedules (CI exports
it; the default replays the same schedules locally).
"""

from __future__ import annotations

import os
import threading
from typing import Iterator, List

import pytest

from repro.cluster import TemporalCluster
from repro.core.collection import Collection
from repro.core.model import TemporalObject
from repro.server import (
    DaemonClient,
    DaemonHandle,
    ServerConfig,
    TenantRegistry,
    start_daemon_thread,
)
from repro.service.store import DurableIndexStore
from repro.utils.retry import RetryPolicy

from tests.conftest import random_objects

FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "20250806"))


@pytest.fixture(scope="package", autouse=True)
def lockcheck_gate() -> Iterator[None]:
    """Watch every tracked lock acquisition in this package and fail the
    suite on an ordering cycle or an await-while-holding-writer hold (see
    :mod:`repro.analysis.lockcheck`)."""
    from repro.analysis import lockcheck

    checker = lockcheck.install()
    try:
        yield
    finally:
        lockcheck.uninstall()
        checker.assert_clean()

#: One retry attempt only: error-semantics tests want the raw response.
NO_RETRY = RetryPolicy(max_attempts=1)


@pytest.fixture()
def store_objects() -> List[TemporalObject]:
    return random_objects(120, seed=61)


@pytest.fixture()
def cluster_objects() -> List[TemporalObject]:
    return random_objects(200, seed=62)


@pytest.fixture()
def tenant_root(tmp_path, store_objects, cluster_objects):
    """A root with a populated ``docs`` store and a ``shards`` cluster."""
    root = tmp_path / "tenants"
    root.mkdir()
    store = DurableIndexStore.open(
        root / "docs", index_key="irhint-perf", wal_fsync=False
    )
    for obj in store_objects:
        store.insert(obj)
    store.close()
    TemporalCluster.create(
        root / "shards",
        Collection(cluster_objects),
        index_key="tif-slicing",
        n_shards=3,
        n_replicas=2,
        wal_fsync=False,
        cache_size=0,
    ).close()
    return root


@pytest.fixture()
def registry(tenant_root) -> Iterator[TenantRegistry]:
    reg = TenantRegistry.open_root(tenant_root, wal_fsync=False)
    yield reg


@pytest.fixture()
def daemon(registry) -> Iterator[DaemonHandle]:
    """A live daemon over the tenant root; drained at teardown."""
    handle = start_daemon_thread(registry, ServerConfig())
    yield handle
    _stop_quietly(handle)


def _stop_quietly(handle: DaemonHandle) -> None:
    try:
        handle.stop(timeout=30.0)
    except RuntimeError:
        pass  # daemon thread error already surfaced by the test body


def make_client(handle: DaemonHandle, **kwargs) -> DaemonClient:
    kwargs.setdefault("timeout", 5.0)
    assert handle.port is not None
    return DaemonClient("127.0.0.1", handle.port, **kwargs)


@pytest.fixture()
def client(daemon) -> Iterator[DaemonClient]:
    with make_client(daemon) as c:
        yield c


@pytest.fixture()
def strict_client(daemon) -> Iterator[DaemonClient]:
    """No retries, no at-least-once smoothing: raw error semantics."""
    with make_client(daemon, retry=NO_RETRY, idempotent_mutations=False) as c:
        yield c


class Watchdog:
    """Bounded joins for worker threads: a hang fails, never deadlocks."""

    def __init__(self) -> None:
        self.threads: List[threading.Thread] = []
        self.errors: List[BaseException] = []

    def spawn(self, fn, *args) -> None:
        def run() -> None:
            try:
                fn(*args)
            except BaseException as exc:  # noqa: BLE001 — surfaced in join_all
                self.errors.append(exc)

        thread = threading.Thread(target=run, daemon=True)
        self.threads.append(thread)
        thread.start()

    def join_all(self, timeout: float = 60.0) -> None:
        deadline = timeout
        for thread in self.threads:
            thread.join(deadline)
            assert not thread.is_alive(), "worker thread hung — no-hang contract broken"
        if self.errors:
            raise self.errors[0]
