"""Cluster-suite fixtures: the runtime lock-order gate.

Every lock minted through :func:`repro.utils.locks.make_lock` — the shard
group's write lock, the cluster swap lock, the executor result-cache
mutex — reports its acquisitions to :mod:`repro.analysis.lockcheck`, which
builds the lock-ordering graph across the whole package and fails the
run at teardown if any interleaving could deadlock.
"""

from __future__ import annotations

from typing import Iterator

import pytest


@pytest.fixture(scope="package", autouse=True)
def lockcheck_gate() -> Iterator[None]:
    from repro.analysis import lockcheck

    checker = lockcheck.install()
    try:
        yield
    finally:
        lockcheck.uninstall()
        checker.assert_clean()
