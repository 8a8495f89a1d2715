"""Storage-suite fixtures: the runtime lock-order gate.

Every lock minted through :func:`repro.utils.locks.make_lock` — the
segment cache mutex, and the cluster swap lock the tiering tests acquire around it —
reports its acquisitions to :mod:`repro.analysis.lockcheck`, which
builds the lock-ordering graph across the whole package and fails the
run at teardown if any interleaving could deadlock.  The ordering under
test here is ``cluster.swap > storage.segment-cache``: promotion holds
the swap lock while discarding a cached reader, so no path may take the
locks the other way around.
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
