"""``AsyncRWLock``: no suspension when admissible, FIFO grants, clean timeouts.

Every acquisition here also feeds the lock-order checker, which must end
the module clean.
"""

import asyncio

import pytest

from repro.analysis import lockcheck
from repro.utils.locks import AsyncRWLock


@pytest.fixture(scope="module", autouse=True)
def lockcheck_gate():
    checker = lockcheck.install()
    try:
        yield
    finally:
        lockcheck.uninstall()
        checker.assert_clean()


def _parked(lock):
    return [("w" if write else "r") for write, _ in lock._waiters]


def test_uncontended_acquire_does_not_yield_to_the_loop():
    async def go():
        lock = AsyncRWLock()
        ran = []
        asyncio.get_running_loop().call_soon(ran.append, "marker")
        assert await lock.acquire_read() is True
        assert await lock.acquire_read(timeout=1.0) is True
        lock.release_read()
        lock.release_read()
        assert await lock.acquire_write(timeout=1.0) is True
        lock.release_write()
        assert ran == []  # the loop never got a turn
        await asyncio.sleep(0)
        assert ran == ["marker"]

    asyncio.run(go())


class RecordingObserver:
    def __init__(self):
        self.calls = []

    def before_acquire(self, name, mode):
        self.calls.append(("before", name, mode))

    def acquired(self, name, mode):
        self.calls.append(("acquired", name, mode))

    def released(self, name, mode):
        self.calls.append(("released", name, mode))


def test_try_acquire_read_grants_only_what_would_not_park():
    async def go():
        lock = AsyncRWLock()
        assert lock.try_acquire_read() is True  # free
        assert lock.try_acquire_read() is True  # readers share
        writer = asyncio.create_task(lock.acquire_write())
        await asyncio.sleep(0)
        assert _parked(lock) == ["w"]
        assert lock.try_acquire_read() is False  # a queued writer goes first
        assert lock._readers == 2
        lock.release_read()
        lock.release_read()
        assert await writer is True
        assert lock.try_acquire_read() is False  # a writer holds it
        lock.release_write()
        assert lock.try_acquire_read() is True
        lock.release_read()
        assert lock._readers == 0 and not lock._writing and not lock._waiters

    asyncio.run(go())


def test_try_acquire_read_reports_to_the_observer(monkeypatch):
    from repro.utils import locks

    observer = RecordingObserver()
    monkeypatch.setattr(locks, "_observer", observer)
    lock = AsyncRWLock("tenant:t")
    lock._writing = True
    assert lock.try_acquire_read() is False
    lock._writing = False
    assert lock.try_acquire_read() is True
    lock.release_read()
    assert observer.calls == [
        ("before", "tenant:t", "read"),
        ("before", "tenant:t", "read"),
        ("acquired", "tenant:t", "read"),
        ("released", "tenant:t", "read"),
    ]


def test_queued_writer_makes_new_readers_wait():
    async def go():
        lock = AsyncRWLock()
        await lock.acquire_read()
        writer = asyncio.create_task(lock.acquire_write())
        await asyncio.sleep(0)
        reader = asyncio.create_task(lock.acquire_read())
        await asyncio.sleep(0.01)
        assert not writer.done() and not reader.done()
        assert _parked(lock) == ["w", "r"]
        lock.release_read()
        assert await writer is True
        assert not reader.done()  # still behind the writer it queued after
        lock.release_write()
        assert await reader is True
        assert lock._readers == 1 and not lock._writing and not lock._waiters

    asyncio.run(go())


def test_timed_out_writer_leaves_counters_clean_and_wakes_held_readers():
    async def go():
        lock = AsyncRWLock()
        await lock.acquire_read()
        writer = asyncio.create_task(lock.acquire_write(timeout=0.02))
        await asyncio.sleep(0)
        reader = asyncio.create_task(lock.acquire_read())
        await asyncio.sleep(0)
        assert not reader.done()
        assert await writer is False
        assert await asyncio.wait_for(reader, 1.0) is True
        assert lock._readers == 2 and not lock._writing and not lock._waiters
        lock.release_read()
        lock.release_read()
        assert await lock.acquire_write() is True  # nothing stale left behind

    asyncio.run(go())


def test_synchronous_release_wakes_exactly_the_admissible_head():
    async def go():
        lock = AsyncRWLock()
        await lock.acquire_write()
        tasks = {}
        for name in ("r1", "r2", "w2", "r3"):
            acquire = lock.acquire_write if name[0] == "w" else lock.acquire_read
            tasks[name] = asyncio.create_task(acquire())
            await asyncio.sleep(0)
        assert _parked(lock) == ["r", "r", "w", "r"]

        lock.release_write()  # grants r1 and r2 before anything runs
        assert lock._readers == 2 and _parked(lock) == ["w", "r"]
        await asyncio.sleep(0.01)
        assert [n for n, t in tasks.items() if t.done()] == ["r1", "r2"]

        lock.release_read()
        assert _parked(lock) == ["w", "r"]  # one reader still holds
        lock.release_read()
        assert lock._writing and _parked(lock) == ["r"]  # w2 only
        await asyncio.sleep(0.01)
        assert not tasks["r3"].done()

        lock.release_write()
        assert lock._readers == 1 and not lock._waiters
        assert all(await asyncio.gather(*tasks.values()))

    asyncio.run(go())


def test_waiter_cancelled_after_its_grant_hands_the_lock_on():
    async def go():
        lock = AsyncRWLock()
        await lock.acquire_write()
        reader = asyncio.create_task(lock.acquire_read())
        await asyncio.sleep(0)
        writer = asyncio.create_task(lock.acquire_write())
        await asyncio.sleep(0)
        lock.release_write()  # grants the reader ...
        reader.cancel()  # ... whose task is cancelled before it resumes
        await asyncio.gather(reader, return_exceptions=True)
        assert reader.cancelled()
        assert await asyncio.wait_for(writer, 1.0) is True
        assert lock._writing and lock._readers == 0 and not lock._waiters

    asyncio.run(go())
