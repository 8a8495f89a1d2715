"""The runtime lock-order checker: cycles, writer holds, bookkeeping.

These tests drive real lock objects (``make_lock`` mutexes and
``AsyncRWLock``) through deliberately bad interleavings and assert the
checker convicts exactly those — including the canonical ABBA deadlock
pattern — while the disciplined orderings used by the daemon and the
cluster stay clean.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.analysis import lockcheck
from repro.analysis.lockcheck import LockOrderChecker, LockOrderError
from repro.utils import locks
from repro.utils.locks import AsyncRWLock, TrackedLock, make_lock


@pytest.fixture()
def checker():
    chk = lockcheck.install()
    yield chk
    lockcheck.uninstall()


class TestFactoryWiring:
    def test_make_lock_is_raw_without_observer(self):
        assert locks.get_observer() is None
        lock = make_lock("x")
        assert isinstance(lock, type(threading.Lock()))

    def test_make_lock_is_tracked_with_observer(self, checker):
        lock = make_lock("x")
        assert isinstance(lock, TrackedLock)
        with lock:
            assert lock.locked()
        assert not lock.locked()
        assert checker.acquisitions == 1

    def test_uninstall_restores_previous_observer(self):
        first = lockcheck.install()
        assert locks.get_observer() is first
        lockcheck.uninstall()
        assert locks.get_observer() is None

    def test_enabled_from_env(self):
        assert lockcheck.enabled_from_env({"REPRO_LOCKCHECK": "1"})
        assert not lockcheck.enabled_from_env({"REPRO_LOCKCHECK": "0"})
        assert not lockcheck.enabled_from_env({})


class TestOrderingGraph:
    def test_abba_cycle_is_detected(self, checker):
        lock_a = make_lock("a")
        lock_b = make_lock("b")
        with lock_a:
            with lock_b:
                pass
        with lock_b:
            with lock_a:  # closes the cycle: a -> b -> a
                pass
        assert [v.kind for v in checker.violations] == ["lock-order-cycle"]
        violation = checker.violations[0]
        assert set(violation.cycle) == {"a", "b"}
        with pytest.raises(LockOrderError):
            checker.assert_clean()

    def test_abba_across_threads_is_detected(self, checker):
        lock_a = make_lock("a")
        lock_b = make_lock("b")

        def forward():
            with lock_a:
                with lock_b:
                    pass

        def backward():
            with lock_b:
                with lock_a:
                    pass

        # Sequential threads: no real deadlock fires, but the ordering
        # graph still convicts the interleaving that *could*.
        for target in (forward, backward):
            thread = threading.Thread(target=target)
            thread.start()
            thread.join(10)
            assert not thread.is_alive()
        assert [v.kind for v in checker.violations] == ["lock-order-cycle"]

    def test_three_party_cycle(self, checker):
        a, b, c = make_lock("a"), make_lock("b"), make_lock("c")
        for first, second in ((a, b), (b, c), (c, a)):
            with first:
                with second:
                    pass
        assert [v.kind for v in checker.violations] == ["lock-order-cycle"]
        assert len(checker.violations[0].cycle) >= 3

    def test_consistent_ordering_is_clean(self, checker):
        lock_a = make_lock("a")
        lock_b = make_lock("b")
        for _ in range(3):
            with lock_a:
                with lock_b:
                    pass
        assert checker.edges() == {"a": {"b"}}
        checker.assert_clean()

    def test_reentrant_same_role_is_not_an_edge(self, checker):
        # Two instances sharing a role: ordering is per-role, so nesting
        # them must not create a self-edge (a -> a "cycle").
        first = make_lock("pool")
        second = make_lock("pool")
        with first:
            with second:
                pass
        assert checker.edges() == {}
        checker.assert_clean()

    def test_strict_mode_raises_at_the_violation(self):
        checker = lockcheck.install(strict=True)
        try:
            lock_a = make_lock("a")
            lock_b = make_lock("b")
            with lock_a:
                with lock_b:
                    pass
            with lock_b:
                with pytest.raises(LockOrderError):
                    lock_a.acquire()
        finally:
            lockcheck.uninstall()


class TestAsyncRWLock:
    def test_await_while_holding_writer_is_convicted(self, checker):
        async def scenario():
            outer = AsyncRWLock(name="tenant:a")
            inner = AsyncRWLock(name="tenant:b")
            await outer.acquire_write()
            await inner.acquire_read()  # event loop parked behind a writer
            inner.release_read()
            outer.release_write()

        asyncio.run(scenario())
        kinds = [v.kind for v in checker.violations]
        assert "await-while-holding-writer" in kinds
        message = checker.violations[0].message
        assert "tenant:a" in message and "tenant:b" in message

    def test_sequential_rw_use_is_clean(self, checker):
        async def scenario():
            rw = AsyncRWLock(name="tenant:a")
            await rw.acquire_write()
            rw.release_write()
            await rw.acquire_read()
            rw.release_read()

        asyncio.run(scenario())
        assert checker.acquisitions == 2
        checker.assert_clean()

    def test_thread_mutex_under_writer_is_an_edge_not_a_violation(self, checker):
        # Holding a writer while taking a plain mutex is the daemon's
        # normal shape (metrics under the tenant lock); only *awaiting
        # another async lock* parks the loop.
        async def scenario():
            rw = AsyncRWLock(name="tenant:a")
            mutex = make_lock("obs.events")
            await rw.acquire_write()
            with mutex:
                pass
            rw.release_write()

        asyncio.run(scenario())
        checker.assert_clean()
        assert checker.edges() == {"tenant:a": {"obs.events"}}

    def test_cross_context_release_is_reconciled(self, checker):
        # The daemon releases every pool-run hold from the pool future's
        # done-callback — a different context than the acquiring task.
        # The checker must find and clear the hold anyway.
        async def acquire_only():
            rw = AsyncRWLock(name="tenant:a")
            await rw.acquire_write()
            return rw

        rw = asyncio.run(acquire_only())
        releaser = threading.Thread(target=rw.release_write)
        releaser.start()
        releaser.join(10)
        assert not releaser.is_alive()
        checker.assert_clean()
        assert checker._held == {}  # no stale ownership left behind

    def test_cancel_after_grant_leaves_other_holds_alone(self, checker):
        # A reader granted the lock but cancelled before it resumes hands
        # its hold back; that release must not clear another reader's.
        async def scenario():
            rw = AsyncRWLock(name="tenant:a")
            await rw.acquire_write()
            first = asyncio.create_task(rw.acquire_read())
            await asyncio.sleep(0)
            second = asyncio.create_task(rw.acquire_read())
            await asyncio.sleep(0)
            rw.release_write()  # grants both readers
            second.cancel()
            await asyncio.gather(first, second, return_exceptions=True)
            held = [h.name for hs in checker._held.values() for h in hs]
            rw.release_read()
            return held

        assert asyncio.run(scenario()) == ["tenant:a"]
        checker.assert_clean()
        assert checker._held == {}


class TestReporting:
    def test_report_counts_acquisitions_and_edges(self, checker):
        lock_a = make_lock("a")
        lock_b = make_lock("b")
        with lock_a:
            with lock_b:
                pass
        text = checker.report()
        assert "2 acquisition(s)" in text
        assert "1 ordering edge(s)" in text
        assert "0 violation(s)" in text

    def test_violation_render_names_the_cycle(self):
        checker = LockOrderChecker()
        checker.before_acquire("b", "exclusive")  # nothing held: no edge
        checker.acquired("a", "exclusive")
        checker.before_acquire("b", "exclusive")
        checker.acquired("b", "exclusive")
        checker.released("b", "exclusive")
        checker.released("a", "exclusive")
        checker.acquired("b", "exclusive")
        checker.before_acquire("a", "exclusive")
        assert len(checker.violations) == 1
        rendered = checker.violations[0].render()
        assert "lock-order-cycle" in rendered
        assert "a" in rendered and "b" in rendered
