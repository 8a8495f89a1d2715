"""Lock primitives with optional order-checking instrumentation.

:class:`AsyncRWLock` is the daemon's many-readers/one-writer asyncio
lock (it lives here so the lock-order checker can observe it without
importing the serving tier); :func:`make_lock` is the factory every
``threading.Lock`` creation site in the library goes through.

Both report to a module-level :class:`LockObserver` slot (implemented by
:class:`repro.analysis.lockcheck.LockOrderChecker`).  Production never
installs one, so the overhead is one global load and a branch per
acquisition — and for :func:`make_lock`, zero: the raw ``threading.Lock``
is returned.  ``mode`` is ``"read"``/``"write"`` for the RW lock and
``"exclusive"`` for mutexes; the hooks carry only the lock's name, its
identity in the ordering graph (ordering discipline is a property of
lock *roles*, not instances), and the observer derives *who* acquires.
"""

from __future__ import annotations

import asyncio
import threading
from collections import deque
from typing import Any, Coroutine, Deque, Optional, Protocol, Tuple, Union


class LockObserver(Protocol):
    """What the lock-order checker implements (see module docstring)."""

    def before_acquire(self, name: str, mode: str) -> None: ...  # may block next

    def acquired(self, name: str, mode: str) -> None: ...  # acquisition succeeded

    def released(self, name: str, mode: str) -> None: ...  # lock handed back


#: The installed observer, or None (the production state).
_observer: Optional[LockObserver] = None


def install_observer(observer: Optional[LockObserver]) -> Optional[LockObserver]:
    """Install ``observer`` (or None to clear); returns the previous one.

    Only locks *created after* installation are tracked by
    :func:`make_lock`; :class:`AsyncRWLock` instances check the slot on
    every acquisition, so existing RW locks join immediately.
    """
    global _observer
    previous = _observer
    _observer = observer
    return previous


def get_observer() -> Optional[LockObserver]:
    """The currently installed observer (None in production)."""
    return _observer


class TrackedLock:
    """A ``threading.Lock`` façade that reports to the observer.

    Created only by :func:`make_lock` while an observer is installed —
    the fast path of every method still guards on the module slot so an
    uninstalled observer (e.g. after a test) silences a leftover
    instance.
    """

    __slots__ = ("_lock", "name")

    def __init__(self, name: str) -> None:
        self._lock = threading.Lock()
        self.name = name

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        observer = _observer
        if observer is not None:
            observer.before_acquire(self.name, "exclusive")
        ok = self._lock.acquire(blocking, timeout)
        if ok and observer is not None:
            observer.acquired(self.name, "exclusive")
        return ok

    def release(self) -> None:
        observer = _observer
        self._lock.release()
        if observer is not None:
            observer.released(self.name, "exclusive")

    def locked(self) -> bool:
        return self._lock.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def __repr__(self) -> str:
        state = "locked" if self._lock.locked() else "unlocked"
        return f"<TrackedLock {self.name!r} {state}>"


#: What lock-holding call sites receive from :func:`make_lock`.
LockLike = Union[threading.Lock, TrackedLock]


def make_lock(name: str) -> LockLike:
    """A mutex for the role ``name`` — raw in production, tracked under test.

    Library code creates every long-lived ``threading.Lock`` through
    this factory so the lock-order checker can see acquisitions without
    monkeypatching the stdlib.  ``name`` should describe the lock's
    *role* (``"exec.cache"``, ``"cluster.swap"``), not the instance.
    """
    if _observer is None:
        return threading.Lock()
    return TrackedLock(name)


class AsyncRWLock:
    """Many readers or one writer, asyncio-native, writer-preferring.

    Two counters and a FIFO of parked ``(write, future)`` waiters.  An
    admissible acquire returns without suspending; a contended one parks
    a future, with a ``call_later`` timer when given a timeout (it then
    returns False).  Releases are synchronous and grant the admissible
    head: one writer, or every reader up to the next queued writer.  New
    readers wait while a writer is *queued*, so a stream of overlapping
    queries cannot starve an insert/delete past its deadline, and
    :meth:`try_acquire_read` grants only what an acquire would grant
    without parking.

    The daemon releases from the pool future's done-callback, not the
    acquiring task, so the observer hooks name the lock only and leave
    ownership bookkeeping to the checker.
    """

    def __init__(self, name: str = "rwlock") -> None:
        self.name = name
        self._readers = 0
        self._writing = False
        self._waiters: Deque[Tuple[bool, "asyncio.Future[bool]"]] = deque()

    def acquire_read(self, timeout: Optional[float] = None) -> Coroutine[Any, Any, bool]:
        return self._acquire(False, timeout)

    def acquire_write(self, timeout: Optional[float] = None) -> Coroutine[Any, Any, bool]:
        return self._acquire(True, timeout)

    def try_acquire_read(self) -> bool:
        """Take a read hold without waiting, or fail: False while a writer
        holds the lock or anyone is queued, so a queued writer keeps its
        place ahead of new readers."""
        observer = _observer
        if observer is not None:
            observer.before_acquire(self.name, "read")
        if self._writing or self._waiters:
            return False
        self._readers += 1
        if observer is not None:
            observer.acquired(self.name, "read")
        return True

    def release_read(self) -> None:
        self._readers -= 1
        if not self._readers:
            self._grant()
        observer = _observer
        if observer is not None:
            observer.released(self.name, "read")

    def release_write(self) -> None:
        self._writing = False
        self._grant()
        observer = _observer
        if observer is not None:
            observer.released(self.name, "write")

    async def _acquire(self, write: bool, timeout: Optional[float]) -> bool:
        mode = "write" if write else "read"
        observer = _observer
        if observer is not None:
            observer.before_acquire(self.name, mode)
        if self._writing or self._waiters or (write and self._readers):
            loop = asyncio.get_running_loop()
            entry = (write, loop.create_future())
            self._waiters.append(entry)
            timer = None if timeout is None else loop.call_later(timeout, self._expire, entry)
            try:
                if not await entry[1]:
                    return False
            except asyncio.CancelledError:
                if entry[1].cancelled():
                    self._expire(entry)  # still parked: leave the queue
                elif entry[1].result():  # granted, then cancelled: hand it on
                    if observer is not None:
                        observer.acquired(self.name, mode)
                    (self.release_write if write else self.release_read)()
                raise
            finally:
                if timer is not None:
                    timer.cancel()
        elif write:
            self._writing = True
        else:
            self._readers += 1
        if observer is not None:
            observer.acquired(self.name, mode)
        return True

    def _expire(self, entry: Tuple[bool, "asyncio.Future[bool]"]) -> None:
        """Drop a parked waiter; readers it held back may now be admissible."""
        if entry in self._waiters:
            self._waiters.remove(entry)
            if not entry[1].done():
                entry[1].set_result(False)
            self._grant()

    def _grant(self) -> None:
        waiters = self._waiters
        while waiters and not self._writing:
            write, fut = waiters[0]
            if write and self._readers:
                return
            waiters.popleft()
            if fut.done():
                continue  # cancelled; its task is about to unqueue it
            if write:
                self._writing = True
            else:
                self._readers += 1
            fut.set_result(True)
