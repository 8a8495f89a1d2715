"""Runtime lock-order and deadlock-pattern detection.

The static rules catch what the AST can see; ordering bugs between the
daemon's tenant RW locks, the executor cache mutex and the cluster's
swap/write locks only exist at runtime.  This module implements the
:class:`~repro.utils.locks.LockObserver` protocol: installed (via
:func:`install` or the ``REPRO_LOCKCHECK=1`` test fixtures), it watches
every acquisition flowing through :func:`repro.utils.locks.make_lock`
and :class:`repro.utils.locks.AsyncRWLock` and maintains

* a **lock-ordering graph** — an edge ``A → B`` records that some
  context acquired ``B`` while holding ``A``.  A cycle in that graph is
  a deadlock waiting for the right interleaving; it is recorded the
  moment the closing edge appears, with both witness stacks.
* the **await-while-holding-writer** check — an asyncio task that
  *awaits another lock acquisition* while already holding an
  ``AsyncRWLock`` writer is parked on the event loop with every reader
  of that tenant blocked behind it; the daemon's design never does
  this, so any occurrence is a regression.

Locks are identified by *name* (role), not instance: ``tenant:<name>``
RW locks, ``exec.cache``, ``cluster.swap`` … — ordering discipline is a
property of roles.  Ownership is tracked per *context* (asyncio task
when inside a loop, thread otherwise), and a release may legally arrive
from a different context than the acquire (the daemon releases every
pool-run hold from the pool future's done-callback, which runs as a
plain loop callback outside any task), so release bookkeeping falls
back to a cross-context search.

Production cost is zero: nothing in this module is imported by the
serving path, and with no observer installed the hooks in
``repro.utils.locks`` are one global load and a branch.
"""

from __future__ import annotations

import asyncio
import threading
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.utils import locks as _locks

#: (thread ident, asyncio task id or None) — who holds/acquires a lock.
ContextKey = Tuple[int, Optional[int]]


def _context() -> ContextKey:
    task_id: Optional[int] = None
    try:
        task = asyncio.current_task()
    except RuntimeError:
        task = None
    if task is not None:
        task_id = id(task)
    return (threading.get_ident(), task_id)


@dataclass
class Violation:
    """One detected ordering/holding violation."""

    kind: str  # "lock-order-cycle" | "await-while-holding-writer"
    message: str
    cycle: Tuple[str, ...] = ()
    stack: str = ""

    def render(self) -> str:
        text = f"[{self.kind}] {self.message}"
        if self.stack:
            text += f"\n  acquisition stack:\n{self.stack}"
        return text


class LockOrderError(AssertionError):
    """Raised by :meth:`LockOrderChecker.assert_clean` (and immediately in
    strict mode) when the run produced violations."""


@dataclass
class _Held:
    name: str
    mode: str


class LockOrderChecker:
    """The observer: builds the ordering graph, records violations.

    ``strict=True`` raises :class:`LockOrderError` at the violating
    acquisition (best for unit tests); the default records and keeps
    going so a whole suite can finish and report every violation at
    session teardown via :meth:`assert_clean`.
    """

    def __init__(self, strict: bool = False) -> None:
        self.strict = strict
        self.violations: List[Violation] = []
        self.acquisitions = 0
        self._edges: Dict[str, Set[str]] = {}
        self._edge_witness: Dict[Tuple[str, str], str] = {}
        self._held: Dict[ContextKey, List[_Held]] = {}
        # The checker's own mutex is deliberately a *raw* lock: observing
        # it would recurse.
        self._mutex = threading.Lock()

    # ---------------------------------------------------- observer protocol
    def before_acquire(self, name: str, mode: str) -> None:
        ctx = _context()
        stack = "".join(traceback.format_stack(limit=8)[:-1])
        with self._mutex:
            held = self._held.get(ctx, [])
            if mode in ("read", "write"):
                for entry in held:
                    if entry.mode == "write" and entry.name != name:
                        self._record(
                            Violation(
                                kind="await-while-holding-writer",
                                message=(
                                    f"awaiting acquisition of {name!r} "
                                    f"({mode}) while holding writer lock "
                                    f"{entry.name!r} parks the event loop "
                                    f"behind an exclusive hold"
                                ),
                                stack=stack,
                            )
                        )
            for entry in held:
                if entry.name != name:
                    self._add_edge(entry.name, name, stack)

    def acquired(self, name: str, mode: str) -> None:
        ctx = _context()
        with self._mutex:
            self.acquisitions += 1
            self._held.setdefault(ctx, []).append(_Held(name, mode))

    def released(self, name: str, mode: str) -> None:
        ctx = _context()
        with self._mutex:
            if self._remove(ctx, name, mode):
                return
            # Cross-context release (e.g. the daemon's pool-future
            # done-callback): find whoever holds it.
            for other in list(self._held):
                if self._remove(other, name, mode):
                    return

    # ------------------------------------------------------------- internals
    def _remove(self, ctx: ContextKey, name: str, mode: str) -> bool:
        held = self._held.get(ctx)
        if not held:
            return False
        for index in range(len(held) - 1, -1, -1):
            if held[index].name == name and held[index].mode == mode:
                del held[index]
                if not held:
                    del self._held[ctx]
                return True
        return False

    def _add_edge(self, src: str, dst: str, stack: str) -> None:
        targets = self._edges.setdefault(src, set())
        if dst in targets:
            return
        cycle = self._path(dst, src)
        targets.add(dst)
        self._edge_witness[(src, dst)] = stack
        if cycle is not None:
            full = tuple(cycle) + (dst,)
            witness = self._edge_witness.get((cycle[-1], dst), "")
            self._record(
                Violation(
                    kind="lock-order-cycle",
                    message=(
                        "lock-ordering cycle: "
                        + " -> ".join(full)
                        + f" (closing edge {src!r} -> {dst!r})"
                    ),
                    cycle=full,
                    stack=stack or witness,
                )
            )

    def _path(self, start: str, goal: str) -> Optional[List[str]]:
        """A path start →* goal in the current graph, or None."""
        stack: List[List[str]] = [[start]]
        seen = {start}
        while stack:
            path = stack.pop()
            node = path[-1]
            if node == goal:
                return path
            for nxt in self._edges.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(path + [nxt])
        return None

    def _record(self, violation: Violation) -> None:
        self.violations.append(violation)
        if self.strict:
            raise LockOrderError(violation.render())

    # -------------------------------------------------------------- reporting
    def edges(self) -> Dict[str, Set[str]]:
        with self._mutex:
            return {src: set(dst) for src, dst in self._edges.items()}

    def report(self) -> str:
        lines = [
            f"lockcheck: {self.acquisitions} acquisition(s), "
            f"{sum(len(v) for v in self._edges.values())} ordering edge(s), "
            f"{len(self.violations)} violation(s)"
        ]
        lines.extend(violation.render() for violation in self.violations)
        return "\n".join(lines)

    def assert_clean(self) -> None:
        if self.violations:
            raise LockOrderError(self.report())


def install(strict: bool = False) -> LockOrderChecker:
    """Create a checker and install it as the process lock observer."""
    checker = LockOrderChecker(strict=strict)
    _locks.install_observer(checker)
    return checker


def uninstall() -> None:
    """Remove any installed observer (leftover tracked locks go quiet)."""
    _locks.install_observer(None)


def enabled_from_env(environ: Optional[Dict[str, str]] = None) -> bool:
    """Whether the ``REPRO_LOCKCHECK=1`` opt-in flag is set."""
    import os

    env = environ if environ is not None else dict(os.environ)
    return env.get("REPRO_LOCKCHECK", "") == "1"
