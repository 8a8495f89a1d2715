"""REP004 — deterministic time/randomness in replay-covered modules."""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.project import ModuleInfo
from repro.analysis.rules.base import RawFinding, Rule, call_name

#: Packages whose behaviour the seeded differential / chaos harnesses
#: replay bit-for-bit.  Nondeterminism here breaks the oracle.
_COVERED = (
    "repro.core",
    "repro.ir",
    "repro.intervals",
    "repro.indexes",
    "repro.exec",
    "repro.service",
    "repro.cluster",
    "repro.server",
    "repro.utils",
    "repro.datasets",
)

#: Wall-clock reads (time.monotonic/perf_counter are deadline/latency
#: primitives and stay legal; it is *calendar* time that breaks replay).
_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "date.today",
        "datetime.date.today",
    }
)

#: Calls on the *module-level* random generator (process-global state).
_GLOBAL_RANDOM = frozenset(
    {
        "random.random",
        "random.randint",
        "random.randrange",
        "random.choice",
        "random.choices",
        "random.shuffle",
        "random.sample",
        "random.uniform",
        "random.gauss",
        "random.seed",
        "random.getrandbits",
    }
)


class DeterminismRule(Rule):
    code = "REP004"
    title = "no ambient wall-clock / global RNG in replay-covered modules"
    rationale = (
        "The differential harness replays seeded op interleavings against "
        "the BruteForce oracle, and the chaos suite replays fault schedules "
        "bit-for-bit from REPRO_FAULT_SEED.  time.time()/datetime.now() "
        "and the process-global random module smuggle ambient state into "
        "that replay; clocks and RNGs must arrive as injectable parameters "
        "(rng: random.Random, sleep=..., seeded defaults)."
    )

    def applies_to(self, module: ModuleInfo) -> bool:
        return any(module.in_package(prefix) for prefix in _COVERED)

    def check_module(self, module: ModuleInfo) -> Iterable[RawFinding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name is None:
                continue
            if name in _WALL_CLOCK:
                yield RawFinding(
                    module,
                    node.lineno,
                    f"wall-clock read {name}() in a replay-covered module; "
                    f"inject a clock (or use time.monotonic for durations)",
                )
            elif name in _GLOBAL_RANDOM:
                yield RawFinding(
                    module,
                    node.lineno,
                    f"process-global RNG call {name}() in a replay-covered "
                    f"module; take an injected random.Random instead",
                )
            elif name == "random.Random" and not node.args and not node.keywords:
                yield RawFinding(
                    module,
                    node.lineno,
                    "unseeded random.Random() in a replay-covered module; "
                    "accept an injected (seedable) generator",
                )
