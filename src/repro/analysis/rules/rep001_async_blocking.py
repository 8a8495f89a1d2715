"""REP001 — no blocking calls on the event loop.

The loop runs ``async def`` bodies, and also the callbacks of every
``asyncio.Protocol`` subclass (:data:`PROTOCOL_CALLBACKS`) together with
every function of the same module they call synchronously: the daemon
answers an uncontended read inside ``data_received``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Set, Union

from repro.analysis.project import ModuleInfo
from repro.analysis.rules.base import (
    RawFinding,
    Rule,
    call_name,
    dotted_name,
    iter_functions,
    last_segment,
    walk_own_scope,
)

#: Exact dotted names that block the calling thread.
_BLOCKING_EXACT = frozenset(
    {
        "time.sleep",
        "open",
        "input",
        "os.system",
        "os.popen",
        "socket.create_connection",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "retry_call",
    }
)

#: Method names that block regardless of receiver (retry helper, pathlib
#: file I/O, socket primitives).
_BLOCKING_METHODS = frozenset(
    {
        "retry_call",
        "read_text",
        "write_text",
        "read_bytes",
        "write_bytes",
        "recv",
        "sendall",
        "makefile",
    }
)


#: The ``asyncio.Protocol`` callbacks the event loop calls.
PROTOCOL_CALLBACKS = frozenset(
    {
        "connection_made",
        "data_received",
        "eof_received",
        "connection_lost",
        "pause_writing",
        "resume_writing",
    }
)

_Func = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _loop_functions(tree: ast.AST) -> List[_Func]:
    """Every ``async def``, every Protocol callback, and every sync function
    of the module a callback reaches through calls by name."""
    sync: Dict[str, List[ast.FunctionDef]] = {}
    roots: List[ast.FunctionDef] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            sync.setdefault(node.name, []).append(node)
        if isinstance(node, ast.ClassDef) and any(
            (dotted_name(base) or "").endswith("Protocol") for base in node.bases
        ):
            roots += [
                item for item in node.body
                if isinstance(item, ast.FunctionDef) and item.name in PROTOCOL_CALLBACKS
            ]
    reached: Set[int] = set()
    found: List[_Func] = []
    stack = list(roots)
    while stack:
        func = stack.pop()
        if id(func) in reached:
            continue
        reached.add(id(func))
        found.append(func)
        for node in walk_own_scope(func):
            name = call_name(node) if isinstance(node, ast.Call) else None
            if name is not None:
                stack += sync.get(last_segment(name), [])
    found += [f for f in iter_functions(tree) if isinstance(f, ast.AsyncFunctionDef)]
    return found


class AsyncBlockingRule(Rule):
    code = "REP001"
    title = "no blocking calls on the event loop (async def bodies, Protocol callbacks)"
    rationale = (
        "The daemon runs every socket and admission decision on one event "
        "loop; a single time.sleep / blocking I/O / RetryPolicy.retry_call "
        "on that loop stalls every connection at once.  Blocking work "
        "belongs on the executor pool (closures handed to run_in_executor "
        "are exempt: only the async function's own scope is checked).  "
        "asyncio.Protocol callbacks and the module functions they call run "
        "on the loop too, and are checked the same way."
    )

    def check_module(self, module: ModuleInfo) -> Iterable[RawFinding]:
        for func in _loop_functions(module.tree):
            kind = "async def" if isinstance(func, ast.AsyncFunctionDef) else "loop callback"
            for node in walk_own_scope(func):
                if not isinstance(node, ast.Call):
                    continue
                name = call_name(node)
                if name is None:
                    continue
                blocked = name in _BLOCKING_EXACT or (
                    "." in name and last_segment(name) in _BLOCKING_METHODS
                )
                if blocked:
                    yield RawFinding(
                        module,
                        node.lineno,
                        f"blocking call {name}() inside {kind} "
                        f"{func.name}(); move it to the executor pool or "
                        f"use the asyncio equivalent",
                    )
