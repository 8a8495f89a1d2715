"""Rule plumbing: the base class and shared AST helpers."""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import ClassVar, Iterable, Iterator, List, Optional

from repro.analysis.project import ModuleInfo, Project


@dataclass
class RawFinding:
    """A rule's output before suppression filtering (engine adds the rest)."""

    module: ModuleInfo
    line: int
    message: str


class Rule:
    """One invariant.  Subclasses implement a module pass, a project pass,
    or both; the engine runs whichever is overridden."""

    #: Stable identifier used in reports and suppression comments.
    code: ClassVar[str] = "ANA000"
    #: One-line human description (the rule catalog in docs).
    title: ClassVar[str] = ""
    #: Why the invariant exists (rendered by ``repro lint --list-rules``).
    rationale: ClassVar[str] = ""

    def applies_to(self, module: ModuleInfo) -> bool:
        return True

    def check_module(self, module: ModuleInfo) -> Iterable[RawFinding]:
        return ()

    def check_project(self, project: Project) -> Iterable[RawFinding]:
        return ()


# --------------------------------------------------------------- AST helpers
def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain; None when the chain is broken
    by a call, subscript, or other non-name expression."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def call_name(call: ast.Call) -> Optional[str]:
    """The dotted name of a call's callee, when statically resolvable."""
    return dotted_name(call.func)


def last_segment(name: str) -> str:
    return name.rsplit(".", 1)[-1]


def iter_calls(node: ast.AST) -> Iterator[ast.Call]:
    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            yield child


def iter_functions(
    tree: ast.AST,
) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def walk_own_scope(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested functions or
    lambdas — their bodies execute in *their* context, not this one.

    This is what makes REP001 sound on the daemon: a sync closure defined
    inside an ``async def`` but executed on the worker pool may block
    freely; only code that runs on the event loop itself is in scope.
    (The daemon's read closures also run on the loop when their work
    bound fits the inline budget; they probe an in-memory index and do
    no I/O.)
    """
    stack: List[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def keyword_value(call: ast.Call, name: str) -> Optional[ast.expr]:
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


def constant_str(node: Optional[ast.expr]) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def constant_str_elements(node: Optional[ast.expr]) -> Optional[List[str]]:
    """The string elements of a tuple/list literal, or None."""
    if not isinstance(node, (ast.Tuple, ast.List)):
        return None
    out: List[str] = []
    for element in node.elts:
        text = constant_str(element)
        if text is None:
            return None
        out.append(text)
    return out
