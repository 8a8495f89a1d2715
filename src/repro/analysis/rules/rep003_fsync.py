"""REP003 — durable writes flow through the fsio seam.

Scope: ``repro.service``, ``repro.storage``, ``repro.cluster`` and
``repro.indexes.persistence`` — every package that puts durable bytes on
disk.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from repro.analysis.project import ModuleInfo
from repro.analysis.rules.base import RawFinding, Rule, constant_str, keyword_value

#: The one module allowed to touch ``open`` directly: it *is* the seam.
_SEAM_MODULE = "repro.service.fsio"

#: The packages (and one module) whose writes are durable state.
_SCOPE = ("repro.service", "repro.storage", "repro.cluster", "repro.indexes.persistence")


def _mode_expr(call: ast.Call) -> Optional[ast.expr]:
    if len(call.args) >= 2:
        return call.args[1]
    return keyword_value(call, "mode")


class FsyncDisciplineRule(Rule):
    code = "REP003"
    title = "durable file writes must go through the fsio seam"
    rationale = (
        "Crash-consistency holds because every durable byte flows through "
        "FileSystem (fsio) — the object the fault injector substitutes and "
        "the single place fsync discipline lives.  A raw builtin "
        "open(..., 'w') in a durable package writes bytes the crash matrix "
        "never tears, so its failure modes are untested.  Segment installs, "
        "tier-state commits, cluster manifests and routing tables, and "
        "saved index snapshots carry the same obligation as WALs and "
        "store snapshots."
    )

    def applies_to(self, module: ModuleInfo) -> bool:
        return module.module != _SEAM_MODULE and any(
            module.in_package(scope) for scope in _SCOPE
        )

    def check_module(self, module: ModuleInfo) -> Iterable[RawFinding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            # Only the *builtin* open: attribute calls (self.fs.open,
            # fs.open) are the seam working as intended.
            if not (isinstance(node.func, ast.Name) and node.func.id == "open"):
                continue
            mode_node = _mode_expr(node)
            mode = constant_str(mode_node)
            if mode is None and mode_node is None:
                continue  # bare open(path) defaults to read-only
            if mode is not None and not any(c in mode for c in "wax+"):
                continue  # provably read-only
            shown = mode if mode is not None else "<dynamic>"
            yield RawFinding(
                module,
                node.lineno,
                f"raw open(..., {shown!r}) in a durable package; durable "
                f"writes must go through FileSystem.open (repro.service."
                f"fsio) so the crash matrix covers them",
            )
