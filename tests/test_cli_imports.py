"""``import repro.cli`` loads only what every command shares.

``serve-net`` starts through ``repro.cli``, so a module that only another
subcommand uses — the bench harness, the dataset generators and their
statistics, ``explain`` — is imported inside that subcommand, never at
module level.  A fresh interpreter checks it: this one has long since
imported them all.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.bench.config import SCALES

SRC = str(Path(repro.__file__).resolve().parents[1])

PROBE = """
import sys
import repro.cli
print("\\n".join(sorted(sys.modules)))
"""


def test_import_leaves_other_commands_modules_unloaded():
    loaded = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": SRC},
    ).stdout.split()
    assert "repro.cli" in loaded and "repro.indexes.registry" in loaded
    unwanted = [
        name for name in loaded
        if name == "repro.bench" or name.startswith("repro.bench.")
        or name == "repro.indexes.explain"
        or name in ("repro.datasets.eclog", "repro.datasets.wikipedia", "repro.datasets.stats")
    ]
    assert unwanted == []


def test_scale_choices_are_the_bench_scales():
    from repro.cli import _SCALES

    assert _SCALES == tuple(sorted(SCALES))
