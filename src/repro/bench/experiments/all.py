"""Run every table and figure of the evaluation, in paper order."""

from __future__ import annotations

from typing import Dict

from repro.bench.cli import run_cli
from repro.bench.experiments import (
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    table3,
    table5,
    table6,
    table7,
)

#: Paper order: setup stats, tuning, variant comparison, main comparison,
#: updates.
SEQUENCE = [
    ("table3", table3),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("table5", table5),
    ("fig11", fig11),
    ("fig12", fig12),
    ("table6", table6),
    ("table7", table7),
]


def run(scale: str = "small", seed: int = 0) -> Dict[str, object]:
    """Run the full evaluation; returns every experiment's results."""
    results: Dict[str, object] = {}
    for name, module in SEQUENCE:
        results[name] = module.run(scale=scale, seed=seed)
    return results


if __name__ == "__main__":
    run_cli(run, __doc__ or "full evaluation")
