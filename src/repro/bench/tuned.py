"""Tuned build parameters (the outcome of the paper's Section 5.2).

* tIF+Slicing — 50 slices (Figure 8's plateau knee);
* tIF+HINT (merge) and the hybrid — ``m`` capped at 5;
* tIF+HINT (binary) — ``m`` capped at 10;
* irHINT — ``num_bits=None``: the cap of 16 under which the HINT cost model
  of [19] picks each run's ``m``, which the paper found effective for the
  HINT-first design (§5.4).

Every ``num_bits`` is a cap: the cost rule
(:mod:`repro.intervals.hint.cost_model`) picks each run's ``m`` under it,
or reads the run flat.
"""

from __future__ import annotations

from typing import Dict

TUNED_PARAMS: Dict[str, Dict[str, object]] = {
    "tif": {},
    "tif-slicing": {"n_slices": 50},
    "tif-sharding": {"max_shards": 16},
    "tif-hint-binary": {"num_bits": 10},
    "tif-hint-merge": {"num_bits": 5},
    "tif-hint-slicing": {"num_bits": 5, "n_slices": 50},
    "irhint-perf": {"num_bits": None},
    "irhint-size": {"num_bits": None},
    "brute": {},
}


def tuned(key: str) -> Dict[str, object]:
    """Build parameters for a method (empty when untunable)."""
    return dict(TUNED_PARAMS.get(key, {}))
