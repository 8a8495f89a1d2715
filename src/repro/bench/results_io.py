"""Persistence for experiment results.

Experiment ``run()`` functions return nested dicts whose keys are not
always strings (Figure 12's panels key on the swept parameter values —
ints and floats).  JSON objects only take string keys, so dicts are
encoded as explicit ``{"__pairs__": [[key, value], ...]}`` nodes, which
round-trips every key type the experiments use (str / int / float / bool)
losslessly.

This lets a long harness run be archived and re-validated later::

    python -m repro bench all --scale medium ...      # hours
    python -m repro.bench.shapes --results results.json   # milliseconds
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Union

from repro.core.errors import ReproError

PathLike = Union[str, Path]

_PAIRS = "__pairs__"


def _encode(value: Any) -> Any:
    if isinstance(value, dict):
        return {_PAIRS: [[_encode_key(k), _encode(v)] for k, v in value.items()]}
    if isinstance(value, (list, tuple)):
        return [_encode(item) for item in value]
    if isinstance(value, float) and (value != value or value in (float("inf"), float("-inf"))):
        return {"__float__": repr(value)}
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    # Fall back to a readable string for exotic values (queries, enums, …).
    return {"__repr__": repr(value)}


def _encode_key(key: Any) -> Any:
    if isinstance(key, (str, int, float, bool)) or key is None:
        return key
    raise ReproError(f"unsupported result-dict key type: {type(key).__name__}")


def _decode(value: Any) -> Any:
    if isinstance(value, dict):
        if _PAIRS in value and len(value) == 1:
            return {k if not isinstance(k, list) else tuple(k): _decode(v)
                    for k, v in ((pair[0], pair[1]) for pair in value[_PAIRS])}
        if "__float__" in value and len(value) == 1:
            return float(value["__float__"])
        if "__repr__" in value and len(value) == 1:
            return value["__repr__"]
        return {k: _decode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode(item) for item in value]
    return value


def save_results(results: dict, path: PathLike) -> None:
    """Write an experiment-results dict to JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(_encode(results), handle, indent=1)


def load_results(path: PathLike) -> dict:
    """Load a results dict written by :func:`save_results`."""
    with open(path, "r", encoding="utf-8") as handle:
        decoded = _decode(json.load(handle))
    if not isinstance(decoded, dict):
        raise ReproError(f"{path}: not a results file")
    return decoded
