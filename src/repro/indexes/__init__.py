"""Composite temporal-IR indexes: the paper's baselines and contributions.

``explain()`` lives in :mod:`repro.indexes.explain`, imported by whoever
explains a query, not with the indexes.
"""

from repro.indexes.base import TemporalIRIndex
from repro.indexes.brute import BruteForce
from repro.indexes.persistence import load_index, save_index
from repro.indexes.irhint import IRHintPerformance, IRHintSize
from repro.indexes.registry import (
    COMPARISON_METHODS,
    INDEX_CLASSES,
    PAPER_METHODS,
    available_indexes,
    build_index,
    index_class,
    register_index,
)
from repro.indexes.tif import TIF
from repro.indexes.tif_hint import TIFHintBinary, TIFHintMerge
from repro.indexes.tif_hint_slicing import TIFHintSlicing
from repro.indexes.tif_sharding import TIFSharding
from repro.indexes.tif_slicing import TIFSlicing

__all__ = [
    "BruteForce",
    "COMPARISON_METHODS",
    "INDEX_CLASSES",
    "IRHintPerformance",
    "IRHintSize",
    "PAPER_METHODS",
    "TemporalIRIndex",
    "TIF",
    "TIFHintBinary",
    "TIFHintMerge",
    "TIFHintSlicing",
    "TIFSharding",
    "TIFSlicing",
    "available_indexes",
    "build_index",
    "load_index",
    "save_index",
    "index_class",
    "register_index",
]
