"""Bit-level helpers for HINT's hierarchical domain decomposition.

HINT divides the discrete domain ``[0, 2^m - 1]`` into ``2^l`` partitions at
each level ``l`` of its ``m + 1`` levels.  The partition of a time point ``t``
at level ``l`` is its ``l``-bit prefix, ``prefix(l, t) = t >> (m - l)``; these
helpers centralise that arithmetic so every module agrees on it.
"""

from __future__ import annotations

from repro.core.errors import ConfigurationError


def validate_num_bits(m: int) -> None:
    """Raise unless ``m`` is a usable number of index bits."""
    if isinstance(m, bool) or not isinstance(m, int):
        raise ConfigurationError(f"num_bits must be an int, got {m!r}")
    if not 0 <= m <= 62:
        raise ConfigurationError(f"num_bits must be in [0, 62], got {m}")


def domain_size(m: int) -> int:
    """Number of cells of the discrete domain, ``2^m``."""
    return 1 << m


def max_cell(m: int) -> int:
    """Largest valid cell id, ``2^m - 1``."""
    return (1 << m) - 1


def prefix(level: int, value: int, m: int) -> int:
    """``level``-bit prefix of an ``m``-bit cell id: the partition index.

    ``prefix(m, v, m) == v`` (bottom level) and ``prefix(0, v, m) == 0``
    (the single root partition).
    """
    return value >> (m - level)


def partition_of(level: int, cell: int, m: int) -> int:
    """Partition at ``level`` containing ``cell`` (alias of :func:`prefix`)."""
    return prefix(level, cell, m)


def partitions_per_level(level: int) -> int:
    """Number of partitions at ``level``: ``2^level``."""
    return 1 << level


def is_left_child(j: int) -> bool:
    """``True`` when partition ``j`` is the left child of its parent (last bit 0)."""
    return (j & 1) == 0


def is_right_child(j: int) -> bool:
    """``True`` when partition ``j`` is the right child of its parent (last bit 1)."""
    return (j & 1) == 1


def min_bits_for(domain_cells: int) -> int:
    """Smallest ``m`` such that ``2^m >= domain_cells``."""
    if domain_cells <= 1:
        return 0
    return (domain_cells - 1).bit_length()
