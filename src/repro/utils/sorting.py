"""Sorted-sequence helpers shared across index implementations."""

from __future__ import annotations

from typing import List, Sequence, TypeVar

T = TypeVar("T")


def merge_sorted(a: Sequence[T], b: Sequence[T]) -> List[T]:
    """Merge two sorted sequences into one sorted list (duplicates kept).

    >>> merge_sorted([1, 3, 5], [2, 3])
    [1, 2, 3, 3, 5]
    """
    out: List[T] = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        if a[i] <= b[j]:  # type: ignore[operator]
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return out
