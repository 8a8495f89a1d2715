"""The two sorted-list kernels the composite indexes call.

* **merge** — the classic two-pointer walk over two id-sorted lists
  (Algorithm 1 line 8, Algorithm 4, Algorithm 6);
* **binary search** — probing a sorted candidate set per division entry
  when divisions are *not* id-sorted (Algorithm 3's ``o.id ∈ C``).

Both take plain sequences of ints sorted ascending and never mutate their
inputs.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Sequence


def intersect_merge(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Two-pointer intersection of two id-sorted lists."""
    out: List[int] = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        ai, bj = a[i], b[j]
        if ai == bj:
            out.append(ai)
            i += 1
            j += 1
        elif ai < bj:
            i += 1
        else:
            j += 1
    return out


def contains_sorted(candidates: Sequence[int], object_id: int) -> bool:
    """Binary-search membership in a sorted id list (Algorithm 3's ``o.id ∈ C``)."""
    pos = bisect_left(candidates, object_id)
    return pos < len(candidates) and candidates[pos] == object_id
