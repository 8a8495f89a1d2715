"""HINT's partition assignment, one interval at a time.

:func:`assign` is the canonical decomposition of an interval into at most
two partitions per level (paper Section 2.3), flagging which assignment
holds the interval as an *original* (the partition where the interval
starts) vs a *replica*.  The cost model samples it; the time-first table
(:mod:`repro.intervals.hint.timefirst`) runs the same walk over whole
columns at once, and its tests keep this loop as the scalar reference.
"""

from __future__ import annotations

from typing import List, Tuple

#: One interval-to-partition assignment: (level, partition index, is_original).
Assignment = Tuple[int, int, bool]


def assign(m: int, st_cell: int, end_cell: int) -> List[Assignment]:
    """Decompose ``[st_cell, end_cell]`` into its canonical partition set.

    Walks bottom-up from level ``m``: a right-child prefix on the start side
    or a left-child prefix on the end side pins a partition at the current
    level; otherwise the interval ascends.  At most two partitions per level
    are produced.  The assignment where the interval *starts* (the partition
    whose cell range contains ``st_cell``) is the original; every other is a
    replica.
    """
    assignments: List[Assignment] = []
    a, b = st_cell, end_cell
    for level in range(m, -1, -1):
        if a > b:
            break
        if a & 1:  # right child: the a-side pins P_{level, a}
            first_cell = a << (m - level)
            assignments.append((level, a, first_cell <= st_cell))
            a += 1
        if a <= b and (b & 1) == 0:  # left child: the b-side pins P_{level, b}
            first_cell = b << (m - level)
            assignments.append((level, b, first_cell <= st_cell))
            b -= 1
        a >>= 1
        b >>= 1
    return assignments
