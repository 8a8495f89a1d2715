"""HINT's cost model, one run at a time (paper [19] §4; §5.2/§5.4 tuning).

A read of a run through its :class:`~repro.intervals.hint.timefirst.TimeFirstTable`
at ``m`` bits is priced against one flat mask over the run, in units of the
flat mask's per-entry cost:

* :data:`QUERY_CHARGE` — what a table read costs before it touches a row,
  beyond the flat mask's own call (cells, two directory searches, the
  concatenate, the mask and the sort of the hits);
* :data:`SLICE_CHARGE` — one non-empty row range cut and concatenated;
* :data:`ROW_CHARGE` — one gathered row copied, masked and, when it hits,
  sorted.

``m = 0`` is one partition holding the whole run, which is the flat scan,
so the rule (:func:`choose_bits`) picks the cheapest ``m`` in ``[1, cap]``
or 0 when no table is cheaper than the flat pass.  The same charges,
applied to the row ranges a window actually reads, decide each query
(:func:`prefers_flat`).

The expectation is taken over stabbing windows placed uniformly on the
run's span, from two facts about HINT's assignment (the dyadic cover of an
interval's cells, at most two partitions per level):

* a window reads each interval whose cells meet its own exactly once, so
  over ``c`` cells a stab reads ``n / c`` rows beyond the ``Σ duration /
  span`` it must report (cell quantisation is the only waste);
* an interval covering ``L`` cells holds a row in blocks of ``B`` cells
  with a chance of about ``min(1, (L + 1 − B) / B)`` (the cover's bits,
  half on each side, none on a side that is the run's own edge), so a
  stab finds a row at a level above the finest with the Poisson chance of
  that level's rows per partition, and at the finest level it finds the
  originals of its cell and the replicas crossing into it.

Both follow from each interval's duration alone, so the rule sorts the
durations once and never runs the assignment itself; the tests hold the
estimate to what the assignment's tables read.  The charges were measured
on the benchmark's own collection and query windows (EXPERIMENTS.md, "One
cost rule per run").
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: Fixed cost of a table read beyond the flat mask's, in flat entry reads.
QUERY_CHARGE = 6_900.0

#: Cost of one non-empty row range the read cuts, in flat entry reads.
SLICE_CHARGE = 480.0

#: Cost of one gathered row, in flat entry reads, where the rows go on to
#: an intersection (Algorithms 3 and 4): a plain scan spends about half
#: that on a row, Algorithm 6's filter with its id columns nearly twice.
ROW_CHARGE = 4.7

#: Finest grid the rule considers: 2^30 cells outnumber the slots of any
#: run that fits in memory, and the table packs ``key · n + slot`` into i64.
MAX_BITS = 30


def table_cost(slices: float, rows: float) -> float:
    """A table read cutting ``slices`` row ranges that hold ``rows`` rows."""
    return QUERY_CHARGE + SLICE_CHARGE * slices + ROW_CHARGE * rows


def short_cut(n_slots: int) -> bool:
    """Does a flat pass over ``n_slots`` cost no more than the cheapest
    table query?  Then the run is flat whatever its intervals."""
    return n_slots <= table_cost(0, 0)


def prefers_flat(slices: int, rows: int, n_slots: int) -> bool:
    """One query's choice: is the flat pass over ``n_slots`` no dearer
    than gathering ``rows`` rows from ``slices`` ranges?"""
    return table_cost(slices, rows) >= n_slots


def estimate(sts: np.ndarray, ends: np.ndarray, cap: int) -> Tuple[np.ndarray, np.ndarray]:
    """Expected ``(slices, rows)`` of a stab through a table over the run
    with columns ``sts``/``ends``, at each ``m`` in ``[1, cap]``."""
    n = len(sts)
    if not n or cap < 1:
        return np.zeros(max(cap, 0)), np.zeros(max(cap, 0))
    lo, hi = sts.min(), ends.max()
    span = float(hi) - float(lo) + 1.0
    share = (ends.astype(np.float64) - sts) / span  # each duration, as a share of the span
    m = np.arange(1, cap + 1)[:, None]
    level = np.arange(cap + 1)[None, :]  # levels 0 … m - 1 of grid m (later ones unused)
    # An interval L cells long holds about min(1, (L + 1 - B) / B) rows in
    # blocks of B = 2^(m - l) cells, half on each side; L is 1 + share · 2^m.
    scale = np.exp2(level)
    bottom = (1 - np.exp2(1 - m + level)) / scale  # the share at which it reaches 0 …
    top = bottom + 1 / scale  # … and 1
    pieces = np.zeros((cap, cap + 1))
    # A side an interval shares with the run's edge is aligned at every
    # level: it closes the cover, it grows no row there.
    for side in (sts > lo, ends < hi):
        ranked = np.sort(share[side])
        below = np.concatenate(([0.0], np.cumsum(ranked)))
        a, b = ranked.searchsorted(bottom), ranked.searchsorted(top)
        ramp = (below[b] - below[a]) * scale - (b - a) * (1 - np.exp2(1 - m + level))
        pieces += (len(ranked) - b + ramp) / 2
    cells = np.minimum(scale, span)
    finest, hits = n / cells[0, 1:], float(share.sum())
    # Levels above m: one slice each, at the Poisson chance of a row; the
    # finest level: its originals, and the replicas of what crosses into it.
    slices = -np.expm1(-np.where(level < m, pieces, 0) / cells).sum(axis=1)
    slices -= np.expm1(-finest) + np.expm1(-hits)
    return slices, finest + hits


def choose_bits(sts: np.ndarray, ends: np.ndarray, cap: int) -> int:
    """The ``m`` in ``[1, cap]`` whose table reads the run with columns
    ``sts``/``ends`` cheapest, or 0 when the flat pass is cheaper."""
    n = len(sts)
    cap = min(cap, MAX_BITS)
    if cap < 1 or short_cut(n):
        return 0
    costs = table_cost(*estimate(sts, ends, cap))
    best = int(np.argmin(costs))
    return best + 1 if costs[best] < n else 0
