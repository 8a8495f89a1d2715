"""Discretisation of arbitrary time domains onto HINT's cell grid.

HINT operates on the discrete domain ``[0, 2^m − 1]`` (paper Section 2.3:
"Each interval is normalized, discretized in the [0, 2^m − 1] domain").  Real
timestamps are mapped onto cells by a *monotone non-decreasing* function; all
endpoint comparisons inside the index are then performed on the **original**
timestamps, so discretisation can never flip a comparison:

* monotonicity guarantees a time overlap implies a cell overlap (no false
  negatives reach the index),
* HINT's "no comparison needed" shortcuts rely only on *strict* cell
  inequalities, and ``cell(x) < cell(y) ⇒ x < y`` for any monotone mapping,
  so skipped comparisons are still sound,
* wherever cells tie, HINT performs real-timestamp comparisons anyway (first
  and last relevant partitions), eliminating false positives.

Out-of-domain timestamps are clamped — clamping is monotone, so correctness
is preserved.  A HINT table takes its domain from its own run at every
rebuild (:mod:`repro.intervals.hint.timefirst`), so only a query window
ever reaches past it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import ConfigurationError
from repro.core.interval import Timestamp
from repro.utils.bitops import max_cell, validate_num_bits


@dataclass(frozen=True, slots=True)
class DomainMapper:
    """Monotone map from ``[lo, hi]`` timestamps to cells ``[0, 2^m − 1]``."""

    lo: Timestamp
    hi: Timestamp
    num_bits: int

    def __post_init__(self) -> None:
        validate_num_bits(self.num_bits)
        if self.lo > self.hi:
            raise ConfigurationError(f"domain lo {self.lo!r} exceeds hi {self.hi!r}")

    # ------------------------------------------------------------ constructors
    @classmethod
    def for_domain(cls, lo: Timestamp, hi: Timestamp, num_bits: int) -> "DomainMapper":
        """Mapper for a fixed, known domain."""
        return cls(lo=lo, hi=hi, num_bits=num_bits)

    # ------------------------------------------------------------------- maps
    @property
    def n_cells(self) -> int:
        """Number of grid cells, ``2^m``."""
        return 1 << self.num_bits

    def cell(self, t: Timestamp) -> int:
        """Cell id of timestamp ``t`` (clamped into the domain).

        Integer domains narrower than the grid use the exact offset map;
        everything else scales linearly.  Both are monotone non-decreasing.
        """
        if t <= self.lo:
            return 0
        if t >= self.hi:
            return max_cell(self.num_bits)
        span = self.hi - self.lo
        n = self.n_cells
        if isinstance(self.lo, int) and isinstance(self.hi, int) and isinstance(t, int):
            if span + 1 <= n:
                return t - self.lo
            # Integer arithmetic avoids float monotonicity worries entirely.
            return (t - self.lo) * n // (span + 1)
        cell = int((t - self.lo) / span * n)
        return cell if cell < n else n - 1

    def cell_range(self, st: Timestamp, end: Timestamp) -> "tuple[int, int]":
        """Cells of both endpoints, ``cell(st) <= cell(end)`` guaranteed."""
        return self.cell(st), self.cell(end)

    def covers(self, t: Timestamp) -> bool:
        """``True`` when ``t`` lies inside the configured domain (no clamping)."""
        return self.lo <= t <= self.hi
