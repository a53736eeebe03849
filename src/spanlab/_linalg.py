"""Exact linear algebra over the rationals by one fraction-free elimination.

``IncrementalRank`` is the only elimination: it absorbs integer rows one at a
time into a row echelon form, merging rows by gcd-scaled integer combinations.
Ranks, prefix ranks (the rank after each ``add``), left kernels and pivot
columns all come from it, so floating point never touches a rank decision.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from types import MappingProxyType
from typing import Any, Mapping, Sequence


def clear_denominators(row: Sequence) -> list[int]:
    """Scale a rational row to integers (row scaling preserves rank/kernels)."""
    lcm = 1
    for x in row:
        if isinstance(x, Fraction):
            d = x.denominator
            lcm = lcm // gcd(lcm, d) * d
    return [x.numerator * (lcm // x.denominator) if isinstance(x, Fraction) else int(x) * lcm
            for x in row]


def _reduce_row(row: dict[int, int]) -> dict[int, int]:
    g = gcd(*row.values())
    if g > 1:
        row = {c: v // g for c, v in row.items()}
    return row


class IncrementalRank:
    """Integer row echelon that absorbs sparse rows {column: value} one at a time.

    ``add`` returns True when the row enlarged the span; ``rank`` is always
    the exact rank of everything added so far.
    """

    def __init__(self):
        self._pivots: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    @property
    def pivots(self) -> Mapping[int, dict[int, int]]:
        """Read-only view of the echelon rows, each keyed by its leading column."""
        return MappingProxyType(self._pivots)

    def add(self, row: dict[int, int]) -> bool:
        current = {c: v for c, v in row.items() if v}
        while current:
            lead = min(current)
            pivot = self._pivots.get(lead)
            if pivot is None:
                self._pivots[lead] = _reduce_row(current)
                return True
            a, b = pivot[lead], current[lead]
            g = gcd(a, b)
            fa, fb = b // g, a // g
            merged = {c: fb * v for c, v in current.items()}
            for c, v in pivot.items():
                merged[c] = merged.get(c, 0) - fa * v
            current = {c: v for c, v in merged.items() if v}
        return False


def left_kernel_basis(rows: Sequence[Mapping[int, Any]], ncols: int) -> list[list[int]]:
    """Integer basis of {c : sum_i c_i row_i = 0} for sparse rows
    {column: value} with columns below ``ncols``; values may be rational.

    Each row is extended by the unit vector e_i in column ``ncols + i`` and
    cleared of denominators, which scales its unit entry along with it, so
    the extension always records the combination of the original rows.  An
    echelon pivot whose leading column is >= ``ncols`` is zero on the rows'
    columns: its extension is a kernel vector.  There are ``len(rows) - rank``
    such pivots and their distinct leading columns make them independent.
    """
    ech = IncrementalRank()
    for i, row in enumerate(rows):
        *values, unit = clear_denominators([*row.values(), 1])
        entries = dict(zip(row, values))
        entries[ncols + i] = unit
        ech.add(entries)
    basis = []
    for lead, pivot in sorted(ech.pivots.items()):
        if lead >= ncols:
            vec = [0] * len(rows)
            for c, v in pivot.items():
                vec[c - ncols] = v
            basis.append(vec)
    return basis
