"""Exact linear algebra on sparse integer rows by fraction-free elimination.

``IncrementalRank`` absorbs integer rows one at a time into a row echelon
form, merging rows by gcd-scaled integer combinations.  ``add`` returns the
leading column of the pivot a row adds, so one pass gives the rank of the
rows cut below any column (the pivots leading below it) and, for rows
extended by unit vectors, their left kernel (the pivots leading in the
extension); floating point never touches a rank decision.

It serves only the two unit-extended passes of propagation, whose rows
reach out to unit columns and so stay sparse; the adapted basis and the
filtration profile eliminate dense rows in ``jets._absorb``.
"""

from __future__ import annotations

from math import gcd
from types import MappingProxyType
from typing import Mapping, Optional


def _reduce_row(row: dict[int, int]) -> dict[int, int]:
    g = gcd(*row.values())
    if g > 1:
        row = {c: v // g for c, v in row.items()}
    return row


class IncrementalRank:
    """Integer row echelon that absorbs sparse rows {column: value} one at a time.

    ``add`` returns the leading column of the pivot the row added, or None
    when the row was already in the span; ``rank`` is always the exact rank
    of everything added so far.
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

    def add(self, row: dict[int, int]) -> Optional[int]:
        current = {c: v for c, v in row.items() if v}
        while current:
            lead = min(current)
            pivot = self._pivots.get(lead)
            if pivot is None:
                self._pivots[lead] = _reduce_row(current)
                return lead
            a, b = pivot[lead], current[lead]
            g = gcd(a, b)
            fa, fb = b // g, a // g
            merged = {c: fb * v for c, v in current.items()}
            for c, v in pivot.items():
                merged[c] = merged.get(c, 0) - fa * v
            current = {c: v for c, v in merged.items() if v}
        return None

