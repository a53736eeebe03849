"""Exact linear algebra over the rationals.

Ranks and kernels are decided by fraction-free integer elimination; floating
point never touches a rank decision.  A modular elimination (numpy, single
word-size prime) is available as a one-sided certificate: the rank mod p never
exceeds the rational rank, so ``rank_at_least`` may accept from the modular
result alone but always falls back to the exact routine before rejecting.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

import numpy as np

_PRIME = 1_000_003  # fits comfortably in int64 arithmetic: (p-1)^2 < 2^63


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
    g = 0
    for v in row.values():
        g = gcd(g, v)
    if g > 1:
        row = {c: v // g for c, v in row.items()}
    return row


class IncrementalRank:
    """Integer row echelon that absorbs rows one at a time.

    ``add`` returns True when the row enlarged the span; ``rank`` is always
    the exact rank of everything added so far.
    """

    def __init__(self):
        self._pivots: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def add(self, row: Iterable[tuple[int, int]] | dict[int, int]) -> bool:
        current = {c: v for c, v in (row.items() if isinstance(row, dict) else row) if v}
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


def rank(rows: Iterable[Sequence[int]]) -> int:
    """Exact rank of an integer matrix given as an iterable of rows."""
    ech = IncrementalRank()
    for row in rows:
        ech.add({c: int(v) for c, v in enumerate(row) if v})
    return ech.rank


def _echelon(rows: list[list[int]]) -> list[tuple[int, dict[int, int]]]:
    # Plain (non-reduced) echelon form over the integers; returns
    # (pivot_column, row) pairs in pivot order.
    ech = IncrementalRank()
    for row in rows:
        ech.add({c: int(v) for c, v in enumerate(row) if v})
    return sorted(ech._pivots.items())


def right_kernel_basis(rows: list[Sequence[int]], ncols: int) -> list[list[Fraction]]:
    """Basis of {c : M c = 0} for the integer matrix M with the given rows.

    One basis vector per free column; vector k has a 1 in its free column,
    zeros in the other free columns, and back-substituted pivot entries.
    """
    echelon = _echelon([list(r) for r in rows])
    pivot_cols = [p for p, _ in echelon]
    pivot_set = set(pivot_cols)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free_cols:
        v: dict[int, Fraction] = {f: Fraction(1)}
        for p, row in reversed(echelon):
            s = Fraction(0)
            for c, coef in row.items():
                if c != p and c in v:
                    s += coef * v[c]
            if s:
                v[p] = -s / row[p]
        dense = [Fraction(0)] * ncols
        for c, val in v.items():
            dense[c] = val
        basis.append(dense)
    return basis


def left_kernel_basis(rows: list[Sequence], ncols: int) -> list[list[Fraction]]:
    """Basis of {c : sum_i c_i row_i = 0}; rows may be rational.

    Denominators are cleared per column (each transposed row), which never
    changes the left kernel; scaling per input row would rescale its
    coordinates instead.
    """
    transposed = [clear_denominators([rows[i][j] for i in range(len(rows))])
                  for j in range(ncols)]
    return right_kernel_basis(transposed, len(rows))


def rank_mod_p(rows: list[Sequence[int]], p: int = _PRIME) -> int:
    """Rank of the matrix reduced mod p.  Always <= the rational rank."""
    if not rows:
        return 0
    a = np.array([[int(x) % p for x in r] for r in rows], dtype=np.int64)
    nrows, ncols = a.shape
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), -1, p)
        a[r] = (a[r] * inv) % p
        below = np.nonzero(a[r + 1:, c])[0]
        if below.size:
            idx = below + r + 1
            a[idx] = (a[idx] - a[idx, c][:, None] * a[r][None, :]) % p
        r += 1
    return r


def rank_at_least(rows: list[Sequence[int]], target: int) -> bool:
    """Exact decision of ``rank(rows) >= target``.

    The modular rank is a valid certificate for the >= direction; when it is
    inconclusive the exact elimination decides.
    """
    if target <= 0:
        return True
    if rank_mod_p(rows) >= target:
        return True
    return rank(rows) >= target
