"""Numerical semigroups, their gaps, and Hilbert data of monomial curves.

The curve parametrized by t -> (t^{a_0} : ... : t^{a_n}) has degree a_n (after
normalization) and arithmetic genus equal to the total gap count of the two
local semigroups, one at t = 0 and one at t = infinity.  Its Hilbert function
equals the m-span of the sequence, eventually agreeing with the line
degree * m + 1 - genus.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Optional

from .errors import EmptyGenerators, GcdNotOne, NegativeEntry, SemigroupTooLarge, over_limit
from .sequences import VanishingSequence, normalize
from .span import span_sequence


@dataclass(frozen=True)
class NumericalSemigroup:
    """Additive monoid generated by positive integers with gcd 1.

    ``gaps`` lists the positive integers that are not representable;
    ``frobenius`` is the largest gap, or -1 when there is none.
    """

    generators: tuple[int, ...]
    gaps: tuple[int, ...]
    frobenius: int


@dataclass(frozen=True)
class CurveInvariants:
    """Degree and genus data of the monomial curve attached to a sequence."""

    degree: int
    gaps_at_zero: int
    gaps_at_infinity: int

    @property
    def arithmetic_genus(self) -> int:
        return self.gaps_at_zero + self.gaps_at_infinity


# Fail-fast limits: the Apéry set needs one integer per residue of the
# smallest generator, and ``semigroup_of`` lists every gap.
MAX_SMALLEST_GENERATOR = 100_000
MAX_GAPS = 1_000_000


def _generators(generators: Iterable[int]) -> list[int]:
    gens = sorted(set(int(g) for g in generators))
    if not gens:
        raise EmptyGenerators("need at least one generator")
    if gens[0] < 1:
        raise NegativeEntry(f"generators must be >= 1, got {gens[0]}")
    g = gcd(*gens)
    if g != 1:
        raise GcdNotOne(f"gcd of {gens} is {g}; gap set would be infinite")
    if gens[0] > MAX_SMALLEST_GENERATOR:
        raise SemigroupTooLarge(
            f"smallest generator {gens[0]} exceeds the limit of {MAX_SMALLEST_GENERATOR}")
    return gens


def _apery_set(gens: list[int]) -> list[int]:
    """``w[r]``: the smallest element of the semigroup congruent to r modulo
    the smallest generator a.

    Shortest paths in the residue graph mod a, one round-robin pass per
    further generator b: along each cycle of the step r -> r + b (mod a),
    start from its smallest known entry and relax around the cycle once
    (Böcker & Lipták 2007).
    """
    a = gens[0]
    inf = float("inf")
    w = [inf] * a
    w[0] = 0
    for b in gens[1:]:
        d = gcd(a, b)
        for p in range(d):
            n = min(w[p::d])
            if n == inf:
                continue
            for _ in range(a // d - 1):
                n += b
                r = n % a
                if w[r] < n:
                    n = w[r]
                else:
                    w[r] = n
    return w


def _gap_count(w: list[int]) -> int:
    # Selmer's formula: residue r contributes the gaps r, r + a, ..., w[r] - a.
    a = len(w)
    return (sum(w) - a * (a - 1) // 2) // a


def semigroup_of(generators: Iterable[int]) -> NumericalSemigroup:
    """Compute the gap list of the semigroup generated by ``generators``.

    Every gap is r + k*a below the Apéry element ``w[r]`` of its residue r
    modulo the smallest generator a, and the largest is ``max(w) - a``.
    Raises ``SemigroupTooLarge``, before allocating, when the smallest
    generator or the gap count exceeds its fixed limit.
    """
    gens = _generators(generators)
    w = _apery_set(gens)
    a = gens[0]
    count = _gap_count(w)
    if count > MAX_GAPS:
        raise SemigroupTooLarge(over_limit(count, "gaps", MAX_GAPS))
    gaps = sorted(g for r in range(1, a) for g in range(r, w[r], a))
    return NumericalSemigroup(tuple(gens), tuple(gaps), max(w) - a)


def curve_invariants(seq: VanishingSequence) -> CurveInvariants:
    """Degree and the two local gap counts for the normalized sequence."""
    b, _, _ = normalize(seq)
    top = b[-1]
    at_zero = _apery_set(_generators(b.entries[1:]))
    at_infinity = _apery_set(_generators(tuple(top - a for a in b.entries[:-1])))
    return CurveInvariants(
        degree=top,
        gaps_at_zero=_gap_count(at_zero),
        gaps_at_infinity=_gap_count(at_infinity),
    )


def hilbert_polynomial(seq: VanishingSequence) -> tuple[int, int]:
    """Coefficients ``(leading, constant)`` of the eventual span line
    P(m) = degree * m + 1 - genus, computed from the normalized sequence."""
    inv = curve_invariants(seq)
    return inv.degree, 1 - inv.arithmetic_genus


def stabilization_threshold(seq: VanishingSequence, m_cap: Optional[int] = None) -> Optional[int]:
    """Smallest m0 <= m_cap with span(seq, m) = P(m) for every m in [m0; m_cap].

    Returns None when even m_cap itself misses the line (no guessing beyond
    the scanned range).  Default cap: four times the normalized degree.
    """
    lead, const = hilbert_polynomial(seq)
    if m_cap is None:
        m_cap = 4 * lead
    if m_cap < 2:
        raise ValueError(f"m_cap must be >= 2, got {m_cap}")
    spans = span_sequence(seq, m_cap)
    threshold = None
    for m in range(m_cap, 0, -1):
        if spans[m - 1] == lead * m + const:
            threshold = m
        else:
            break
    return threshold
