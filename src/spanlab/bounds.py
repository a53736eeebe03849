"""Closed-form counting bounds for hypersurfaces through curves.

All formulas are exact integer arithmetic; Python integers never overflow,
but a count of more decimal digits than Python writes as text is refused,
a binomial before it is computed.  The companion rank computations live in
``jets``; nothing here claims any geometric classification on its own.
"""

from __future__ import annotations

from math import comb, log, log1p, pi
from typing import Sequence

from .errors import CountTooLarge, PreconditionViolated, max_str_digits, over_limit, printable, written


def _log10_binomial(total: int, k: int) -> float:
    # Stirling's estimate of log10 C(total, k) for 1 <= k <= total - k,
    # within 0.1 of the truth; logs of the integers, so any size works.
    rest = total - k
    x = k / rest
    nats = (k * (log(total) - log(k)) + (k * log1p(x) / x if x else k)
            - (log(2 * pi) + log(k) + log(rest) - log(total)) / 2)
    return nats / log(10)


def _binomial_less(n: int, m: int, less: int) -> int:
    # C(m+n, n) - less through printable; with m, n >= 2, less < C(m+n, n) / 2,
    # and a count Stirling puts a digit or more past the limit is refused before comb.
    limit = max_str_digits()
    if limit and min(m, n) > 1 and (digits := _log10_binomial(m + n, min(m, n))) >= limit + 1:
        raise CountTooLarge(over_limit(int(digits) + 1, f"digits of C({written(m + n)}, {written(n)})",
                                       limit, estimated=True))
    return printable(comb(m + n, n) - less, "C({}, {})", m + n, n)


def max_hypersurfaces(n: int, m: int) -> int:
    """Largest possible number of independent degree-m hypersurfaces through a
    non-degenerate curve in projective n-space: C(m+n, n) - m*n - 1."""
    if n < 1 or m < 2:
        raise ValueError(f"need n >= 1 and m >= 2, got n={n}, m={m}")
    return _binomial_less(n, m, m * n + 1)


def next_hypersurface_bound(n: int, m: int) -> int:
    """Second-largest admissible count: C(m+n, n) - m*(n+1).

    Any curve not attaining ``max_hypersurfaces`` lies on at most this many
    independent degree-m hypersurfaces.
    """
    if n < 2 or m < 2:
        raise ValueError(f"need n >= 2 and m >= 2, got n={n}, m={m}")
    return _binomial_less(n, m, m * (n + 1))


def quadric_bound(c: int) -> int:
    """Maximal number of independent quadrics through a variety of codimension c."""
    if c < 1:
        raise ValueError(f"need c >= 1, got {c}")
    return c * (c + 1) // 2


def pluecker_budget(n: int, d: int, g: int) -> int:
    """Total inflection weight of a degree-d genus-g linear system of rank n:
    (n+1)*d + n*(n+1)*(g-1)."""
    if n < 1 or d < 1 or g < 0:
        raise ValueError(f"need n >= 1, d >= 1, g >= 0, got n={n}, d={d}, g={g}")
    return printable((n + 1) * d + n * (n + 1) * (g - 1), "the total inflection weight")


def check_weight_budget(n: int, d: int, g: int, weights: Sequence[int]) -> bool:
    """Whether the given point weights exhaust the total inflection budget."""
    if any(w < 1 for w in weights):
        raise PreconditionViolated("point weights must be >= 1")
    return printable(sum(weights), "the weight sum") == pluecker_budget(n, d, g)
