"""Closed-form counting bounds for hypersurfaces through curves.

All formulas are exact integer arithmetic; Python integers never overflow,
but a count of more decimal digits than Python writes as text is refused,
a binomial before it is computed.  The companion rank computations live in
``jets``; nothing here claims any geometric classification on its own.
"""

from __future__ import annotations

import sys
from math import comb, log, log10, log1p, pi
from typing import Sequence

from .errors import CountTooLarge, over_limit


def _log10_binomial(total: int, k: int) -> float:
    # Stirling's estimate of log10 C(total, k) for 1 <= k <= total - k,
    # within 0.1 of the truth; logs of the integers, so any size works.
    rest = total - k
    x = k / rest
    nats = (k * (log(total) - log(k)) + (k * log1p(x) / x if x else k)
            - (log(2 * pi) + log(k) + log(rest) - log(total)) / 2)
    return nats / log(10)


# The most decimal digits Python writes an integer with; 0: no limit.
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _unwritable(x: int) -> bool:
    # Whether x has more digits than Python writes (below 3 * limit bits it has fewer).
    limit = _max_str_digits()
    return bool(limit) and abs(x).bit_length() > 3 * limit and abs(x) >= 10 ** limit


def _written(x: int) -> str:
    # x in a message: about 10^k when Python cannot write it.
    return f"about 10^{int(log10(abs(x)))}" if _unwritable(x) else str(x)


def _printable(count: int, what: str, *args: int) -> int:
    # The count, or CountTooLarge when it is _unwritable.  The name
    # what.format(*args) is built only then, each number in it _written.
    if _unwritable(count):
        name = f"digits of {what.format(*map(_written, args))}"
        raise CountTooLarge(over_limit(int(log10(abs(count))) + 1, name, _max_str_digits(), estimated=True))
    return count


def _binomial_less(n: int, m: int, less: int) -> int:
    # C(m+n, n) - less through _printable; with m, n >= 2, less < C(m+n, n) / 2,
    # and a count Stirling puts a digit or more past the limit is refused before comb.
    limit = _max_str_digits()
    if limit and min(m, n) > 1 and (digits := _log10_binomial(m + n, min(m, n))) >= limit + 1:
        raise CountTooLarge(over_limit(int(digits) + 1, f"digits of C({_written(m + n)}, {_written(n)})",
                                       limit, estimated=True))
    return _printable(comb(m + n, n) - less, "C({}, {})", m + n, n)


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
    return _printable((n + 1) * d + n * (n + 1) * (g - 1), "the total inflection weight")


def check_weight_budget(n: int, d: int, g: int, weights: Sequence[int]) -> bool:
    """Whether the given point weights exhaust the total inflection budget."""
    if any(w < 1 for w in weights):
        raise ValueError("point weights must be >= 1")
    return _printable(sum(weights), "the weight sum") == pluecker_budget(n, d, g)
