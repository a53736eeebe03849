"""Iterated sumsets, the m-span of a sequence, and the extremal-span classifier.

The m-span is the number of distinct sums of m entries (with repetition).
Minimal spans characterize arithmetic progressions; the next admissible value
characterizes the two near-progression shapes, and nothing lies in between.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional

from .errors import SumsetTooLarge
from .sequences import VanishingSequence

# Fail-fast limit on m * a_n, the top bit of the m-fold sumset bitmask.  The
# time to build all of v_1, ..., v_m grows with m times this, so the limit
# keeps every call well under a second for short sequences.
MAX_SUMSET_BITS = 1_000_000


class Verdict(str, Enum):
    ARITHMETIC_PROGRESSION = "ARITHMETIC_PROGRESSION"
    NEAR_AP_HIGH = "NEAR_AP_HIGH"  # last difference doubled: (d, ..., d, 2d)
    NEAR_AP_LOW = "NEAR_AP_LOW"    # first difference doubled: (2d, d, ..., d)
    GENERIC = "GENERIC"


@dataclass(frozen=True)
class SumsetTable:
    """The set v_m of m-fold sums of entries, sorted strictly increasing."""

    sequence: VanishingSequence
    m: int
    values: tuple[int, ...]

    @property
    def span(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class SpanClassification:
    """Exact span together with the first-difference shape verdict.

    ``step`` is the common small difference d when the verdict is not
    GENERIC (the doubled difference equals 2d for the near-AP shapes).
    """

    span: int
    verdict: Verdict
    step: Optional[int] = None


def _sumset_masks(seq: VanishingSequence, m: int) -> Iterator[int]:
    # Characteristic bitmasks of v_1, ..., v_m; iterated sumset
    # v_{j+1} = v_j + entries.  Bit k set <=> k is a sum of exactly j entries.
    # OR-ing shifted copies is the sorted-merge dedup in disguise and is exact
    # on Python ints.  The limit is checked before the first shift.
    entries = seq.entries
    if m * entries[-1] > MAX_SUMSET_BITS:
        raise SumsetTooLarge(
            f"{m}-fold sums up to {m * entries[-1]} exceed the limit of {MAX_SUMSET_BITS}")
    mask = 0
    for a in entries:
        mask |= 1 << a
    yield mask
    for _ in range(m - 1):
        step = 0
        for a in entries:
            step |= mask << a
        mask = step
        yield mask


def _sumset_bits(seq: VanishingSequence, m: int) -> int:
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    for mask in _sumset_masks(seq, m):
        pass
    return mask


def power_sumset(seq: VanishingSequence, m: int) -> SumsetTable:
    """All sums of exactly ``m`` entries of the sequence, with repetition."""
    mask = _sumset_bits(seq, m)
    values = []
    k = 0
    while mask:
        if mask & 1:
            values.append(k)
        mask >>= 1
        k += 1
    return SumsetTable(seq, m, tuple(values))


def span(seq: VanishingSequence, m: int) -> int:
    """Cardinality of the m-fold sumset of the sequence."""
    return _sumset_bits(seq, m).bit_count()


def span_sequence(seq: VanishingSequence, m_max: int) -> list[int]:
    """Spans for m = 1, ..., m_max computed in one sumset iteration."""
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    return [mask.bit_count() for mask in _sumset_masks(seq, m_max)]


def chain_values(seq: VanishingSequence, m: int) -> list[int]:
    """The guaranteed mn+1 members of the m-fold sumset, in increasing order.

    Row i (1 <= i <= m) holds (m-i)*a_0 + a_j + (i-1)*a_n for j = 1..n;
    the chain starts at m*a_0.  Every member is a sum of m entries.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    a = seq.entries
    lo, hi = a[0], a[-1]
    out = [m * lo]
    for i in range(1, m + 1):
        base = (m - i) * lo + (i - 1) * hi
        out.extend(base + a[j] for j in range(1, len(a)))
    return out


def _difference_verdict(seq: VanishingSequence) -> tuple[Verdict, Optional[int]]:
    diffs = seq.differences()
    if all(d == diffs[0] for d in diffs):
        return Verdict.ARITHMETIC_PROGRESSION, diffs[0]
    if len(diffs) >= 2:
        body, last = diffs[:-1], diffs[-1]
        if all(d == body[0] for d in body) and last == 2 * body[0]:
            return Verdict.NEAR_AP_HIGH, body[0]
        first, tail = diffs[0], diffs[1:]
        if all(d == tail[0] for d in tail) and first == 2 * tail[0]:
            return Verdict.NEAR_AP_LOW, tail[0]
    return Verdict.GENERIC, None


def classify(seq: VanishingSequence, m: int) -> SpanClassification:
    """Classify the sequence by its difference pattern and report the exact span.

    The verdict is read off the first differences alone, never from the span,
    so span/verdict agreement is a genuine cross-check between two independent
    computations.  The extremal characterizations are theorems for m >= 2
    (and the near-AP one for n >= 3); m = 1 is allowed for convenience and
    returns span n+1 with the structural verdict.
    """
    verdict, step = _difference_verdict(seq)
    return SpanClassification(span=span(seq, m), verdict=verdict, step=step)
