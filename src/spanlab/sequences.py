"""Strictly increasing sequences of non-negative integers and their symmetries.

A ``VanishingSequence`` records the orders of vanishing of a basis of an
(n+1)-dimensional space of local functions at a point.  Entries are plain
Python integers, so arbitrary precision comes for free and repeated
scaling/translation can never overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Iterator

from .errors import NegativeEntry, NonPositiveFactor, NotStrictlyIncreasing, TooShort


@dataclass(frozen=True)
class VanishingSequence:
    """Immutable tuple (a_0, ..., a_n) with 0 <= a_0 < a_1 < ... < a_n, n >= 1."""

    entries: tuple[int, ...]

    def __post_init__(self):
        entries = tuple(int(a) for a in self.entries)
        object.__setattr__(self, "entries", entries)
        if len(entries) < 2:
            raise TooShort(f"need at least 2 entries, got {len(entries)}")
        if entries[0] < 0:
            raise NegativeEntry(f"entries must be non-negative, got {entries[0]}")
        for prev, cur in zip(entries, entries[1:]):
            if cur <= prev:
                raise NotStrictlyIncreasing(f"{prev} >= {cur} in {entries}")

    @property
    def n(self) -> int:
        """Top index: the sequence has n+1 entries."""
        return len(self.entries) - 1

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def differences(self) -> tuple[int, ...]:
        """Consecutive differences (a_1 - a_0, ..., a_n - a_{n-1})."""
        return tuple(b - a for a, b in zip(self.entries, self.entries[1:]))

    def to_text(self) -> str:
        return ",".join(str(a) for a in self.entries)


def validate(raw: Iterable[int]) -> VanishingSequence:
    """Build a sequence from raw integers, checking all invariants."""
    return VanishingSequence(tuple(raw))


def from_text(text: str) -> VanishingSequence:
    """Parse the CLI text form ``"a0,a1,...,an"``.

    Raises ``ValueError`` when a token is not an integer.
    """
    return validate(int(p) for p in text.split(","))


def translate(seq: VanishingSequence, c: int) -> VanishingSequence:
    """Shift every entry by the constant ``c`` (entries must stay >= 0)."""
    if seq[0] + c < 0:
        raise NegativeEntry(f"translating {seq.entries} by {c} gives a negative entry")
    return VanishingSequence(tuple(a + c for a in seq))


def scale(seq: VanishingSequence, d: int) -> VanishingSequence:
    """Multiply every entry by the positive integer ``d``."""
    if d < 1:
        raise NonPositiveFactor(f"scale factor must be >= 1, got {d}")
    return VanishingSequence(tuple(a * d for a in seq))


def reverse(seq: VanishingSequence) -> VanishingSequence:
    """Mirror the sequence: b_i = a_n - a_{n-i}.  Always starts at 0."""
    top = seq[-1]
    return VanishingSequence(tuple(top - a for a in reversed(seq.entries)))


def normalize(seq: VanishingSequence) -> tuple[VanishingSequence, int, int]:
    """Return ``(B, shift, factor)`` with B starting at 0 and gcd of its
    positive entries equal to 1, so that ``seq == translate(scale(B, factor), shift)``.
    """
    shift = seq[0]
    diffs = [a - shift for a in seq]
    factor = gcd(*diffs[1:])
    normalized = VanishingSequence(tuple(d // factor for d in diffs))
    return normalized, shift, factor


def inflection_weight(seq: VanishingSequence) -> int:
    """Total excess of the sequence over (0, 1, ..., n): sum of (a_i - i).

    Zero exactly when the sequence is (0, 1, ..., n).
    """
    return sum(a - i for i, a in enumerate(seq))
