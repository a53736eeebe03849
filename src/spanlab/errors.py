"""Exception types shared across the library, and the text of budget errors."""

import sys
from math import log10

# The most decimal digits Python writes an integer with; 0: no limit.
max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def unwritable(x: int) -> bool:
    """Whether x has more digits than Python writes as text."""
    # Below 3 * limit bits it has fewer.
    limit = max_str_digits()
    return bool(limit) and abs(x).bit_length() > 3 * limit and abs(x) >= 10 ** limit


def written(x: int) -> str:
    """x in a message: ``about 10^k`` when Python cannot write it."""
    return f"about 10^{int(log10(abs(x)))}" if unwritable(x) else str(x)


def printable(count: int, what: str, *args: int) -> int:
    """The count, or ``CountTooLarge`` when it is unwritable.  The name
    what.format(*args) is built only then, each number in it written."""
    if unwritable(count):
        name = f"digits of {what.format(*map(written, args))}"
        raise CountTooLarge(over_limit(int(log10(abs(count))) + 1, name, max_str_digits(), estimated=True))
    return count


def over_limit(count: int, what: str, limit: int, estimated: bool = False) -> str:
    """The message of every budget error: ``<count> <what> exceed the limit
    of <limit>``.  A count of more than 12 digits reads ``about 10^k``, and
    an estimated one ``about <count>``."""
    if count >= 10 ** 12:
        shown = f"about 10^{int(log10(count))}"
    else:
        shown = f"about {count}" if estimated else f"{count}"
    return f"{shown} {what} exceed the limit of {limit}"


class SpanlabError(Exception):
    """Base class for every domain error raised by spanlab."""


class NotStrictlyIncreasing(SpanlabError):
    """Sequence entries must satisfy a_0 < a_1 < ... < a_n."""


class NegativeEntry(SpanlabError):
    """Sequence entries (and positive-integer inputs) must be >= 0."""


class TooShort(SpanlabError):
    """A vanishing sequence needs at least two entries."""


class NonPositiveFactor(SpanlabError):
    """Scaling factor must be a positive integer."""


class EmptyGenerators(SpanlabError):
    """A numerical semigroup needs at least one positive generator."""


class GcdNotOne(SpanlabError):
    """Generators with gcd > 1 leave infinitely many gaps."""


class SemigroupTooLarge(SpanlabError):
    """The semigroup's smallest generator or its gap count exceeds the fixed
    limit that keeps memory bounded."""


class SumsetTooLarge(SpanlabError):
    """The m-fold sums reach past the fixed limit on the sumset bitmask that
    keeps time and memory bounded."""


class EnumerationTooLarge(SpanlabError):
    """Listing the degree-m monomials would write more entries than the
    fixed limit on the enumeration that keeps time and memory bounded."""


class CountTooLarge(SpanlabError):
    """A closed-form count would have more decimal digits than Python
    converts an integer to text (``sys.get_int_max_str_digits()``)."""


class LengthMismatch(SpanlabError):
    """Exponent vector length must equal the sequence length."""


class PreconditionViolated(SpanlabError, ValueError):
    """Operation called on inputs outside its stated domain."""


class DependentSections(SpanlabError):
    """The sections are linearly dependent, so they have no adapted orders
    and no product rank is defined."""


class NotLinearOnRange(SpanlabError):
    """Dimension data on the requested degree range does not fit a single
    affine-linear function."""


class HypothesisFailed(SpanlabError):
    """A conditional check was invoked on a system that does not satisfy
    the condition's hypotheses."""


class PropagationFailed(SpanlabError):
    """A conclusion that must hold whenever the hypotheses hold came out
    false; a genuine occurrence would falsify the underlying theory."""


class UnknownSuite(SpanlabError):
    """No verification suite registered under the requested id."""
