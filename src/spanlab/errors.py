"""Exception types shared across the library."""


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


class LengthMismatch(SpanlabError):
    """Exponent vector length must equal the sequence length."""


class PreconditionViolated(SpanlabError):
    """Operation called on inputs outside its stated domain."""


class TruncationMismatch(SpanlabError):
    """A section carries coefficients beyond its declared truncation."""


class DegenerateWithinTruncation(SpanlabError):
    """Sections are linearly dependent as far as the truncation can see;
    more coefficients are needed to separate them."""


class TruncationTooSmall(SpanlabError):
    """The requested computation needs more coefficients than the system
    carries, or its result is unstable under raising the truncation."""


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
