"""Exact truncated power series, jet systems, and rank-based dimension data.

A jet system is a tuple of n+1 local sections given by rational coefficient
lists.  Sections are polynomials by default (coefficients beyond the stored
ones are exactly zero), so every product and rank below is computed without
any truncation loss; a system may instead declare an explicit truncation, in
which case requests beyond the stored coefficients fail loudly and every rank
is re-checked at a higher truncation before being trusted.

All dimensions are exact ranks of rational matrices; no floating point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, partial
from fractions import Fraction
from math import comb
from operator import mul
from typing import Optional, Sequence

from . import _linalg
from .errors import (
    DegenerateWithinTruncation,
    HypothesisFailed,
    NotLinearOnRange,
    PropagationFailed,
    TooShort,
    TruncationMismatch,
    TruncationTooSmall,
)
from .monomial_ideal import _grow, generation_scan
from .sequences import VanishingSequence
from .span import span

_GUARD = 4  # default slack above m*a_n for truncated-mode working precision


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


@dataclass(frozen=True)
class TruncatedSeries:
    """Exact rational coefficients c_0..c_{N-1} modulo t^N."""

    coefficients: tuple[Fraction, ...]

    @property
    def truncation(self) -> int:
        return len(self.coefficients)

    def order(self) -> Optional[int]:
        """Index of the first nonzero coefficient; None when zero mod t^N."""
        for i, c in enumerate(self.coefficients):
            if c:
                return i
        return None

    def is_zero(self) -> bool:
        return self.order() is None


def _trim(coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    last = -1
    for i, c in enumerate(coeffs):
        if c:
            last = i
    return tuple(coeffs[: last + 1])


def _mul(a: Sequence, b: Sequence, cap: Optional[int] = None) -> list:
    """Product of two int or Fraction coefficient lists; with ``cap``, its
    first ``cap`` coefficients (zero-padded to exactly ``cap`` entries)."""
    n = (len(a) + len(b) - 1 if a and b else 0) if cap is None else cap
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[:n - i]):
                if y:
                    out[i + j] += x * y
    return out


@dataclass(frozen=True)
class JetSystem:
    """n+1 local sections as rational coefficient lists.

    ``truncation = None`` means the sections are exact polynomials; an integer
    N means coefficients from t^N on are unknown and any computation needing
    them raises ``TruncationTooSmall``.

    Being immutable, the system computes on first use and caches what every
    rank below derives from it: ``adapted_orders`` and ``integer_sections``.
    """

    sections: tuple[tuple[Fraction, ...], ...]
    truncation: Optional[int] = None

    def __post_init__(self):
        if len(self.sections) < 2:
            raise TooShort("a jet system needs at least two sections")
        cleaned = tuple(_trim([_as_fraction(c) for c in sec]) for sec in self.sections)
        object.__setattr__(self, "sections", cleaned)
        if self.truncation is not None:
            if any(len(sec) > self.truncation for sec in cleaned):
                raise TruncationMismatch("a section carries coefficients beyond the declared truncation")

    @property
    def n(self) -> int:
        return len(self.sections) - 1

    @property
    def poly_degree(self) -> int:
        return max(len(sec) - 1 for sec in self.sections)

    @property
    def _known_coeffs(self) -> int:
        # Coefficients known per section: all of a polynomial, or those below t^N.
        return self.truncation if self.truncation is not None else self.poly_degree + 1

    @cached_property
    def _triangular(self) -> tuple[tuple[int, tuple[Fraction, ...]], ...]:
        """(order, row) pairs of the sections triangularized by leading order,
        orders strictly increasing.  Raises ``DegenerateWithinTruncation``
        when a section reduces to zero."""
        n_coeffs = self._known_coeffs
        pending = [list(sec) + [Fraction(0)] * (n_coeffs - len(sec)) for sec in self.sections]
        finished = []
        while pending:
            orders = [next((i for i, c in enumerate(row) if c), None) for row in pending]
            if None in orders:
                raise DegenerateWithinTruncation(
                    f"sections dependent up to order >= {n_coeffs}; raise the truncation")
            best = min(range(len(pending)),
                       key=lambda i: (orders[i], sum(1 for c in pending[i] if c)))
            pivot_order = orders[best]
            pivot = pending.pop(best)
            finished.append((pivot_order, tuple(pivot)))
            lead = pivot[pivot_order]
            for row in pending:
                if row[pivot_order]:
                    f = row[pivot_order] / lead
                    for k in range(pivot_order, n_coeffs):
                        row[k] -= f * pivot[k]
        return tuple(finished)

    @cached_property
    def adapted_orders(self) -> VanishingSequence:
        """The strictly increasing vanishing orders a_0 < ... < a_n of the span."""
        return VanishingSequence(tuple(order for order, _ in self._triangular))

    @cached_property
    def integer_sections(self) -> tuple[tuple[int, ...], ...]:
        """Each section scaled to integers: that rescales each product row,
        which changes no rank, kernel or weight-filtration dimension."""
        return tuple(tuple(_linalg.clear_denominators(sec)) for sec in self.sections)


def monomial_system(seq: VanishingSequence) -> JetSystem:
    """The model system (t^{a_0}, ..., t^{a_n})."""
    return JetSystem(tuple(
        tuple([Fraction(0)] * a + [Fraction(1)]) for a in seq))


def perturbed_system(seq: VanishingSequence, tail: int = 3, seed: int = 0) -> JetSystem:
    """Monomial model plus seeded random rational tails of the given length.

    Section j is t^{a_j} + sum of random coefficients on exponents
    a_j + 1 .. a_j + tail.  Reproducible for a fixed seed.
    """
    rng = random.Random(seed)
    sections = []
    for a in seq:
        coeffs = [Fraction(0)] * (a + tail + 1)
        coeffs[a] = Fraction(1)
        for e in range(a + 1, a + tail + 1):
            coeffs[e] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        sections.append(tuple(coeffs))
    return JetSystem(tuple(sections))


def reparametrized_system(seq: VanishingSequence, tail: int = 2, seed: int = 0) -> JetSystem:
    """A maximality-preserving deformation of the monomial model.

    Substitutes t -> u(t) = t + (random tail) into each t^{a_j} and then adds
    random multiples of higher-order sections.  Both steps leave the span of
    the sections' products unchanged degree by degree, so the system attains
    the same dimensions as the monomial model while its matrices are dense;
    useful for exercising rank computations on systems known to be maximal.
    """
    rng = random.Random(seed)
    u = [Fraction(0), Fraction(1)] + [
        Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(tail)]
    powers: dict[int, list[Fraction]] = {0: [Fraction(1)]}
    top = seq[-1]
    acc = [Fraction(1)]
    for k in range(1, top + 1):
        acc = _mul(acc, u)
        powers[k] = acc
    sections = [list(powers[a]) for a in seq]
    for j in range(len(sections)):
        for i in range(j + 1, len(sections)):
            gamma = Fraction(rng.randint(-2, 2))
            if gamma:
                longer = max(len(sections[j]), len(sections[i]))
                merged = sections[j] + [Fraction(0)] * (longer - len(sections[j]))
                for k, c in enumerate(sections[i]):
                    merged[k] += gamma * c
                sections[j] = merged
    return JetSystem(tuple(tuple(sec) for sec in sections))


def adapted_basis(system: JetSystem, guard: int = 0) -> tuple[VanishingSequence, list[TruncatedSeries]]:
    """Triangularize the sections by leading order.

    Returns the cached ``system.adapted_orders`` and a basis whose i-th member
    is t^{a_i} + higher order terms, built on each call.  Raises
    ``DegenerateWithinTruncation`` when two sections collide to order >= N - guard:
    either the sections are dependent or more coefficients are needed.
    """
    orders = system.adapted_orders
    limit = system._known_coeffs - guard
    if orders[-1] >= limit:
        raise DegenerateWithinTruncation(
            f"sections dependent up to order >= {limit}; raise the truncation")
    basis = [TruncatedSeries(tuple(c / row[o] for c in row)) for o, row in system._triangular]
    return orders, basis


def _product_rows(system: JetSystem, m: int, n_coeffs: int) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """Degree-m products of the sections as integer coefficient rows.

    Monomials and rows come from the degree-by-degree growth that lists the
    weight classes, in ``monomials_of_degree(m, n+1)`` order: each row is
    its parent's row times one section, one truncated convolution.
    """
    if system.truncation is not None and n_coeffs > system.truncation:
        raise TruncationTooSmall(
            f"system stores coefficients to t^{system.truncation}, need t^{n_coeffs}")
    secs = [sec[:n_coeffs] for sec in system.integer_sections]
    one = [1] + [0] * (n_coeffs - 1)
    return _grow(m, secs, partial(_mul, cap=n_coeffs), one, n_coeffs)


def _working_truncations(system: JetSystem, m: int, top_order: int) -> list[int]:
    # Polynomial systems: one exact pass (products cannot exceed m * degree).
    # Truncated systems: the default working precision plus a stability
    # re-check one order block higher, as far as the stored data allows.
    if system.truncation is None:
        return [m * system.poly_degree + 1]
    needed = m * top_order + 1 + _GUARD
    if system.truncation < needed:
        raise TruncationTooSmall(
            f"need coefficients to t^{needed} for degree {m}, have {system.truncation}")
    second = min(system.truncation, needed + top_order)
    return [needed] if second == needed else [needed, second]


def sym_power_dim(system: JetSystem, m: int) -> int:
    """Dimension of the span of all degree-m products of the sections.

    Exact rank of the product matrix; for explicitly truncated systems the
    rank is re-computed at a higher truncation and must agree.
    """
    if m < 0:
        raise ValueError(f"degree must be >= 0, got {m}")
    if m == 0:
        return 1
    ranks = []
    for n_coeffs in _working_truncations(system, m, system.adapted_orders[-1]):
        _, rows = _product_rows(system, m, n_coeffs)
        ranks.append(_linalg.rank(rows))
    if len(set(ranks)) != 1:
        raise TruncationTooSmall(
            f"rank unstable under raising the truncation ({ranks}); supply more coefficients")
    return ranks[0]


def is_m_maximal(system: JetSystem, m: int) -> bool:
    """Whether the degree-m product span is as small as the weight count,
    i.e. the system attains the monomial model's dimension."""
    return sym_power_dim(system, m) == span(system.adapted_orders, m)


@dataclass(frozen=True)
class FiltrationProfile:
    """Weight-filtration dimensions of the degree-m relation space.

    ``dims[j]`` is the dimension of relations of weight-level j (relations
    supported on weight >= j monomials, modulo those supported on > j);
    absent keys mean zero.  ``kernel_dim`` is the total relation dimension.
    """

    m: int
    dims: dict[int, int]
    kernel_dim: int


def filtration_profile(system: JetSystem, m: int) -> FiltrationProfile:
    """Per-weight dimensions of the kernel of the degree-m product map."""
    seq = system.adapted_orders
    profiles = []
    for n_coeffs in _working_truncations(system, m, seq[-1]):
        monomials, rows = _product_rows(system, m, n_coeffs)
        weights = [sum(map(mul, seq.entries, xi)) for xi in monomials]
        order = sorted(range(len(rows)), key=lambda i: (-weights[i], monomials[i]))
        ech = _linalg.IncrementalRank()
        dims: dict[int, int] = {}
        seen = 0
        prev_nullity = 0
        idx = 0
        while idx < len(order):
            w = weights[order[idx]]
            while idx < len(order) and weights[order[idx]] == w:
                ech.add({c: v for c, v in enumerate(rows[order[idx]]) if v})
                seen += 1
                idx += 1
            nullity = seen - ech.rank
            if nullity != prev_nullity:
                dims[w] = nullity - prev_nullity
            prev_nullity = nullity
        profiles.append(FiltrationProfile(m=m, dims=dims, kernel_dim=prev_nullity))
    if len(profiles) == 2 and profiles[0] != profiles[1]:
        raise TruncationTooSmall("filtration unstable under raising the truncation")
    return profiles[0]


@dataclass(frozen=True)
class PropagationReport:
    """Verified transfer of maximality and degree-by-degree generation."""

    m: int
    t_max: int
    quotient_dims: dict[int, int]
    kernel_dims: dict[int, int]
    one_step_generates: dict[int, bool]


def check_ideal_propagation(system: JetSystem, m: int, t_max: int) -> PropagationReport:
    """Check that m-maximality propagates to all degrees t in [m; t_max].

    Hypotheses (raise ``HypothesisFailed`` when absent): the system is
    m-maximal, and for every degree d in (m; t_max] the degree-d relations of
    the adapted sequence are generated by its degree-m relations, i.e. its
    relation ideal has no minimal generator in (m; t_max].  Under them,
    the system must be t-maximal for every t in [m; t_max] and its degree-t
    relation space must generate the degree-(t+1) one for t in [m; t_max);
    a violation raises ``PropagationFailed`` (and would falsify the theory,
    not just this library).
    """
    if not (t_max >= m >= 2):
        raise ValueError(f"need t_max >= m >= 2, got m={m}, t_max={t_max}")
    seq = system.adapted_orders
    quotient_dims = {m: sym_power_dim(system, m)}
    if quotient_dims[m] != span(seq, m):
        raise HypothesisFailed(f"system is not {m}-maximal")
    for d in generation_scan(seq, t_max, m).generator_degrees:
        if d > m:
            raise HypothesisFailed(
                f"degree-{d} relations of {seq.entries} are not generated in degree {m}")

    for t in range(m + 1, t_max + 1):
        dim = sym_power_dim(system, t)
        if dim != span(seq, t):
            raise PropagationFailed(f"system failed to be {t}-maximal (dim {dim})")
        quotient_dims[t] = dim
    kernel_dims = {t: comb(t + seq.n, seq.n) - dim for t, dim in quotient_dims.items()}

    nvars = len(seq)
    one_step: dict[int, bool] = {}
    for t in range(m, t_max):
        n_coeffs = _working_truncations(system, t, seq[-1])[-1]
        monomials, rows = _product_rows(system, t, n_coeffs)
        # lift[pos][var] is the column of monomials[pos] * x_var among the
        # degree-(t+1) monomials, numbered in order of first appearance.
        columns: dict[tuple[int, ...], int] = {}
        lift = [[columns.setdefault(xi[:var] + (xi[var] + 1,) + xi[var + 1:], len(columns))
                 for var in range(nvars)] for xi in monomials]
        shifted: list[list[int]] = []
        for vec in _linalg.left_kernel_basis(rows, n_coeffs):
            entries = [(pos, c) for pos, c in enumerate(vec) if c]
            for var in range(nvars):
                row = [0] * len(columns)
                for pos, c in entries:
                    row[lift[pos][var]] = c
                shifted.append(row)
        # The shifted relations always sit inside the degree-(t+1) kernel, so
        # their rank is at most kernel_dims[t+1]; equality is what must hold.
        ok = _linalg.rank(shifted) >= kernel_dims[t + 1]
        one_step[t] = ok
        if not ok:
            raise PropagationFailed(
                f"degree-{t} relations do not generate the degree-{t + 1} relations")
    return PropagationReport(m=m, t_max=t_max, quotient_dims=quotient_dims,
                             kernel_dims=kernel_dims, one_step_generates=one_step)


def degree_genus_estimate(system: JetSystem, m_lo: int, m_hi: int) -> tuple[int, int]:
    """Fit dim_m = degree * m + (1 - genus) on [m_lo; m_hi].

    Requires at least two degrees; raises ``NotLinearOnRange`` when the
    dimensions do not sit on a single affine line.
    """
    if m_hi < m_lo + 1 or m_lo < 1:
        raise ValueError(f"need m_hi > m_lo >= 1, got [{m_lo}; {m_hi}]")
    dims = [sym_power_dim(system, m) for m in range(m_lo, m_hi + 1)]
    d = dims[1] - dims[0]
    intercept = dims[0] - d * m_lo
    for offset, value in enumerate(dims):
        if value != d * (m_lo + offset) + intercept:
            raise NotLinearOnRange(
                f"dimensions {dims} on [{m_lo}; {m_hi}] are not affine-linear")
    return d, 1 - intercept
