"""Jet systems of exact truncated power series and rank-based dimension data.

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
from functools import cached_property
from fractions import Fraction
from math import comb, lcm
from operator import mul
from typing import Mapping, Optional, Sequence

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
from .monomial_ideal import _check_enumeration, _grow, generation_scan
from .sequences import VanishingSequence
from .span import span

_GUARD = 4  # default slack above m*a_n for truncated-mode working precision


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        # Fraction would compute 10**exponent exactly: "1e1000000000"
        # stalls, so coefficient text is an integer, a decimal or p/q only.
        if "e" in x or "E" in x:
            raise ValueError(
                f"invalid coefficient {x!r}: write an integer, a decimal or p/q "
                "(exponent notation is not accepted)")
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError("a coefficient has a zero denominator") from None
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def _cleared(coeffs: Sequence[Fraction]) -> tuple[int, list[int]]:
    # The lcm d of the denominators and the integers d * c.  The denominators
    # go to lcm as a list: a generator raised a prop44_45 run's peak RSS by 1 MB.
    d = lcm(*[c.denominator for c in coeffs])
    return d, [c.numerator * (d // c.denominator) for c in coeffs]


# Slots handled by one shift-per-slot loop; longer values are cut in half
# first, so packing or reading n slots copies O(n log n) bits, not O(n^2).
_SLOTS_PER_LOOP = 64


def _pack(coeffs: Sequence[int], k: int) -> int:
    # Kronecker substitution t -> 2^k: sum of c_i * 2^(k*i).
    if len(coeffs) > _SLOTS_PER_LOOP:
        h = len(coeffs) // 2
        return _pack(coeffs[:h], k) + (_pack(coeffs[h:], k) << (h * k))
    value = 0
    for c in reversed(coeffs):
        value = (value << k) + c
    return value


def _unpack(value: int, k: int, n_coeffs: int) -> dict[int, int]:
    # The nonzero coefficients below t^n_coeffs of a packed polynomial whose
    # coefficients all satisfy |c| < 2^(k-1), as {column: c}.  Slots below
    # the lowest set bit are zero.
    row: dict[int, int] = {}
    if value:
        col = ((value & -value).bit_length() - 1) // k
        _read_slots(value >> (col * k), k, col, n_coeffs, row)
    return row


def _read_slots(value: int, k: int, col: int, end: int, row: dict[int, int]) -> int:
    # Reads the slots col..end-1 of value into row and returns the value
    # left above them.  Each k-bit slot is a signed digit; a negative one
    # borrowed 1 from the slot above, which is paid back.
    if end - col > _SLOTS_PER_LOOP and value:
        h = (end - col) // 2
        low = value & ((1 << (h * k)) - 1)
        carry = _read_slots(low, k, col, col + h, row)
        return _read_slots((value >> (h * k)) + carry, k, col + h, end, row)
    mask, half, full = (1 << k) - 1, 1 << (k - 1), 1 << k
    while value and col < end:
        c = value & mask
        value >>= k
        if c >= half:
            c -= full
            value += 1
        if c:
            row[col] = c
        col += 1
    return value


class _PackedRows(Sequence):
    # Packed products, each unpacked to its sparse row when it is read, so
    # a reader that takes one row at a time holds one row besides the
    # packed values.  Integer indices only.
    def __init__(self, values: list[int], k: int, n_coeffs: int):
        self._values, self._k, self._n_coeffs = values, k, n_coeffs

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, i: int) -> dict[int, int]:
        return _unpack(self._values[i], self._k, self._n_coeffs)


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
        cleaned = []
        for sec in self.sections:
            coeffs = [_as_fraction(c) for c in sec]
            while coeffs and not coeffs[-1]:
                coeffs.pop()
            cleaned.append(tuple(coeffs))
        object.__setattr__(self, "sections", tuple(cleaned))
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
    def _pivots(self) -> Mapping[int, dict[int, int]]:
        """Echelon rows of the integer sections keyed by leading order; the
        keys are the vanishing orders of the span.  Raises
        ``DegenerateWithinTruncation`` when a section adds nothing to it."""
        ech = _linalg.IncrementalRank()
        for sec in self.integer_sections:
            if ech.add({c: v for c, v in enumerate(sec) if v}) is None:
                raise DegenerateWithinTruncation(
                    "sections are linearly dependent" if self.truncation is None else
                    f"sections dependent up to order >= {self.truncation}; raise the truncation")
        return ech.pivots

    @cached_property
    def adapted_orders(self) -> VanishingSequence:
        """The strictly increasing vanishing orders a_0 < ... < a_n of the span."""
        return VanishingSequence(tuple(sorted(self._pivots)))

    @cached_property
    def integer_sections(self) -> tuple[tuple[int, ...], ...]:
        """Each section scaled to integers: that rescales each product row,
        which changes no rank, kernel or weight-filtration dimension."""
        return tuple(tuple(_cleared(sec)[1]) for sec in self.sections)


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
    # u^a = (d*u)^a / d^a, with d*u an integer polynomial whose a-th power is
    # one big-integer power of its Kronecker packing; the slots hold every
    # coefficient of (d*u)^a, bounded by its L1 norm to the a-th power.
    d, scaled = _cleared(u)
    k = (sum(map(abs, scaled)) ** seq[-1]).bit_length() + 1
    packed = _pack(scaled, k)
    sections = []
    for a in seq:
        n_coeffs = a * (len(u) - 1) + 1
        row, scale = _unpack(packed ** a, k, n_coeffs), d ** a
        sections.append([Fraction(row.get(c, 0), scale) for c in range(n_coeffs)])
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


def adapted_basis(system: JetSystem, guard: int = 0) -> tuple[VanishingSequence, list[tuple[Fraction, ...]]]:
    """The adapted orders and the reduced basis of the sections' span.

    Returns the cached ``system.adapted_orders`` a_0 < ... < a_n and, built
    on each call, one coefficient tuple per order, as long as the known
    coefficients: the i-th is t^{a_i} plus terms at orders outside the
    sequence.  That is the reduced row echelon form of the sections, so it
    does not depend on how they are given.  Raises
    ``DegenerateWithinTruncation`` when two sections collide to order >= N - guard:
    either the sections are dependent or more coefficients are needed.
    """
    orders = system.adapted_orders
    limit = system._known_coeffs - guard
    if orders[-1] >= limit:
        raise DegenerateWithinTruncation(
            f"sections dependent up to order >= {limit}; raise the truncation")
    # From the highest order down: scale each echelon row to lead 1, then
    # clear its entries at the higher orders with the rows already reduced.
    reduced: dict[int, list[Fraction]] = {}
    for a in reversed(orders.entries):
        pivot = system._pivots[a]
        row = [Fraction(pivot.get(c, 0), pivot[a]) for c in range(system._known_coeffs)]
        for b, lower in reduced.items():
            f = row[b]
            row = [x - f * y for x, y in zip(row, lower)]
        reduced[a] = row
    return orders, [tuple(reduced[a]) for a in orders]


def _product_rows(system: JetSystem, m: int, n_coeffs: int) -> tuple[list[tuple[int, ...]], Sequence[dict[int, int]]]:
    """Degree-m products of the sections, cut below t^n_coeffs, as sparse
    integer rows {column: coefficient} without zero entries, each unpacked
    when it is read.

    Monomials and rows come from the degree-by-degree growth that lists the
    weight classes, in ``monomials_of_degree(m, n+1)`` order.  The sections
    are Kronecker-packed into one integer each, with slots of k bits where
    2^(k-1) exceeds B = (largest section L1 norm)^m, which bounds every
    coefficient of a degree-m product; each value is then its parent's
    times one packed section, a single big-integer multiply.  Coefficients
    below t^N of a product depend only on the factors' coefficients below
    t^N, so cutting the sections and the unpacked rows at N is exact.
    """
    if system.truncation is not None and n_coeffs > system.truncation:
        raise TruncationTooSmall(
            f"system stores coefficients to t^{system.truncation}, need t^{n_coeffs}")
    secs = [sec[:n_coeffs] for sec in system.integer_sections]
    # Before B is computed: B has about m times the bits of the norm.
    _check_enumeration(m, len(secs), n_coeffs)
    k = (max(sum(map(abs, sec)) for sec in secs) ** m).bit_length() + 1
    monomials, values = _grow(m, [_pack(sec, k) for sec in secs], mul, 1, n_coeffs)
    return monomials, _PackedRows(values, k, n_coeffs)


def _working_truncations(system: JetSystem, m: int) -> tuple[int, ...]:
    # Polynomial systems: one exact cut (products cannot exceed m * degree).
    # Truncated systems: the default working precision plus a stability
    # re-check one order block higher, as far as the stored data allows.
    if system.truncation is None:
        return (m * system.poly_degree + 1,)
    top_order = system.adapted_orders[-1]
    needed = m * top_order + 1 + _GUARD
    if system.truncation < needed:
        raise TruncationTooSmall(
            f"need coefficients to t^{needed} for degree {m}, have {system.truncation}")
    second = min(system.truncation, needed + top_order)
    return (needed,) if second == needed else (needed, second)


def _stable_rank(ranks: list[int]) -> int:
    if len(set(ranks)) != 1:
        raise TruncationTooSmall(
            f"rank unstable under raising the truncation ({ranks}); supply more coefficients")
    return ranks[0]


def sym_power_dim(system: JetSystem, m: int) -> int:
    """Dimension of the span of all degree-m products of the sections.

    Exact rank of the product matrix, C(m+n, n) less the relation dimension;
    for explicitly truncated systems the rank is re-computed at a higher
    truncation and must agree.
    """
    if m < 0:
        raise ValueError(f"degree must be >= 0, got {m}")
    if m == 0:
        return 1
    total = comb(m + system.n, system.n)
    return _stable_rank([total - profile.kernel_dim for profile in _profiles(system, m)])


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


def _profiles(system: JetSystem, m: int) -> list[FiltrationProfile]:
    # The one elimination of the degree-m product rows, cut at the highest
    # working truncation: rows go in by descending weight, so the rows of
    # weight j that depend on those before them count the level-j relations.
    # Cut at a lower N1, the pivots leading at or past N1 vanish and the
    # others stay independent (their leads are distinct), so a row depends
    # on the rows before it exactly when it added no pivot leading below N1.
    seq = system.adapted_orders
    cuts = _working_truncations(system, m)
    monomials, rows = _product_rows(system, m, cuts[-1])
    weights = [sum(map(mul, seq.entries, xi)) for xi in monomials]
    order = sorted(range(len(rows)), key=weights.__getitem__, reverse=True)
    ech = _linalg.IncrementalRank()
    leads = [(i, ech.add(rows[i])) for i in order]
    profiles = []
    for cut in cuts:
        dims: dict[int, int] = {}
        for i, lead in leads:
            if lead is None or lead >= cut:
                dims[weights[i]] = dims.get(weights[i], 0) + 1
        # The kernel counted apart from dims: the rows less the rank at the cut.
        kernel_dim = len(rows) - sum(lead < cut for lead in ech.pivots)
        profiles.append(FiltrationProfile(m=m, dims=dims, kernel_dim=kernel_dim))
    return profiles


def filtration_profile(system: JetSystem, m: int) -> FiltrationProfile:
    """Per-weight dimensions of the kernel of the degree-m product map."""
    profiles = _profiles(system, m)
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
    quotient_dims, relations = {}, {}
    for t in range(m, t_max + 1):
        if t == t_max:
            dim = sym_power_dim(system, t)
        else:
            # One pass per degree: row i is extended by the unit vector in
            # column N + i, N the highest cut, so the pivots leading below
            # each cut give the rank there and those leading at or past N are
            # a basis of the relations, as combinations of the rows.
            cuts = _working_truncations(system, t)
            n_coeffs = cuts[-1]
            monomials, rows = _product_rows(system, t, n_coeffs)
            ech = _linalg.IncrementalRank()
            for i, row in enumerate(rows):
                row[n_coeffs + i] = 1
                ech.add(row)
            dim = _stable_rank([sum(lead < cut for lead in ech.pivots) for cut in cuts])
            relations[t] = monomials, [[(c - n_coeffs, v) for c, v in pivot.items()]
                                       for lead, pivot in ech.pivots.items() if lead >= n_coeffs]
        if t == m:
            if dim != span(seq, m):
                raise HypothesisFailed(f"system is not {m}-maximal")
            for d in generation_scan(seq, t_max, m).generator_degrees:
                if d > m:
                    raise HypothesisFailed(
                        f"degree-{d} relations of {seq.entries} are not generated in degree {m}")
        elif dim != span(seq, t):
            raise PropagationFailed(f"system failed to be {t}-maximal (dim {dim})")
        quotient_dims[t] = dim
    kernel_dims = {t: comb(t + seq.n, seq.n) - dim for t, dim in quotient_dims.items()}

    nvars = len(seq)
    one_step: dict[int, bool] = {}
    for t, (monomials, kernel) in relations.items():
        # lift[pos][var] is the column of monomials[pos] * x_var among the
        # degree-(t+1) monomials, numbered in order of first appearance; for
        # a fixed var it is injective, so shifting merges no entries.
        columns: dict[tuple[int, ...], int] = {}
        lift = [[columns.setdefault(xi[:var] + (xi[var] + 1,) + xi[var + 1:], len(columns))
                 for var in range(nvars)] for xi in monomials]
        shifted = _linalg.IncrementalRank()
        for entries in kernel:
            for var in range(nvars):
                shifted.add({lift[pos][var]: c for pos, c in entries})
        # The shifted relations always sit inside the degree-(t+1) kernel, so
        # their rank is at most kernel_dims[t+1]; equality is what must hold.
        ok = shifted.rank >= kernel_dims[t + 1]
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
