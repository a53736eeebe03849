"""Jet systems of exact polynomial sections and rank-based dimension data.

A jet system is a tuple of n+1 local sections given by rational coefficient
lists.  Sections are exact polynomials: coefficients beyond the stored ones
are zero, and every rank, filtration profile and propagation check below
reads whole products.  Truncated series are not accepted: a term past the
stored coefficients could change a rank while matching every one of them.

All dimensions are exact ranks of rational matrices; no floating point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import comb, lcm
from operator import mul
from typing import Sequence

from . import _linalg
from .errors import (
    DependentSections,
    HypothesisFailed,
    NotLinearOnRange,
    PropagationFailed,
    TooShort,
)
from .monomial_ideal import _check_enumeration, _grow, generation_scan
from .sequences import VanishingSequence
from .span import span


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        invalid = f"invalid coefficient {x!r}: write an integer, a decimal or p/q"
        try:
            if "e" not in x and "E" not in x:
                return Fraction(x)
            # Fraction would compute 10**exponent exactly ("1e1000000000"
            # stalls); a number float reads at once is refused before that.
            list(map(float, x.split("/", 1)))
        except ZeroDivisionError:
            raise ValueError("a coefficient has a zero denominator") from None
        except ValueError:
            raise ValueError(invalid) from None
        raise ValueError(f"{invalid} (exponent notation is not accepted)")
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


def _unpack(value: int, k: int) -> dict[int, int]:
    # The nonzero coefficients of a packed polynomial with every |c| < 2^(k-1),
    # as {column: c}: they lie in the slots from the lowest set bit to the top one.
    row: dict[int, int] = {}
    if value:
        col = ((value & -value).bit_length() - 1) // k
        _read_slots(value >> (col * k), k, col, value.bit_length() // k + 1, row)
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
    def __init__(self, values: list[int], k: int):
        self._values, self._k = values, k

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, i: int) -> dict[int, int]:
        return _unpack(self._values[i], self._k)


@dataclass(frozen=True)
class JetSystem:
    """n+1 local sections as exact polynomials with rational coefficients.

    Being immutable, the system computes on first use and caches what every
    rank below derives from it: its integer echelon rows ``_basis`` and the
    ``adapted_orders`` where those lead.
    """

    sections: tuple[tuple[Fraction, ...], ...]

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

    @property
    def n(self) -> int:
        return len(self.sections) - 1

    @property
    def poly_degree(self) -> int:
        return max(len(sec) - 1 for sec in self.sections)

    @cached_property
    def _basis(self) -> dict[int, list[int]]:
        """Echelon rows of the sections scaled to integers (no rank changes),
        dense to deg + 1, keyed by lead in ascending order: the vanishing
        orders of the span.  Dependent sections raise ``DependentSections``."""
        ech = _linalg.IncrementalRank()
        for sec in self.sections:
            if ech.add({c: v for c, v in enumerate(_cleared(sec)[1]) if v}) is None:
                raise DependentSections("sections are linearly dependent")
        width = self.poly_degree + 1
        basis = {}
        for lead, pivot in sorted(ech.pivots.items()):
            row = basis[lead] = [0] * width
            for c, v in pivot.items():
                row[c] = v
        return basis

    @cached_property
    def adapted_orders(self) -> VanishingSequence:
        """The strictly increasing vanishing orders a_0 < ... < a_n of the span."""
        return VanishingSequence(tuple(self._basis))


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
        row, scale = _unpack(packed ** a, k), d ** a
        sections.append([Fraction(row.get(c, 0), scale) for c in range(max(row) + 1)])
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


def adapted_basis(system: JetSystem) -> tuple[VanishingSequence, list[tuple[Fraction, ...]]]:
    """The adapted orders and the reduced basis of the sections' span.

    Returns the cached ``system.adapted_orders`` a_0 < ... < a_n and, built
    on each call, one coefficient tuple per order, deg + 1 long: the i-th is
    t^{a_i} plus terms at orders outside the sequence.  That is the reduced
    row echelon form of the sections, so it does not depend on how they are
    given.  Raises ``DependentSections`` when the sections are linearly
    dependent.
    """
    # From the highest order down: scale each echelon row to lead 1, then
    # clear its entries at the higher orders with the rows already reduced.
    reduced: dict[int, list[Fraction]] = {}
    for a, pivot in reversed(system._basis.items()):
        row = [Fraction(v, pivot[a]) for v in pivot]
        for b, lower in reduced.items():
            f = row[b]
            row = [x - f * y for x, y in zip(row, lower)]
        reduced[a] = row
    return system.adapted_orders, [tuple(reduced[a]) for a in system._basis]


def _product_rows(system: JetSystem, m: int) -> tuple[list[tuple[int, ...]], Sequence[dict[int, int]]]:
    """Whole degree-m products of the adapted basis, as sparse integer rows
    {column: coefficient} without zero entries, each unpacked when read.

    The basis is the echelon rows ``system._basis`` in order of their lead,
    row i leading at a_i, so the product over xi leads at the weight of xi
    whatever basis the sections were given in; it spans what the sections
    span, so every rank and kernel dimension is that of their products.

    Monomials and rows come from the degree-by-degree growth that lists the
    weight classes, in ``monomials_of_degree(m, n+1)`` order.  The basis
    rows are Kronecker-packed into one integer each, with slots of k bits
    where 2^(k-1) exceeds B = (largest row L1 norm)^m, which bounds every
    coefficient of a degree-m product; each value is then its parent's
    times one packed row, a single big-integer multiply.
    """
    secs = list(system._basis.values())
    # Rows m * deg + 1 wide, before B is computed: B has about m times the bits of the norm.
    _check_enumeration(m, len(secs), m * system.poly_degree + 1)
    k = (max(sum(map(abs, sec)) for sec in secs) ** m).bit_length() + 1
    monomials, values = _grow(m, [_pack(sec, k) for sec in secs], mul, 1)
    return monomials, _PackedRows(values, k)


def sym_power_dim(system: JetSystem, m: int) -> int:
    """Dimension of the span of all degree-m products of the sections.

    Exact rank of the product matrix, C(m+n, n) less the relation dimension.
    """
    if m < 0:
        raise ValueError(f"degree must be >= 0, got {m}")
    if m == 0:
        return 1
    return comb(m + system.n, system.n) - filtration_profile(system, m).kernel_dim


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
    """Per-weight dimensions of the kernel of the degree-m product map,
    taken in the adapted basis, so they depend only on the sections' span.

    One elimination of the whole degree-m product rows: rows go in by
    descending weight, so the rows of weight j that depend on those before
    them count the level-j relations.
    """
    seq = system.adapted_orders
    monomials, rows = _product_rows(system, m)
    weights = [sum(map(mul, seq.entries, xi)) for xi in monomials]
    ech = _linalg.IncrementalRank()
    dims: dict[int, int] = {}
    for i in sorted(range(len(rows)), key=weights.__getitem__, reverse=True):
        if ech.add(rows[i]) is None:
            dims[weights[i]] = dims.get(weights[i], 0) + 1
    # The kernel counted apart from dims: the rows less the rank.
    return FiltrationProfile(m=m, dims=dims, kernel_dim=len(rows) - ech.rank)


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
            # column N + i, N = t * deg + 1 past where the products end, so
            # the pivots leading below N give the rank and those leading at
            # or past N are a basis of the relations, as combinations of the rows.
            n_coeffs = t * system.poly_degree + 1
            monomials, rows = _product_rows(system, t)
            ech = _linalg.IncrementalRank()
            for i, row in enumerate(rows):
                row[n_coeffs + i] = 1
                ech.add(row)
            dim = sum(lead < n_coeffs for lead in ech.pivots)
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
    # From m_hi down: the budget grows with the degree, so the first rank checks it.
    dims = [sym_power_dim(system, m) for m in range(m_hi, m_lo - 1, -1)][::-1]
    d = dims[1] - dims[0]
    intercept = dims[0] - d * m_lo
    for offset, value in enumerate(dims):
        if value != d * (m_lo + offset) + intercept:
            raise NotLinearOnRange(
                f"dimensions {dims} on [{m_lo}; {m_hi}] are not affine-linear")
    return d, 1 - intercept
