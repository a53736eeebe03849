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
from itertools import zip_longest
from math import comb, gcd, lcm
from operator import mul
from typing import Sequence

# No function here calls _linalg.  perfbench's tracer patches
# IncrementalRank.add and finds the module only once it is imported.
from . import _linalg  # noqa: F401
from .errors import (
    DependentSections,
    HypothesisFailed,
    NotLinearOnRange,
    PropagationFailed,
    TooShort,
)
from .monomial_ideal import _check_enumeration, _components, _generator_degrees, _grow
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


def _read(value: int, k: int, col: int, end: int) -> list[int]:
    # The coefficients in the slots col..end-1 of a packed polynomial with
    # every |c| < 2^(k-1) and no nonzero slot below col, as a dense list.
    slots: list[int] = []
    _read_slots(value >> (col * k), k, end - col, slots)
    return slots


def _read_slots(value: int, k: int, count: int, slots: list[int]) -> int:
    # Appends the lowest count slots of value to slots and returns the value
    # left above them.  Each k-bit slot is a signed digit; a negative one
    # borrowed 1 from the slot above, which is paid back.
    if count > _SLOTS_PER_LOOP and value:
        h = count // 2
        carry = _read_slots(value & ((1 << (h * k)) - 1), k, h, slots)
        return _read_slots((value >> (h * k)) + carry, k, count - h, slots)
    mask, half, full = (1 << k) - 1, 1 << (k - 1), 1 << k
    while value and count:
        c = value & mask
        value >>= k
        if c >= half:
            c -= full
            value += 1
        slots.append(c)
        count -= 1
    slots += [0] * count
    return value


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
        dense to deg + 1, primitive, keyed by lead in ascending order: the
        vanishing orders of the span, from ``_absorb`` in section order.
        Dependent sections raise ``DependentSections``."""
        width = self.poly_degree + 1
        pivots: dict[int, list[int]] = {}
        for sec in self.sections:
            row = _cleared(sec)[1] + [0] * (width - len(sec))
            lead = next((c for c, v in enumerate(row) if v), None)
            # Every pivot is a dense list, so _absorb never reads k.
            if lead is None or not _absorb(pivots, row[lead:], lead, 0, width):
                raise DependentSections("sections are linearly dependent")
        return {lead: [0] * lead + row for lead, row in sorted(pivots.items())}

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
    return JetSystem(tuple(
        (Fraction(0),) * a + (Fraction(1),)
        + tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(tail))
        for a in seq))


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
        scale = d ** a
        sections.append([Fraction(c, scale) for c in _read(packed ** a, k, 0, a * (len(u) - 1) + 1)])
    for j in range(len(sections)):
        for i in range(j + 1, len(sections)):
            gamma = rng.randint(-2, 2)
            if gamma:
                sections[j] = [x + gamma * y
                               for x, y in zip_longest(sections[j], sections[i], fillvalue=0)]
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


def _product_rows(system: JetSystem, m: int) -> tuple[list[tuple[int, ...]], list[int], int]:
    """Whole degree-m products of the adapted basis, Kronecker-packed: the
    monomials, one packed integer per monomial and the slot width k, so
    ``_read`` gives any run of a product's coefficients.

    The basis is the echelon rows ``system._basis`` in order of their lead,
    row i leading at a_i with a nonzero coefficient, so the product over xi
    leads at the weight of xi, with the product of those leads, never zero,
    as its coefficient, whatever basis the sections were given in; it spans
    what the sections span, so every rank and kernel dimension is that of
    their products.

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
    return monomials, values, k


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
    them count the level-j relations.  A row leads at its weight with a
    nonzero coefficient, so the first row of each weight is a new pivot
    without being read; it is read only when a later row merges against
    it.  Once every column in [floor, m * deg + 1) leads a pivot, a row of
    weight >= floor lies in their span and is counted without being read.
    """
    seq = system.adapted_orders
    monomials, values, k = _product_rows(system, m)
    weights = [sum(map(mul, seq.entries, xi)) for xi in monomials]
    end = floor = m * system.poly_degree + 1
    # Pivots by lead: a packed value until a row merges against it, then its
    # dense primitive coefficients from the lead to the end.
    pivots: dict[int, int | list[int]] = {}
    dims: dict[int, int] = {}
    for i in sorted(range(len(values)), key=weights.__getitem__, reverse=True):
        w = weights[i]
        if w < floor and w not in pivots:
            pivots[w] = values[i]
        elif w >= floor or not _absorb(pivots, _read(values[i], k, w, end), w, k, end):
            dims[w] = dims.get(w, 0) + 1
            continue
        while floor - 1 in pivots:
            floor -= 1
    # The kernel counted apart from dims: the rows less the rank.
    return FiltrationProfile(m=m, dims=dims, kernel_dim=len(values) - len(pivots))


def _absorb(pivots: dict[int, int | list[int]], row: list[int], lead: int, k: int, end: int) -> bool:
    # Reduces a dense row from its lead to end by the pivots and stores what
    # is left, divided by its content, as a new pivot; False if nothing is.
    # A packed pivot is read on its first merge: it needs no division, since
    # a product of primitive polynomials is primitive (Gauss's lemma).
    while lead in pivots:
        pivot = pivots[lead]
        if type(pivot) is int:
            pivot = pivots[lead] = _read(pivot, k, lead, end)
        g = gcd(pivot[0], row[0])
        fa, fb = row[0] // g, pivot[0] // g
        row = [fb * x - fa * y for x, y in zip(row, pivot)]
        for j, x in enumerate(row):
            if x:
                break
        else:
            return False
        row, lead = row[j:], lead + j
    g = gcd(*row)
    pivots[lead] = [x // g for x in row] if g > 1 else row
    return True


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

    Each dimension is ``sym_power_dim``.  One-step generation at t is
    certified on the weight-diagonal blocks of the shifted relations, by
    the initial-form (flat degeneration) argument of Gröbner theory
    (Sturmfels, Gröbner Bases and Convex Polytopes, AMS 1996; Eisenbud,
    Commutative Algebra, GTM 150, §15.8).  Let the system be t-maximal and
    L(xi) = prod lead_i^xi_i, the nonzero coefficient at which the product
    over xi leads, at its weight w(xi):
    1. Let f(w) be the first monomial of each degree-t weight class w.  Its
       product row leads at w with the coefficient L(f), so these rows are
       independent, and by t-maximality they span every row.
    2. So each other monomial u has the relation rho_u = L(f) e_u - L(u) e_f
       + (terms of higher weight), with f = f(w(u)); these relations are a
       basis of the degree-t ones.
    3. No relation is supported on first monomials alone.  So the shifted
       relations x_v rho_u have the same rank after the columns of the
       first monomials of degree t+1 are dropped.
    4. Ordered by weight, that matrix is block upper-triangular.  Its
       weight-W diagonal block holds only the two entries of step 2, the
       rows L(f) e_{u x_v} - L(u) e_{f x_v} with w(u) + a_v = W.  Scaling
       column mu by L(mu) and that row by 1 / (L(f) L(u) lead_v) turns it
       into e_{u x_v} - e_{f x_v}, so each block has the rank of the
       monomial model's block, which ``_block_rank_sum`` ranks.
    5. The rank of a block-triangular matrix is at least the sum of the
       ranks of its diagonal blocks, and the shifted relations, being
       degree-(t+1) relations, have rank at most ``kernel_dims[t+1]``.  When
       that sum reaches it, ``one_step_generates[t]`` is True, exactly and
       over the integers.
    On the model the blocks hold all of its shifted relations, so the sum
    is the model's shifted rank, and the dimension checks above make
    ``kernel_dims[t+1]`` the model's.  The sum therefore falls short only
    at a minimal generator of the model's relations in degree t+1, which
    the hypothesis check excludes; a shortfall raises ``PropagationFailed``.
    """
    if not (t_max >= m >= 2):
        raise ValueError(f"need t_max >= m >= 2, got m={m}, t_max={t_max}")
    seq = system.adapted_orders
    quotient_dims = {}
    for t in range(m, t_max + 1):
        dim = sym_power_dim(system, t)
        if t == m:
            if dim != span(seq, m):
                raise HypothesisFailed(f"system is not {m}-maximal")
            for d in _generator_degrees(seq, t_max):
                if d > m:
                    raise HypothesisFailed(
                        f"degree-{d} relations of {seq.entries} are not generated in degree {m}")
        elif dim != span(seq, t):
            raise PropagationFailed(f"system failed to be {t}-maximal (dim {dim})")
        quotient_dims[t] = dim
    kernel_dims = {t: comb(t + seq.n, seq.n) - dim for t, dim in quotient_dims.items()}

    one_step: dict[int, bool] = {}
    # The weight classes of degrees t and t + 1; the rows at t_max, built
    # above, met a larger budget than this listing of degrees up to t_max.
    upper = _components(seq, m, m)
    for t in range(m, t_max):
        lower, upper = upper, _components(seq, t + 1, t + 1)
        ok = _block_rank_sum(seq.entries, lower, upper) >= kernel_dims[t + 1]
        one_step[t] = ok
        if not ok:
            raise PropagationFailed(
                f"degree-{t} relations do not generate the degree-{t + 1} relations")
    return PropagationReport(m=m, t_max=t_max, quotient_dims=quotient_dims,
                             kernel_dims=kernel_dims, one_step_generates=one_step)


def _block_rank_sum(entries: Sequence[int], lower: dict, upper: dict) -> int:
    # The sum of the exact ranks of the weight-diagonal blocks of the shifted
    # degree-t relations (steps 4 and 5 above), from the weight classes
    # ``lower`` of degree t and ``upper`` of degree t + 1, as
    # _components(seq, d, d) gives them.  The block of weight W has a column
    # per member of the degree-(t+1) class W, and its rows e_{u x_v} -
    # e_{f x_v} go into _absorb dense.  Every row sums to zero, so a block's
    # rank is at most its width less one, where its rows stop.
    columns = {mu: i for (members,) in upper.values() for i, mu in enumerate(members)}
    blocks: dict[int, dict[int, int | list[int]]] = {w: {} for w in upper}
    for w, ((f, *others),) in lower.items():
        for u in others:
            for v, a in enumerate(entries):
                pivots, width = blocks[w + a], len(upper[w + a][0])
                if len(pivots) == width - 1:
                    continue
                i = columns[u[:v] + (u[v] + 1,) + u[v + 1:]]
                j = columns[f[:v] + (f[v] + 1,) + f[v + 1:]]
                row = [0] * width
                row[i], row[j] = 1, -1
                lead = min(i, j)
                _absorb(pivots, row[lead:], lead, 0, width)
    return sum(map(len, blocks.values()))


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
