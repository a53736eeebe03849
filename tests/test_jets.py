import random
import time
from fractions import Fraction as F
from itertools import accumulate
from math import comb, gcd
from unittest import mock

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix

from spanlab import (
    DependentSections,
    EnumerationTooLarge,
    HypothesisFailed,
    JetSystem,
    NotLinearOnRange,
    adapted_basis,
    ap_sequence,
    bigraded_dims,
    check_ideal_propagation,
    degree_genus_estimate,
    filtration_profile,
    is_m_maximal,
    monomial_system,
    monomials_of_degree,
    near_ap_high,
    normalized_sequences,
    perturbed_system,
    reparametrized_system,
    span,
    sym_power_dim,
    validate,
)
from spanlab import _linalg, jets, monomial_ideal
from spanlab.jets import FiltrationProfile, _pack, _product_rows, _read


def _naive_mul(a, b):
    out = [0] * (len(a) + len(b) - 1 if a and b else 0)
    for i in range(len(a)):
        for j in range(len(b)):
            out[i + j] += a[i] * b[j]
    return out


def _naive_row(secs, xi):
    # The whole product of sec_i^k_i over the monomial xi, multiplied out
    # anew, with its zero entries dropped.
    expected = [1]
    for sec, k in zip(secs, xi):
        for _ in range(k):
            expected = _naive_mul(expected, sec)
    return {c: v for c, v in enumerate(expected) if v}


def _sparse_rows(system, m):
    # The degree-m monomials and their product rows, each read whole from its
    # packed value as a sparse row {column: value} without zero entries.
    monos, values, k = _product_rows(system, m)
    width = m * system.poly_degree + 1
    return monos, [{c: v for c, v in enumerate(_read(value, k, 0, width)) if v} for value in values]


def _adapted_sections(system):
    # The echelon rows of the sections as coefficient lists, in order of
    # their lead: the basis whose products _product_rows lists.
    return [list(row) for row in system._basis.values()]


def _scaled_sections(system):
    # Each section times the lcm of its denominators, the lcm taken here
    # pairwise through gcd.
    scaled = []
    for sec in system.sections:
        d = 1
        for c in sec:
            d = d * c.denominator // gcd(d, c.denominator)
        scaled.append([int(c * d) for c in sec])
    return scaled


def _sympy_rank(rows, width):
    # Rank over the integers of sparse rows {column: value}, made dense.
    return DomainMatrix.from_list([[row.get(c, 0) for c in range(width)] for row in rows], ZZ).rank()


def _oracle_rank(system, m):
    # Rank of the dense degree-m product matrix of a polynomial system, its
    # rows multiplied out anew and ranked by sympy.
    secs = _scaled_sections(system)
    return _sympy_rank([_naive_row(secs, xi) for xi in monomials_of_degree(m, len(secs))],
                       m * system.poly_degree + 1)


_fractions = st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=7), max_size=8)


def _schoolbook_reparametrized(seq, tail, seed):
    # The sections of reparametrized_system with u^a multiplied out one
    # factor at a time over the rationals.
    rng = random.Random(seed)
    u = [F(0), F(1)] + [F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(tail)]
    powers = [[F(1)]]
    for _ in range(seq[-1]):
        powers.append(_naive_mul(powers[-1], u))
    sections = [powers[a] for a in seq]
    for j in range(len(sections)):
        for i in range(j + 1, len(sections)):
            gamma = rng.randint(-2, 2)
            if gamma:
                longer = max(len(sections[j]), len(sections[i]))
                merged = sections[j] + [F(0)] * (longer - len(sections[j]))
                for k, c in enumerate(sections[i]):
                    merged[k] += gamma * c
                sections[j] = merged
    return JetSystem(tuple(map(tuple, sections))).sections


class TestReparametrized:
    def test_packed_powers_match_schoolbook(self):
        for seq in normalized_sequences(1, 4, 9):
            for seed in range(3):
                for tail in (0, 1, 3):
                    system = reparametrized_system(seq, tail=tail, seed=seed)
                    assert system.sections == _schoolbook_reparametrized(seq, tail, seed)


def _eliminated_basis(system):
    # Every scaled section added to one plain IncrementalRank, the pivots
    # made dense to deg + 1 in order of their lead; None if any is dependent.
    width = system.poly_degree + 1
    ech = _linalg.IncrementalRank()
    for sec in _scaled_sections(system):
        if ech.add({c: v for c, v in enumerate(sec) if v}) is None:
            return None
    return {lead: [pivot.get(c, 0) for c in range(width)] for lead, pivot in sorted(ech.pivots.items())}


class TestPerturbed:
    def test_seeded_sections_and_eliminated_basis(self):
        # Sections leading at a_0 < ... < a_n are their own echelon, and the
        # basis taken that way is the elimination's, keyed in the same order;
        # the sections are the seeded draws of old: t^a plus
        # numerator-then-denominator pairs on a + 1 .. a + tail.
        for seq in normalized_sequences(1, 4, 8):
            for seed in range(5):
                for tail in (0, 1, 3):
                    system = perturbed_system(seq, tail=tail, seed=seed)
                    assert list(system._basis.items()) == list(_eliminated_basis(system).items())
                    rng = random.Random(seed)
                    drawn = JetSystem(tuple(
                        (0,) * a + (1,) + tuple(F(rng.randint(-9, 9), rng.randint(1, 9))
                                                for _ in range(tail)) for a in seq))
                    assert system.sections == drawn.sections


class TestCoefficientText:
    def test_rationals_as_text(self):
        system = JetSystem((("1",), ("0", "-1/2", "0.25")))
        assert system.sections == ((F(1),), (F(0), F(-1, 2), F(1, 4)))

    @pytest.mark.parametrize("text", ["1/0", "-3/0", "0/0"])
    def test_zero_denominator_rejected(self, text):
        with pytest.raises(ValueError, match="^a coefficient has a zero denominator$"):
            JetSystem(((text,), (0, 1)))

    @pytest.mark.parametrize("value", [True, False, None])
    def test_non_numbers_rejected(self, value):
        # bool is an int subclass: True must not be read as 1.
        with pytest.raises(TypeError, match="as an exact rational"):
            JetSystem(((value,), (0, 1)))

    def test_trailing_zeros_dropped(self):
        system = JetSystem((("1", "0", "0/5"), (0, 1, 0)))
        assert system.sections == ((F(1),), (F(0), F(1)))

    @given(st.lists(_fractions, min_size=2, max_size=4))
    def test_cleared_scales_by_the_lcm(self, sections):
        system = JetSystem(tuple(map(tuple, sections)))
        for sec, want in zip(system.sections, _scaled_sections(system)):
            d, ints = jets._cleared(sec)
            assert ints == want
            assert all(type(v) is int for v in ints)
            assert all(c * d == v for c, v in zip(sec, ints))

    @pytest.mark.parametrize("text", ["three", "abc", "true", "1/two", "0x10", "inf", "1e", "e5", ""])
    def test_non_number_text_rejected(self, text):
        # Exponent notation is named only for a number written with one.
        with pytest.raises(ValueError) as exc:
            JetSystem(((text,), (0, 1)))
        assert str(exc.value) == f"invalid coefficient {text!r}: write an integer, a decimal or p/q"

    @pytest.mark.parametrize("text", ["1e1000000000", "1E5", "-2.5e-3", "1/1e9", "1e3", "-2.5E-3"])
    def test_exponent_notation_rejected_at_once(self, text):
        # Fraction("1e1000000000") would compute 10**1000000000.
        start = time.perf_counter()
        with pytest.raises(ValueError, match="exponent notation"):
            JetSystem(((text,), (0, 1)))
        assert time.perf_counter() - start < 1.0


@st.composite
def _jet_systems(draw):
    # Two to four sections of ints or fractions with negative entries, or
    # sections c * t^e sharing one coefficient c: there every coefficient of
    # a degree-m product is c^m, the bound (largest L1 norm)^m that sets the
    # slot width.
    nsecs = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(["int", "fraction", "tight"]))
    if kind == "tight":
        c = draw(st.integers(1, 2 ** 40)) * draw(st.sampled_from([1, -1]))
        sections = [(0,) * draw(st.integers(0, 5)) + (c,) for _ in range(nsecs)]
    else:
        entries = (st.integers(-(2 ** 20), 2 ** 20) if kind == "int"
                   else st.fractions(min_value=-9, max_value=9, max_denominator=9))
        sections = [tuple(draw(st.lists(entries, max_size=6))) for _ in range(nsecs)]
    return JetSystem(tuple(sections))


_MODEL_SYSTEMS = [
    (perturbed_system, (0, 1, 3), 1),
    (perturbed_system, (0, 1, 2, 4), 2),
    (perturbed_system, (0, 2, 3, 4, 7), 3),
    (reparametrized_system, (0, 1, 2), 4),
    (reparametrized_system, (0, 2, 3, 5), 5),
]


class TestProductRows:
    @pytest.mark.parametrize("make,entries,seed", _MODEL_SYSTEMS)
    def test_rows_match_naive_products(self, make, entries, seed):
        # Each row is the whole product of the adapted basis, b_i^k_i over
        # its monomial, without zero entries; rows come in
        # monomials_of_degree order.
        system = make(validate(entries), seed=seed)
        secs = _adapted_sections(system)
        for m in range(4):
            monos, rows = _sparse_rows(system, m)
            assert monos == list(monomials_of_degree(m, len(secs)))
            for xi, row in zip(monos, rows):
                assert row == _naive_row(secs, xi), xi

    def test_row_width_counts_against_the_enumeration_budget(self):
        # (1, t^200) has only 201 monomials of degree 200, but their rows
        # have 40,001 coefficients each.
        system = JetSystem(((F(1),), (F(0),) * 200 + (F(1),)))
        with pytest.raises(EnumerationTooLarge, match="exceed the limit"):
            sym_power_dim(system, 200)

    @given(st.integers(2, 40), st.data())
    def test_pack_round_trip_across_the_halving(self, k, data):
        # Values of more than 64 slots are packed and read in halves, so a
        # borrow must cross each half; digits reach both ends of |c| < 2^(k-1),
        # and the value is read whole, from any column at or below its lowest
        # nonzero slot to past its top one, where the slots read zero.
        top = 2 ** (k - 1) - 1
        digits = st.sampled_from([0, top, -top, -1, 1]) | st.integers(-top, top)
        coeffs = data.draw(st.lists(digits, min_size=65, max_size=300))
        col = data.draw(st.integers(0, next((i for i, c in enumerate(coeffs) if c), len(coeffs))))
        past = data.draw(st.integers(0, 70))
        assert _read(_pack(coeffs, k), k, col, len(coeffs) + past) == coeffs[col:] + [0] * past

    def test_rows_longer_than_one_shift_loop(self):
        # Degree-89 sections: the products at m = 1, 2, 3 have 90, 179 and
        # 268 slots, read in halves past 64.
        rng = random.Random(5)
        secs = ((1,) + tuple(rng.randint(-9, 9) for _ in range(89)),
                (0, 1) + tuple(rng.randint(-9, 9) for _ in range(88)))
        system = JetSystem(secs)
        secs = _adapted_sections(system)
        for m in (1, 2, 3):
            monos, rows = _sparse_rows(system, m)
            assert max(max(row) for row in rows) == m * 89
            for xi, row in zip(monos, rows):
                assert row == _naive_row(secs, xi), xi


def _order(coeffs):
    return next((i for i, c in enumerate(coeffs) if c), None)


def _sympy_rref(system):
    # Pivot columns and nonzero rows of the reduced row echelon form of the
    # sections, zero-padded to deg + 1 coefficients.
    width = system.poly_degree + 1
    matrix = sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in sec]
                           + [0] * (width - len(sec)) for sec in system.sections])
    reduced, pivots = matrix.rref()
    rows = [tuple(F(int(x.p), int(x.q)) for x in reduced.row(i)) for i in range(len(pivots))]
    return pivots, rows


def _check_against_rref(system) -> bool:
    # Whether the sections are independent; either way adapted_basis must
    # agree with sympy's rref.
    pivots, rows = _sympy_rref(system)
    if len(pivots) < len(system.sections):
        with pytest.raises(DependentSections):
            adapted_basis(system)
        return False
    seq, basis = adapted_basis(system)
    assert seq.entries == pivots
    assert basis == rows
    return True


def _random_system(rng, dependent):
    # Short sections with many zero coefficients, so leading orders collide;
    # a dependent system gets one section that combines the others.
    sections = [[F(rng.randint(-3, 3) * (rng.random() < 0.6), rng.randint(1, 3))
                 for _ in range(rng.randint(1, 6))] for _ in range(rng.randint(2, 4))]
    if dependent:
        combo = [F(0)] * max(map(len, sections))
        for sec in sections:
            scale = F(rng.randint(-2, 2), rng.randint(1, 2))
            for k, c in enumerate(sec):
                combo[k] += scale * c
        sections.insert(rng.randint(0, len(sections)), combo)
    return JetSystem(tuple(map(tuple, sections)))


class TestAdaptedBasis:
    def test_monomial_sections(self):
        seq, basis = adapted_basis(monomial_system(validate([0, 1, 2])))
        assert seq.entries == (0, 1, 2)
        for a, b in zip(seq, basis):
            assert _order(b) == a
            assert b[a] == 1

    def test_order_collision_eliminated(self):
        system = JetSystem(((F(1),), (F(0), F(1), F(1)), (F(0), F(1))))
        seq, basis = adapted_basis(system)
        assert seq.entries == (0, 1, 2)
        for a, b in zip(seq, basis):
            assert _order(b) == a
            assert b[a] == 1

    @pytest.mark.parametrize("sections", [
        ((F(1),), (F(0), F(1)), (F(0), F(3))),
        # Dependent through a coefficient far past the others.
        ((F(1),), (F(0), F(1)) + (F(0),) * 8 + (F(1),), (F(0), F(3)) + (F(0),) * 8 + (F(3),)),
    ], ids=["polynomial", "far"])
    def test_dependent_sections(self, sections):
        # Raises on every call: a failed triangularization is not cached.
        system = JetSystem(sections)
        message = "^sections are linearly dependent$"
        for _ in range(2):
            with pytest.raises(DependentSections, match=message):
                adapted_basis(system)
            with pytest.raises(DependentSections, match=message):
                sym_power_dim(system, 2)

    def test_orders_match_basis(self):
        for k in range(3):
            system = perturbed_system(validate([0, 2, 3, 7]), tail=3, seed=k)
            assert system.adapted_orders == adapted_basis(system)[0]

    def test_unsorted_orders(self):
        system = JetSystem(((F(0), F(0), F(1)), (F(1),), (F(0), F(2))))
        seq, basis = adapted_basis(system)
        assert seq.entries == (0, 1, 2)
        assert all(b[a] == 1 for a, b in zip(seq, basis))

    @pytest.mark.parametrize("make", [perturbed_system, reparametrized_system])
    def test_model_deformations_match_sympy_rref(self, make):
        for entries in [(0, 1, 2), (0, 1, 3), (0, 2, 3, 7), (0, 1, 2, 4, 5)]:
            for seed in range(3):
                assert _check_against_rref(make(validate(entries), seed=seed))

    def test_random_systems_match_sympy_rref(self):
        rng = random.Random(8)
        independent = sum(_check_against_rref(_random_system(rng, dependent=False))
                          for _ in range(60))
        # Random short sections are often dependent too; both kinds occur.
        assert 0 < independent < 60
        for _ in range(20):
            assert not _check_against_rref(_random_system(rng, dependent=True))

    @given(_jet_systems())
    def test_basis_is_the_elimination(self, system):
        # Whether the sections lead at distinct columns or must be
        # eliminated, the basis is that of the plain elimination.
        expected = _eliminated_basis(system)
        if expected is None:
            with pytest.raises(DependentSections):
                system._basis
        else:
            assert list(system._basis.items()) == list(expected.items())


class TestSymPowerDim:
    @pytest.mark.parametrize("n,m", [(2, 2), (2, 4), (3, 3), (4, 2)])
    def test_progression_model(self, n, m):
        system = monomial_system(ap_sequence(n, 1))
        assert sym_power_dim(system, m) == m * n + 1

    def test_monomial_model_matches_span(self):
        for seq in normalized_sequences(1, 3, 6):
            system = monomial_system(seq)
            for m in (1, 2, 3, 4):
                assert sym_power_dim(system, m) == span(seq, m), seq.entries

    def test_maximal_example(self):
        system = JetSystem(((F(1),), (F(0), F(1)), (F(0), F(0), F(0), F(1), F(1))))
        assert sym_power_dim(system, 2) == 6
        assert is_m_maximal(system, 2)

    def test_perturbation_never_below_span(self):
        # Tail perturbations can only lose relations, never gain them.
        strict = 0
        for seq in normalized_sequences(2, 3, 5):
            for k in range(5):
                system = perturbed_system(seq, tail=3, seed=k)
                for m in (2, 3):
                    dim = sym_power_dim(system, m)
                    assert dim >= span(seq, m)
                    strict += dim > span(seq, m)
        assert strict > 0

    def test_far_term_counts(self):
        # Every coefficient is exact: t^30 sets x_0 x_2 = t^2 + t^30 apart
        # from x_1^2 = t^2, however far it lies past the other coefficients.
        model = JetSystem(((1,), (0, 1), (0, 0, 1)))
        far = JetSystem(((1,), (0, 1), (0, 0, 1) + (0,) * 27 + (1,)))
        assert far.adapted_orders == model.adapted_orders
        assert (sym_power_dim(model, 2), is_m_maximal(model, 2)) == (5, True)
        assert (sym_power_dim(far, 2), is_m_maximal(far, 2)) == (6, False)

    def test_degree_zero(self):
        assert sym_power_dim(monomial_system(validate([0, 1, 3])), 0) == 1

    @pytest.mark.parametrize("make,entries,seed", _MODEL_SYSTEMS)
    def test_model_deformations_match_sympy_rank(self, make, entries, seed):
        system = make(validate(entries), seed=seed)
        for m in range(4):
            assert sym_power_dim(system, m) == _oracle_rank(system, m), m

    @given(_jet_systems(), st.integers(0, 4))
    def test_polynomial_draws_match_sympy_rank(self, system, m):
        # Dependent sections have no adapted orders, so no rank above m = 0.
        secs = _scaled_sections(system)
        width = max(map(len, secs))
        independent = width and _sympy_rank(
            [dict(enumerate(sec)) for sec in secs], width) == len(secs)
        if m and not independent:
            with pytest.raises(DependentSections):
                sym_power_dim(system, m)
        else:
            assert sym_power_dim(system, m) == _oracle_rank(system, m)


class TestExactCut:
    # Sections are exact polynomials, so every reader builds the whole
    # degree-m products, which end at t^(m * deg), once per degree.
    def test_every_reader_builds_each_degree_once(self, monkeypatch):
        system = monomial_system(validate([0, 1, 2, 3]))
        calls = _count_product_rows(monkeypatch)
        assert sym_power_dim(system, 2) == 7
        assert calls == [2]
        calls.clear()
        assert filtration_profile(system, 3).kernel_dim == 10
        assert calls == [3]
        calls.clear()
        check_ideal_propagation(system, 2, 4)
        assert calls == [2, 3, 4]

    @given(_jet_systems(), st.integers(0, 4))
    def test_rows_end_at_m_deg(self, system, m):
        # Each row is the naive whole product of the adapted basis, in
        # monomials_of_degree order, with no column past m * deg.
        # Dependent sections have no adapted basis.
        try:
            secs = _adapted_sections(system)
        except DependentSections:
            return
        monos, rows = _sparse_rows(system, m)
        assert monos == list(monomials_of_degree(m, len(secs)))
        for xi, row in zip(monos, rows):
            assert row == _naive_row(secs, xi), xi
            assert all(c <= m * system.poly_degree for c in row), xi

    def test_far_term_in_every_reader(self):
        # x_0 x_2 - x_1^2 = t^10 on (1, t, t^2 + t^10): no relation in
        # degree 2, so the system is not 2-maximal, and propagation refuses it.
        model = JetSystem(((1,), (0, 1), (0, 0, 1)))
        far = JetSystem(((1,), (0, 1), (0, 0, 1) + (0,) * 7 + (1,)))
        assert filtration_profile(model, 2) == FiltrationProfile(m=2, dims={2: 1}, kernel_dim=1)
        assert filtration_profile(far, 2) == FiltrationProfile(m=2, dims={}, kernel_dim=0)
        assert check_ideal_propagation(model, 2, 3).quotient_dims == {2: 5, 3: 7}
        with pytest.raises(HypothesisFailed, match="^system is not 2-maximal$"):
            check_ideal_propagation(far, 2, 3)

    def test_basis_matches_sympy_rref_on_far_orders(self):
        # The basis spans every coefficient, deg + 1 of them in each row.
        system = JetSystem(((F(1), F(2)), (F(0), F(1), F(1)), (F(0), F(1), F(0), F(1)),
                            (F(0),) * 5 + (F(2),)))
        assert _check_against_rref(system)
        seq, basis = adapted_basis(system)
        assert seq.entries == (0, 1, 2, 5)
        assert all(len(b) == 6 for b in basis)

    def test_no_truncation_or_guard(self):
        sections = ((F(1),), (F(0), F(1)), (F(0), F(0), F(1)))
        with pytest.raises(TypeError):
            JetSystem(sections, truncation=30)
        with pytest.raises(TypeError):
            adapted_basis(JetSystem(sections), guard=1)


def _count_product_rows(monkeypatch):
    # The degree of each _product_rows call made through jets.
    calls = []

    def counting(system, m):
        calls.append(m)
        return _product_rows(system, m)

    monkeypatch.setattr(jets, "_product_rows", counting)
    return calls


def _two_pass_profile(system, m):
    # The profile of the product rows, eliminated on their own: by descending
    # weight, each row that leaves the rank unchanged is a relation.
    seq = system.adapted_orders
    monos, rows = _sparse_rows(system, m)
    weights = [sum(a * k for a, k in zip(seq, xi)) for xi in monos]
    ech = _linalg.IncrementalRank()
    dims = {}
    for i in sorted(range(len(rows)), key=lambda i: -weights[i]):
        rank = ech.rank
        ech.add(rows[i])
        if ech.rank == rank:
            dims[weights[i]] = dims.get(weights[i], 0) + 1
    return FiltrationProfile(m=m, dims=dims, kernel_dim=len(rows) - ech.rank)


class TestCutReading:
    # filtration_profile eliminates the whole rows once and reads each row's
    # dependence from what add returns; a pass that compares ranks must
    # agree with it, dims in the same order.
    @given(_jet_systems(), st.integers(0, 4))
    def test_polynomial_draws(self, system, m):
        try:
            system.adapted_orders
        except DependentSections:
            return
        expected = _two_pass_profile(system, m)
        got = filtration_profile(system, m)
        assert got == expected
        assert list(got.dims.items()) == list(expected.dims.items())

    @pytest.mark.parametrize("top,kernel_dim", [
        ((0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1), 0),  # x_0 x_2 - x_1^2 = t^10
        ((0, 0, 1, 0, 0, 0, 0, 0, 0, 1), 0),  # = t^9
        ((0, 0, 1), 1),
    ], ids=["t10", "t9", "model"])
    def test_far_top_term(self, top, kernel_dim):
        # A top term far past the others counts in both passes.
        system = JetSystem(((1,), (0, 1), top))
        got = filtration_profile(system, 2)
        assert got.kernel_dim == kernel_dim
        expected = _two_pass_profile(system, 2)
        assert got == expected
        assert list(got.dims.items()) == list(expected.dims.items())

    def test_rows_built_once(self, monkeypatch):
        system = JetSystem(((1,), (0, 1), (0, 0, 1)))
        calls = _count_product_rows(monkeypatch)
        assert filtration_profile(system, 2).kernel_dim == 1
        assert calls == [2]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(3, 5), st.integers(1, 2), st.integers(2, 3), st.data())
    def test_saturated_columns_leave_the_profile(self, n, tail, m, data):
        # Sections t^j plus integer tails to t^(n + tail) are dense: their top
        # product columns fill, and the rows after are counted unread.  The
        # profile is still that of the pass that reads every row.
        system = JetSystem(tuple((0,) * j + (1,) + tuple(data.draw(st.lists(
            st.integers(-9, 9), min_size=n + tail - j, max_size=n + tail - j))) for j in range(n + 1)))
        with mock.patch.object(jets, "_read", wraps=_read) as read:
            got = filtration_profile(system, m)
        # Without the skip only the first row of each weight can go unread,
        # so fewer reads than that leaves means the skip fired.
        seq = system.adapted_orders
        weights = {sum(a * k for a, k in zip(seq, xi)) for xi in _product_rows(system, m)[0]}
        assume(read.call_count < comb(m + n, n) - len(weights))
        expected = _two_pass_profile(system, m)
        assert got == expected
        assert list(got.dims.items()) == list(expected.dims.items())

    def test_saturated_columns_are_not_read(self, monkeypatch):
        # The dense at-limit rank: the 8,008 degree-10 products of seven
        # dense sections fill all 91 columns long before the last row.
        calls = _count_reads(monkeypatch)
        assert sym_power_dim(perturbed_system(validate(range(7)), tail=3), 10) == 91
        assert len(calls) < 1000

    def test_first_row_of_a_weight_is_read_only_when_merged(self, monkeypatch):
        # Each product row leads at its weight with a nonzero coefficient, so
        # the first of a weight becomes a pivot unread; of the 20 cubic rows
        # of this system, 16 are read, each once.
        system = perturbed_system(validate([0, 1, 2, 3]), tail=3, seed=0)
        calls = _count_reads(monkeypatch)
        assert filtration_profile(system, 3) == _two_pass_profile(system, 3)
        assert len(calls) == 16
        assert len(set(calls)) == 16

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([perturbed_system, reparametrized_system]),
           st.lists(st.integers(1, 4), min_size=1, max_size=4),
           st.integers(1, 4), st.integers(0, 99), st.integers(0, 4))
    def test_seeded_systems(self, make, gaps, tail, seed, m):
        # The dense seeded systems the sweeps profile: merges of read rows
        # against unread pivots give the profile of the pass that reads all.
        system = make(validate([0, *accumulate(gaps)]), tail=tail, seed=seed)
        expected = _two_pass_profile(system, m)
        got = filtration_profile(system, m)
        assert got == expected
        assert list(got.dims.items()) == list(expected.dims.items())


def _count_reads(monkeypatch):
    # The (value, column) of each packed value read through jets.
    calls = []

    def counting(value, k, col, end):
        calls.append((value, col))
        return _read(value, k, col, end)

    monkeypatch.setattr(jets, "_read", counting)
    return calls


class TestFiltration:
    @settings(max_examples=40, deadline=None)
    @given(_jet_systems(), st.integers(1, 3), st.data())
    def test_change_of_basis_leaves_the_profile(self, system, m, data):
        # The profile belongs to the span: permuting and scaling the sections
        # and adding multiples of one to another read the same.
        try:
            system.adapted_orders
        except DependentSections:
            return
        width = system.poly_degree + 1
        sections = [[F(c) * data.draw(st.sampled_from([1, -1, 2, F(1, 3)])) for c in sec]
                    + [F(0)] * (width - len(sec)) for sec in system.sections]
        sections = data.draw(st.permutations(sections))
        for later in (True, False):  # two unit-triangular steps
            for j in range(len(sections)):
                for i in range(len(sections)):
                    c = data.draw(st.integers(-3, 3))
                    if (i > j) == later and i != j and c:
                        sections[j] = [x + c * y for x, y in zip(sections[j], sections[i])]
        changed = JetSystem(tuple(map(tuple, sections)))
        assert filtration_profile(changed, m) == filtration_profile(system, m)

    def test_monomial_model_attains_class_counts(self):
        for entries in [(0, 1, 2), (0, 1, 3), (0, 1, 2, 4)]:
            seq = validate(entries)
            for m in (2, 3):
                profile = filtration_profile(monomial_system(seq), m)
                counts = bigraded_dims(seq, m).weight_counts
                expected = {w: c - 1 for w, c in counts.items() if c > 1}
                assert profile.dims == expected
                assert profile.kernel_dim == sum(expected.values())

    def test_rank_nullity(self):
        # Relations and rank add up to the monomial count, with the rank
        # taken by sympy from the dense product matrix.
        for k in range(5):
            seq = validate([0, 1, 2, 4])
            system = perturbed_system(seq, tail=2, seed=k)
            for m in (2, 3):
                profile = filtration_profile(system, m)
                total = comb(m + seq.n, seq.n)
                assert sum(profile.dims.values()) == profile.kernel_dim
                assert total - profile.kernel_dim == _oracle_rank(system, m)

    def test_perturbed_within_model_bounds(self):
        seq = validate([0, 1, 2])
        counts = {m: bigraded_dims(seq, m).weight_counts for m in (2, 3)}
        for k in range(10):
            system = perturbed_system(seq, tail=3, seed=k)
            for m in (2, 3):
                profile = filtration_profile(system, m)
                for w, d in profile.dims.items():
                    assert d <= max(0, counts[m].get(w, 0) - 1)

    def test_dual_route_against_per_level_kernels(self):
        # Independent oracle: for each weight level, build the submatrix of
        # products of monomials with weight >= j and take its kernel
        # dimension directly; level sizes must match the incremental profile.
        from spanlab import adapted_basis, weight

        for entries, seed in [((0, 1, 3), 2), ((0, 1, 2, 4), 5)]:
            base = validate(entries)
            system = perturbed_system(base, tail=2, seed=seed)
            m = 3
            profile = filtration_profile(system, m)
            seq, _ = adapted_basis(system)
            n_coeffs = m * system.poly_degree + 1
            monos, rows = _sparse_rows(system, m)
            weights = sorted({weight(xi, seq) for xi in monos})

            def nullity_at_least(j):
                sub = [rows[i] for i, xi in enumerate(monos) if weight(xi, seq) >= j]
                return len(sub) - _sympy_rank(sub, n_coeffs) if sub else 0

            for idx, w in enumerate(weights):
                above = weights[idx + 1] if idx + 1 < len(weights) else w + 1
                expected = nullity_at_least(w) - nullity_at_least(above)
                assert profile.dims.get(w, 0) == expected, (entries, w)


class TestPropagation:
    def test_progression_model(self):
        report = check_ideal_propagation(monomial_system(ap_sequence(3, 1)), 2, 5)
        assert report.quotient_dims == {t: 3 * t + 1 for t in range(2, 6)}
        assert all(report.one_step_generates.values())

    def test_rows_built_once_per_degree(self, monkeypatch):
        # One pass per degree gives both the rank and the relations.
        calls = _count_product_rows(monkeypatch)
        check_ideal_propagation(monomial_system(ap_sequence(3, 1)), 2, 5)
        assert calls == [2, 3, 4, 5]

    def test_jump_model(self):
        report = check_ideal_propagation(monomial_system(near_ap_high(3, 1)), 2, 5)
        assert report.quotient_dims == {t: 4 * t for t in range(2, 6)}

    def test_hypothesis_rejects_cuspidal_cubic(self):
        with pytest.raises(HypothesisFailed):
            check_ideal_propagation(monomial_system(validate([0, 1, 3])), 2, 4)

    def test_hypothesis_reads_generator_degrees_without_a_lift(self, monkeypatch):
        # The hypothesis needs the generator degrees alone, which the sumset
        # masks give; the quadric lift is never run.
        def no_lift(level, below):
            raise AssertionError("quadric lift run")
        monkeypatch.setattr(monomial_ideal, "_lift", no_lift)
        with pytest.raises(HypothesisFailed, match=(
                r"^degree-3 relations of \(0, 1, 3\) are not generated in degree 2$")):
            check_ideal_propagation(monomial_system(validate([0, 1, 3])), 2, 4)
        assert check_ideal_propagation(monomial_system(ap_sequence(3, 1)), 2, 5).m == 2

    def test_hypothesis_rejects_non_maximal_system(self):
        system = JetSystem(((F(1),), (F(0), F(1)), (F(0), F(0), F(1), F(1))))
        assert not is_m_maximal(system, 2)
        with pytest.raises(HypothesisFailed):
            check_ideal_propagation(system, 2, 4)

    def test_reparametrized_system_transfers(self):
        seq = near_ap_high(3, 1)
        system = reparametrized_system(seq, tail=1, seed=3)
        assert any(len(sec) > a + 1 for a, sec in zip(seq, system.sections))
        report = check_ideal_propagation(system, 2, 4)
        assert report.quotient_dims == {t: span(seq, t) for t in range(2, 5)}
        assert all(report.one_step_generates.values())


class TestDegreeGenusEstimate:
    def test_frozen_examples(self):
        assert degree_genus_estimate(monomial_system(validate([0, 1, 2, 4])), 1, 4) == (4, 1)
        assert degree_genus_estimate(monomial_system(ap_sequence(4, 1)), 2, 5) == (4, 0)

    def test_reparametrized_jump_system(self):
        system = reparametrized_system(near_ap_high(3, 1), tail=1, seed=9)
        assert degree_genus_estimate(system, 2, 4) == (4, 1)

    def test_not_linear(self):
        # The dimensions are listed by ascending degree.
        seq = validate([0, 3, 5])
        dims = [span(seq, m) for m in (1, 2, 3)]
        with pytest.raises(NotLinearOnRange, match=rf"^dimensions \[{', '.join(map(str, dims))}\] on \[1; 3\]"):
            degree_genus_estimate(monomial_system(seq), 1, 3)

    def test_budget_checked_at_the_top_degree_first(self, monkeypatch):
        # The budget grows with the degree: an m_hi past it is refused, with
        # the message of that degree's rows, before any lower degree is built.
        system = monomial_system(validate(range(7)))
        calls = _count_product_rows(monkeypatch)
        with pytest.raises(EnumerationTooLarge) as exc:
            degree_genus_estimate(system, 1, 40)
        assert [m for m in calls if m < 40] == []
        with pytest.raises(EnumerationTooLarge) as direct:
            monomial_ideal._check_enumeration(40, 7, 40 * 6 + 1)
        assert str(exc.value) == str(direct.value)

    def test_rejects_short_range(self):
        with pytest.raises(ValueError):
            degree_genus_estimate(monomial_system(validate([0, 1, 2])), 2, 2)
