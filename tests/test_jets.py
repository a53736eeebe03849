import random
import re
import time
from fractions import Fraction as F
from math import comb, gcd

import pytest
import sympy
from hypothesis import given, strategies as st
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix

from spanlab import (
    DegenerateWithinTruncation,
    EnumerationTooLarge,
    HypothesisFailed,
    JetSystem,
    NotLinearOnRange,
    TruncationMismatch,
    TruncationTooSmall,
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
from spanlab import _linalg, jets
from spanlab.jets import (
    FiltrationProfile, _pack, _product_rows, _profiles, _unpack, _working_truncations)


def _naive_mul(a, b, cap=None):
    n = len(a) + len(b) - 1 if a and b else 0
    out = [0] * (n if cap is None else cap)
    for i in range(len(a)):
        for j in range(len(b)):
            if i + j < len(out):
                out[i + j] += a[i] * b[j]
    return out


def _naive_row(secs, xi, n_coeffs):
    # The product of sec_i^k_i over the monomial xi, multiplied out anew and
    # cut below t^n_coeffs, with its zero entries dropped.
    expected = [1] + [0] * (n_coeffs - 1)
    for sec, k in zip(secs, xi):
        for _ in range(k):
            expected = _naive_mul(expected, sec, n_coeffs)
    return {c: v for c, v in enumerate(expected) if v}


def _sympy_rank(rows, width):
    # Rank over the integers of sparse rows {column: value}, made dense.
    return DomainMatrix.from_list([[row.get(c, 0) for c in range(width)] for row in rows], ZZ).rank()


def _oracle_rank(system, m):
    # Rank of the dense degree-m product matrix of a polynomial system, its
    # rows multiplied out anew and ranked by sympy.
    secs = system.integer_sections
    n_coeffs = m * system.poly_degree + 1
    return _sympy_rank([_naive_row(secs, xi, n_coeffs)
                        for xi in monomials_of_degree(m, len(secs))], n_coeffs)


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
    def test_integer_sections_scale_by_the_lcm(self, sections):
        # Each section times the lcm of its denominators, the lcm taken
        # here pairwise through gcd.
        system = JetSystem(tuple(map(tuple, sections)))
        for sec, ints in zip(system.sections, system.integer_sections):
            d = 1
            for c in sec:
                d = d * c.denominator // gcd(d, c.denominator)
            assert ints == tuple(int(c * d) for c in sec)
            assert all(type(v) is int for v in ints)

    @pytest.mark.parametrize("text", ["1e1000000000", "1E5", "-2.5e-3", "1/1e9"])
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
    # slot width.  Some systems declare a truncation above their sections.
    nsecs = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(["int", "fraction", "tight"]))
    if kind == "tight":
        c = draw(st.integers(1, 2 ** 40)) * draw(st.sampled_from([1, -1]))
        sections = [(0,) * draw(st.integers(0, 5)) + (c,) for _ in range(nsecs)]
    else:
        entries = (st.integers(-(2 ** 20), 2 ** 20) if kind == "int"
                   else st.fractions(min_value=-9, max_value=9, max_denominator=9))
        sections = [tuple(draw(st.lists(entries, max_size=6))) for _ in range(nsecs)]
    longest = max(map(len, sections))
    truncation = draw(st.none() | st.integers(max(longest, 1), longest + 4))
    return JetSystem(tuple(sections), truncation=truncation)


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
        # Each row is the truncated product of sec_i^k_i over its monomial,
        # without zero entries; rows come in monomials_of_degree order.
        system = make(validate(entries), seed=seed)
        secs = system.integer_sections
        for m in range(4):
            for n_coeffs in (m * entries[-1] + 1, m * system.poly_degree + 1):
                monos, rows = _product_rows(system, m, n_coeffs)
                assert monos == list(monomials_of_degree(m, len(secs)))
                for xi, row in zip(monos, rows):
                    assert row == _naive_row(secs, xi, n_coeffs), (xi, n_coeffs)

    @given(_jet_systems(), st.integers(0, 4), st.data())
    def test_packed_rows_match_naive_products(self, system, m, data):
        secs = system.integer_sections
        top = max(map(len, secs))
        cap = m * top + 2 if system.truncation is None else system.truncation
        n_coeffs = data.draw(st.integers(1, cap))
        monos, rows = _product_rows(system, m, n_coeffs)
        assert monos == list(monomials_of_degree(m, len(secs)))
        for xi, row in zip(monos, rows):
            assert row == _naive_row(secs, xi, n_coeffs), (xi, n_coeffs)

    def test_row_width_counts_against_the_enumeration_budget(self):
        # (1, t^200) has only 201 monomials of degree 200, but their rows
        # have 40,001 coefficients each.
        system = JetSystem(((F(1),), (F(0),) * 200 + (F(1),)))
        with pytest.raises(EnumerationTooLarge, match="exceed the limit"):
            sym_power_dim(system, 200)

    @given(st.integers(2, 40), st.data())
    def test_pack_round_trip_across_the_halving(self, k, data):
        # Values of more than 64 slots are packed and read in halves, so a
        # borrow must cross each cut; digits reach both ends of |c| < 2^(k-1).
        top = 2 ** (k - 1) - 1
        digits = st.sampled_from([0, top, -top, -1, 1]) | st.integers(-top, top)
        coeffs = data.draw(st.lists(digits, min_size=65, max_size=300))
        n_coeffs = data.draw(st.integers(1, len(coeffs) + 2))
        expected = {i: c for i, c in enumerate(coeffs[:n_coeffs]) if c}
        assert _unpack(_pack(coeffs, k), k, n_coeffs) == expected

    def test_rows_longer_than_one_shift_loop(self):
        rng = random.Random(5)
        secs = ((1,) + tuple(rng.randint(-9, 9) for _ in range(89)),
                (0, 1) + tuple(rng.randint(-9, 9) for _ in range(88)))
        system = JetSystem(secs)
        for m in (1, 2, 3):
            for n_coeffs in (64, 65, 129, 130, m * 89 + 1):
                monos, rows = _product_rows(system, m, n_coeffs)
                for xi, row in zip(monos, rows):
                    assert row == _naive_row(secs, xi, n_coeffs), (xi, n_coeffs)


def _order(coeffs):
    return next((i for i, c in enumerate(coeffs) if c), None)


def _sympy_rref(system):
    # Pivot columns and nonzero rows of the reduced row echelon form of the
    # sections, zero-padded to the known coefficients.
    width = system._known_coeffs
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
        with pytest.raises(DegenerateWithinTruncation):
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

    @pytest.mark.parametrize("truncation,message", [
        (None, "^sections are linearly dependent$"),
        (3, "order >= 3; raise the truncation"),
    ], ids=["polynomial", "truncated"])
    def test_dependent_sections(self, truncation, message):
        # Raises on every call: a failed triangularization is not cached.
        # Only a truncated system has a truncation to raise.
        system = JetSystem(((F(1),), (F(0), F(1)), (F(0), F(3))), truncation=truncation)
        for _ in range(2):
            with pytest.raises(DegenerateWithinTruncation, match=message):
                adapted_basis(system)
            with pytest.raises(DegenerateWithinTruncation, match=message):
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
        system = JetSystem(system.sections)
        secs = system.integer_sections
        width = max(map(len, secs))
        independent = width and _sympy_rank(
            [dict(enumerate(sec)) for sec in secs], width) == len(secs)
        if m and not independent:
            with pytest.raises(DegenerateWithinTruncation):
                sym_power_dim(system, m)
        else:
            assert sym_power_dim(system, m) == _oracle_rank(system, m)


class TestTruncatedMode:
    def test_explicit_truncation_accepted(self):
        system = JetSystem(((F(1),), (F(0), F(1)), (F(0), F(0), F(1))), truncation=30)
        assert sym_power_dim(system, 2) == 5

    def test_too_small(self):
        system = JetSystem(((F(1),), (F(0), F(1)), (F(0), F(0), F(1))), truncation=6)
        with pytest.raises(TruncationTooSmall):
            sym_power_dim(system, 3)

    def test_section_beyond_truncation_rejected(self):
        with pytest.raises(TruncationMismatch):
            JetSystem(((F(1),), (F(0), F(1), F(1))), truncation=2)

    def test_rank_invariant_under_raising_truncation(self):
        # The same sections at any sufficient truncation give the same rank.
        sections = perturbed_system(validate([0, 1, 3]), tail=2, seed=4).sections
        exact = sym_power_dim(JetSystem(sections), 2)
        for truncation in (20, 35, 60):
            assert sym_power_dim(JetSystem(sections, truncation=truncation), 2) == exact

    def test_unstable_under_raising_the_truncation(self):
        # At m = 2 the working truncations are 9 and 11: only at 11 does the
        # t^10 term set x_0 x_2 = t^2 + t^10 apart from x_1^2 = t^2.
        sections = ((1,), (0, 1), (0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1))
        system = JetSystem(sections, truncation=11)
        rank_message = re.escape(
            "rank unstable under raising the truncation ([5, 6]); supply more coefficients")
        with pytest.raises(TruncationTooSmall, match=rank_message):
            sym_power_dim(system, 2)
        with pytest.raises(TruncationTooSmall, match="filtration unstable under raising the truncation"):
            filtration_profile(system, 2)
        with pytest.raises(TruncationTooSmall, match=rank_message):
            check_ideal_propagation(system, 2, 3)
        assert sym_power_dim(JetSystem(sections), 2) == 6

    def test_adapted_basis_guard_band(self):
        # With a guard the near-truncation order is treated as unresolved.
        system = JetSystem(((F(1),), (F(0), F(1)), (F(0), F(1), F(0), F(1))), truncation=4)
        seq, _ = adapted_basis(system)
        assert seq.entries == (0, 1, 3)
        # The guarded call reuses the orders the first call cached.
        with pytest.raises(DegenerateWithinTruncation):
            adapted_basis(system, guard=1)

    def test_truncated_basis_matches_sympy_rref(self):
        # The basis spans all stored coefficients; a guard only decides
        # whether the top order is trusted.
        system = JetSystem(((F(1), F(2)), (F(0), F(1), F(1)), (F(0), F(1), F(0), F(1))),
                           truncation=6)
        assert _check_against_rref(system)
        seq, basis = adapted_basis(system, guard=3)
        assert seq.entries == (0, 1, 2)
        assert basis == _sympy_rref(system)[1]
        assert all(len(b) == 6 for b in basis)
        with pytest.raises(DegenerateWithinTruncation, match="order >= 2"):
            adapted_basis(system, guard=4)


def _count_product_rows(monkeypatch):
    # The (degree, cut) of each _product_rows call made through jets.
    calls = []

    def counting(system, m, n_coeffs):
        calls.append((m, n_coeffs))
        return _product_rows(system, m, n_coeffs)

    monkeypatch.setattr(jets, "_product_rows", counting)
    return calls


def _two_pass_profile(system, m, n_coeffs):
    # The profile of the rows cut at n_coeffs, eliminated on their own: by
    # descending weight, each row that leaves the rank unchanged is a relation.
    seq = system.adapted_orders
    monos, rows = _product_rows(system, m, n_coeffs)
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
    # _profiles eliminates the rows once, cut at the highest working
    # truncation, and reads the lower cut from the pivots' leading columns;
    # a pass per cut must agree with it, dims in the same order.
    @staticmethod
    def check(system, m):
        expected = [_two_pass_profile(system, m, cut) for cut in _working_truncations(system, m)]
        got = _profiles(system, m)
        assert got == expected
        assert [list(p.dims.items()) for p in got] == [list(p.dims.items()) for p in expected]

    @given(_jet_systems(), st.integers(0, 4), st.integers(0, 24))
    def test_truncated_draws(self, system, m, raise_by):
        # The draw's truncation, raised so that higher degrees fit in it.
        if system.truncation is None:
            return
        system = JetSystem(system.sections, truncation=system.truncation + raise_by)
        try:
            _working_truncations(system, m)
        except (DegenerateWithinTruncation, TruncationTooSmall):
            return
        self.check(system, m)

    @pytest.mark.parametrize("top", [
        (0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1),  # x_0 x_2 - x_1^2 = t^10: ranks [5, 6]
        (0, 0, 1, 0, 0, 0, 0, 0, 0, 1),  # = t^9, a pivot leading at the lower cut
    ])
    def test_relation_lost_above_the_lower_cut(self, top):
        system = JetSystem(((1,), (0, 1), top), truncation=11)
        assert _working_truncations(system, 2) == (9, 11)
        self.check(system, 2)
        assert [p.kernel_dim for p in _profiles(system, 2)] == [1, 0]

    def test_rows_built_once(self, monkeypatch):
        system = JetSystem(((1,), (0, 1), (0, 0, 1)), truncation=30)
        calls = _count_product_rows(monkeypatch)
        assert filtration_profile(system, 2).kernel_dim == 1
        assert calls == [(2, 11)]


class TestFiltration:
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
            monos, rows = _product_rows(system, m, n_coeffs)
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
        assert [m for m, _ in calls] == [2, 3, 4, 5]

    def test_jump_model(self):
        report = check_ideal_propagation(monomial_system(near_ap_high(3, 1)), 2, 5)
        assert report.quotient_dims == {t: 4 * t for t in range(2, 6)}

    def test_hypothesis_rejects_cuspidal_cubic(self):
        with pytest.raises(HypothesisFailed):
            check_ideal_propagation(monomial_system(validate([0, 1, 3])), 2, 4)

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
        with pytest.raises(NotLinearOnRange):
            degree_genus_estimate(monomial_system(validate([0, 3, 5])), 1, 3)

    def test_rejects_short_range(self):
        with pytest.raises(ValueError):
            degree_genus_estimate(monomial_system(validate([0, 1, 2])), 2, 2)
