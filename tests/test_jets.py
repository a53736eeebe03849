from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import given, strategies as st

from spanlab import (
    DegenerateWithinTruncation,
    HypothesisFailed,
    JetSystem,
    NotLinearOnRange,
    TruncatedSeries,
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
    near_ap_high,
    normalized_sequences,
    perturbed_system,
    reparametrized_system,
    span,
    sym_power_dim,
    validate,
)
from spanlab.jets import _mul


class TestTruncatedSeries:
    def test_zero_order(self):
        zero = TruncatedSeries((F(0),) * 3)
        assert zero.order() is None
        assert zero.is_zero()
        assert zero.truncation == 3


def _naive_mul(a, b, cap):
    n = len(a) + len(b) - 1 if a and b else 0
    out = [0] * (n if cap is None else cap)
    for i in range(len(a)):
        for j in range(len(b)):
            if i + j < len(out):
                out[i + j] += a[i] * b[j]
    return out


_ints = st.lists(st.integers(-20, 20), max_size=8)
_fractions = st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=7), max_size=8)
_caps = st.none() | st.integers(0, 12)


class TestMul:
    @given(_ints, _ints, _caps)
    def test_matches_double_loop_on_ints(self, a, b, cap):
        assert _mul(a, b, cap) == _naive_mul(a, b, cap)

    @given(_fractions, _fractions, _caps)
    def test_matches_double_loop_on_fractions(self, a, b, cap):
        assert _mul(a, b, cap) == _naive_mul(a, b, cap)


class TestAdaptedBasis:
    def test_monomial_sections(self):
        seq, basis = adapted_basis(monomial_system(validate([0, 1, 2])))
        assert seq.entries == (0, 1, 2)
        for a, b in zip(seq, basis):
            assert b.order() == a
            assert b.coefficients[a] == 1

    def test_order_collision_eliminated(self):
        system = JetSystem(((F(1),), (F(0), F(1), F(1)), (F(0), F(1))))
        seq, basis = adapted_basis(system)
        assert seq.entries == (0, 1, 2)
        for a, b in zip(seq, basis):
            assert b.order() == a
            assert b.coefficients[a] == 1

    def test_dependent_sections(self):
        # Raises on every call: a failed triangularization is not cached.
        system = JetSystem(((F(1),), (F(0), F(1)), (F(0), F(3))))
        for _ in range(2):
            with pytest.raises(DegenerateWithinTruncation):
                adapted_basis(system)
            with pytest.raises(DegenerateWithinTruncation):
                sym_power_dim(system, 2)

    def test_orders_match_basis(self):
        for k in range(3):
            system = perturbed_system(validate([0, 2, 3, 7]), tail=3, seed=k)
            assert system.adapted_orders == adapted_basis(system)[0]

    def test_unsorted_orders(self):
        system = JetSystem(((F(0), F(0), F(1)), (F(1),), (F(0), F(2))))
        seq, basis = adapted_basis(system)
        assert seq.entries == (0, 1, 2)
        assert all(b.coefficients[a] == 1 for a, b in zip(seq, basis))


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

    def test_adapted_basis_guard_band(self):
        # With a guard the near-truncation order is treated as unresolved.
        system = JetSystem(((F(1),), (F(0), F(1)), (F(0), F(1), F(0), F(1))), truncation=4)
        seq, _ = adapted_basis(system)
        assert seq.entries == (0, 1, 3)
        # The guarded call reuses the orders the first call cached.
        with pytest.raises(DegenerateWithinTruncation):
            adapted_basis(system, guard=1)


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
        for k in range(5):
            seq = validate([0, 1, 2, 4])
            system = perturbed_system(seq, tail=2, seed=k)
            for m in (2, 3):
                profile = filtration_profile(system, m)
                total = comb(m + seq.n, seq.n)
                assert sum(profile.dims.values()) == profile.kernel_dim
                assert total - profile.kernel_dim == sym_power_dim(system, m)

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
        from spanlab._linalg import left_kernel_basis
        from spanlab.jets import _product_rows
        from spanlab import adapted_basis, monomials_of_degree, weight

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
                if not sub:
                    return 0
                return len(left_kernel_basis(sub, n_coeffs))

            for idx, w in enumerate(weights):
                above = weights[idx + 1] if idx + 1 < len(weights) else w + 1
                expected = nullity_at_least(w) - nullity_at_least(above)
                assert profile.dims.get(w, 0) == expected, (entries, w)


class TestPropagation:
    def test_progression_model(self):
        report = check_ideal_propagation(monomial_system(ap_sequence(3, 1)), 2, 5)
        assert report.quotient_dims == {t: 3 * t + 1 for t in range(2, 6)}
        assert all(report.one_step_generates.values())

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
