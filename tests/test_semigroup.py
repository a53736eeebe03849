from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from spanlab import (
    EmptyGenerators,
    GcdNotOne,
    SemigroupTooLarge,
    curve_invariants,
    hilbert_polynomial,
    near_ap_high,
    normalized_sequences,
    reverse,
    semigroup_of,
    span,
    span_sequence,
    stabilization_threshold,
    validate,
)
from spanlab.semigroup import MAX_GAPS, MAX_SMALLEST_GENERATOR


def brute_force_gaps(gens, bound=200):
    """Independent oracle: subset-sum reachability up to a fixed bound."""
    reach = {0}
    frontier = {0}
    while frontier:
        nxt = {r + g for r in frontier for g in gens if r + g <= bound}
        frontier = nxt - reach
        reach |= nxt
    return [k for k in range(1, bound + 1) if k not in reach]


def sieve_gaps(gens):
    """Oracle: sieve of representable integers, extended until a run of
    min(gens) consecutive representable integers closes it."""
    gens = sorted(set(gens))
    bound = 2 * gens[-1]
    while True:
        representable = bytearray(bound + 1)
        representable[0] = 1
        run = 0
        for i in range(1, bound + 1):
            if any(i >= g and representable[i - g] for g in gens):
                representable[i] = 1
                run += 1
                if run == gens[0]:
                    return [j for j in range(1, i + 1) if not representable[j]]
            else:
                run = 0
        bound *= 2


class TestSemigroupOf:
    def test_frozen_examples(self):
        assert semigroup_of([2, 3]).gaps == (1,)
        assert semigroup_of([2, 3]).frobenius == 1
        assert semigroup_of([1]).gaps == ()
        assert semigroup_of([1]).frobenius == -1
        assert semigroup_of([3, 5]).gaps == (1, 2, 4, 7)
        assert semigroup_of([3, 5]).frobenius == 7

    @pytest.mark.parametrize("gens", [(2, 5), (3, 7), (4, 5, 6), (3, 10), (5, 7, 9), (6, 7, 8, 9)])
    def test_matches_brute_force(self, gens):
        sg = semigroup_of(gens)
        oracle = brute_force_gaps(gens)
        assert list(sg.gaps) == oracle

    def test_gcd_not_one(self):
        with pytest.raises(GcdNotOne):
            semigroup_of([2, 4])

    def test_empty(self):
        with pytest.raises(EmptyGenerators):
            semigroup_of([])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 60), min_size=1, max_size=5))
    def test_matches_sieve(self, gens):
        assume(gcd(*gens) == 1)
        sg = semigroup_of(gens)
        oracle = sieve_gaps(gens)
        assert list(sg.gaps) == oracle
        assert sg.frobenius == (oracle[-1] if oracle else -1)

    def test_smallest_generator_limit(self):
        with pytest.raises(SemigroupTooLarge):
            semigroup_of([MAX_SMALLEST_GENERATOR + 1, MAX_SMALLEST_GENERATOR + 2])
        assert semigroup_of([MAX_SMALLEST_GENERATOR, 1]).gaps == ()

    def test_gap_count_limit(self):
        # Two coprime generators a < b leave (a - 1)(b - 1)/2 gaps.
        with pytest.raises(SemigroupTooLarge):
            semigroup_of([1009, 2003])
        assert (1009 - 1) * (2003 - 1) // 2 > MAX_GAPS
        assert len(semigroup_of([1009, 1013]).gaps) == (1009 - 1) * (1013 - 1) // 2


class TestCurveInvariants:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 40), min_size=2, max_size=5, unique=True))
    def test_gap_counts_match_sieve(self, entries):
        seq = validate(sorted(entries))
        inv = curve_invariants(seq)
        b = [a - seq[0] for a in seq]
        g = gcd(*b)
        b = [a // g for a in b]
        assert inv.gaps_at_zero == len(sieve_gaps(b[1:]))
        assert inv.gaps_at_infinity == len(sieve_gaps([b[-1] - a for a in b[:-1]]))

    def test_cuspidal_cubic(self):
        inv = curve_invariants(validate([0, 1, 3]))
        assert (inv.degree, inv.gaps_at_zero, inv.gaps_at_infinity) == (3, 0, 1)
        assert inv.arithmetic_genus == 1

    @pytest.mark.parametrize("n", range(1, 7))
    def test_identity_sequence_genus_zero(self, n):
        inv = curve_invariants(validate(list(range(n + 1))))
        assert (inv.degree, inv.arithmetic_genus) == (n, 0)

    def test_quartic_example(self):
        inv = curve_invariants(validate([0, 1, 2, 4]))
        assert (inv.degree, inv.gaps_at_zero, inv.gaps_at_infinity) == (4, 0, 1)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_jump_sequence(self, n):
        inv = curve_invariants(near_ap_high(n, 1))
        assert (inv.degree, inv.arithmetic_genus) == (n + 1, 1)

    def test_normalization_applied(self):
        assert curve_invariants(validate([2, 4, 8])) == curve_invariants(validate([0, 1, 3]))

    @pytest.mark.parametrize("entries", [(0, 1, 3), (0, 2, 5), (0, 3, 5, 7), (0, 1, 2, 4)])
    def test_reverse_swaps_gap_counts(self, entries):
        fwd = curve_invariants(validate(entries))
        bwd = curve_invariants(reverse(validate(entries)))
        assert (bwd.gaps_at_zero, bwd.gaps_at_infinity) == (fwd.gaps_at_infinity, fwd.gaps_at_zero)
        assert bwd.degree == fwd.degree

    def test_genus_zero_characterization_exhaustive(self):
        # Genus vanishes exactly when both end differences are 1 (the
        # parametrization is unramified at both special points); (0,1,3,4)
        # shows this is strictly weaker than being (0,1,...,n).
        assert curve_invariants(validate([0, 1, 3, 4])).arithmetic_genus == 0
        for seq in normalized_sequences(1, 5, 10):
            genus = curve_invariants(seq).arithmetic_genus
            smooth_ends = seq[1] == 1 and seq[-1] - seq[-2] == 1
            assert (genus == 0) == smooth_ends, seq.entries


class TestHilbert:
    def test_frozen_examples(self):
        assert hilbert_polynomial(validate([0, 1, 3])) == (3, 0)
        assert hilbert_polynomial(validate([0, 1, 2, 4])) == (4, 0)
        assert hilbert_polynomial(validate([0, 1, 2, 3])) == (3, 1)

    def test_progression_line(self):
        for n in range(1, 6):
            assert hilbert_polynomial(validate(list(range(n + 1)))) == (n, 1)

    def test_stabilization_examples(self):
        assert stabilization_threshold(validate([0, 1, 2, 4])) == 1
        assert stabilization_threshold(validate([0, 1, 2, 3])) == 1

    def test_stabilization_sparse_example(self):
        seq = validate([0, 3, 5])
        lead, const = hilbert_polynomial(seq)
        assert (lead, const) == (5, -5)
        threshold = stabilization_threshold(seq)
        assert threshold is not None
        for m in range(threshold, 4 * lead + 1):
            assert span(seq, m) == lead * m + const

    def test_not_stabilized_within_tiny_cap(self):
        # (0,3,5) misses its line at m = 2 (span 6 vs 5), so a cap of 2
        # must report no threshold rather than extrapolate.
        assert span(validate([0, 3, 5]), 2) == 6
        assert stabilization_threshold(validate([0, 3, 5]), m_cap=2) is None

    def test_spans_match_line_beyond_threshold(self):
        for seq in normalized_sequences(1, 3, 7):
            lead, const = hilbert_polynomial(seq)
            cap = 4 * lead
            threshold = stabilization_threshold(seq, cap)
            assert threshold is not None, seq.entries
            spans = span_sequence(seq, cap)
            assert all(spans[m - 1] == lead * m + const for m in range(threshold, cap + 1))
