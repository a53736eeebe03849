from itertools import combinations_with_replacement
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from spanlab import (
    SumsetTooLarge,
    Verdict,
    chain_values,
    classify,
    power_sumset,
    reverse,
    scale,
    span,
    span_sequence,
    translate,
    validate,
)
from spanlab.span import MAX_SUMSET_BITS, MAX_SUMSET_WORK


def brute_force_sums(entries, m):
    """Independent oracle: enumerate all multisets of size m."""
    return sorted({sum(c) for c in combinations_with_replacement(entries, m)})


@st.composite
def seq_and_m(draw):
    n = draw(st.integers(1, 4))
    entries = sorted(draw(st.lists(st.integers(0, 25), min_size=n + 1,
                                   max_size=n + 1, unique=True)))
    return validate(entries), draw(st.integers(1, 4))


class TestPowerSumset:
    def test_frozen_examples(self):
        assert power_sumset(validate([0, 1, 3]), 2).values == (0, 1, 2, 3, 4, 6)
        assert power_sumset(validate([0, 1, 2, 4]), 2).values == (0, 1, 2, 3, 4, 5, 6, 8)
        assert power_sumset(validate([0, 1, 3]), 1).values == (0, 1, 3)

    @given(seq_and_m())
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, data):
        seq, m = data
        assert list(power_sumset(seq, m).values) == brute_force_sums(seq.entries, m)

    @given(seq_and_m())
    @settings(max_examples=40, deadline=None)
    def test_extremes(self, data):
        seq, m = data
        values = power_sumset(seq, m).values
        assert values[0] == m * seq[0]
        assert values[-1] == m * seq[-1]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            power_sumset(validate([0, 1]), 0)


class TestSpan:
    def test_frozen_examples(self):
        assert span(validate([0, 1, 2, 3]), 2) == 7
        assert span(validate([0, 1, 2, 4]), 2) == 8
        assert span(validate([0, 1, 3]), 2) == 6

    @given(seq_and_m())
    @settings(max_examples=60, deadline=None)
    def test_bounds(self, data):
        seq, m = data
        s = span(seq, m)
        n = seq.n
        assert m * n + 1 <= s <= min(comb(m + n, n), m * (seq[-1] - seq[0]) + 1)

    @given(seq_and_m())
    @settings(max_examples=40, deadline=None)
    def test_strictly_monotone_in_m(self, data):
        seq, m = data
        assert span(seq, m + 1) > span(seq, m)

    def test_span_sequence_consistent(self):
        seq = validate([0, 2, 5])
        assert span_sequence(seq, 6) == [span(seq, m) for m in range(1, 7)]

    def test_sumset_bits_limit(self):
        # m * a_n may reach the limit but not pass it, whatever the entry point.
        half = validate([0, 1, MAX_SUMSET_BITS // 2])
        assert span(half, 2) == 6
        assert span_sequence(half, 2) == [3, 6]
        for call in (lambda: span(half, 3), lambda: power_sumset(half, 3),
                     lambda: span_sequence(half, 3)):
            with pytest.raises(SumsetTooLarge):
                call()

    def test_sumset_work_limit(self):
        # (n+1) * m * (m * a_n) may reach the limit but not pass it: (0, 1)
        # meets it at m = 100,000, far below the limit on m * a_n.
        pair, m = validate([0, 1]), 100_000
        assert 2 * m * m == MAX_SUMSET_WORK
        assert span(pair, m) == m + 1
        for call in (span, power_sumset, span_sequence):
            with pytest.raises(SumsetTooLarge, match="bits of work for the 100001-fold sums exceed"):
                call(pair, m + 1)

    @pytest.mark.parametrize("call", [span, power_sumset, span_sequence])
    def test_sumset_bits_message(self, call):
        # 3 * 333,334 = 1,000,002: the top bit and m in full.
        with pytest.raises(SumsetTooLarge) as exc:
            call(validate([0, 1, 3]), 333_334)
        assert str(exc.value) == "1000002 bits for the 333334-fold sums exceed the limit of 1000000"

    @pytest.mark.parametrize("call", [span, power_sumset, span_sequence])
    def test_sumset_past_every_writable_m(self, call):
        # m has more digits than Python writes as text: it reads about
        # 10^k too, and the error stays typed.
        with pytest.raises(SumsetTooLarge) as exc:
            call(validate([0, 1, 3]), 10 ** 4400)
        assert str(exc.value) == "about 10^4400 bits for the about 10^4400-fold sums exceed the limit of 1000000"

    @given(seq_and_m())
    @settings(max_examples=40, deadline=None)
    def test_invariance(self, data):
        seq, m = data
        s = span(seq, m)
        assert span(translate(seq, 3), m) == s
        assert span(scale(seq, 3), m) == s
        assert span(reverse(seq), m) == s


class TestChainValues:
    def test_frozen_examples(self):
        assert chain_values(validate([0, 1, 2]), 2) == [0, 1, 2, 3, 4]
        assert chain_values(validate([0, 1, 3]), 2) == [0, 1, 3, 4, 6]

    @given(seq_and_m())
    @settings(max_examples=60, deadline=None)
    def test_chain_inside_sumset(self, data):
        seq, m = data
        chain = chain_values(seq, m)
        assert len(chain) == m * seq.n + 1
        assert all(a < b for a, b in zip(chain, chain[1:]))
        assert set(chain) <= set(power_sumset(seq, m).values)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_progression_chain_is_everything(self, d, m):
        seq = validate([0, d, 2 * d, 3 * d])
        assert chain_values(seq, m) == list(power_sumset(seq, m).values)


class TestClassify:
    def test_frozen_examples(self):
        c = classify(validate([0, 1, 2, 4]), 3)
        assert (c.span, c.verdict, c.step) == (12, Verdict.NEAR_AP_HIGH, 1)
        c = classify(validate([0, 2, 3, 4]), 2)
        assert (c.span, c.verdict, c.step) == (8, Verdict.NEAR_AP_LOW, 1)
        c = classify(validate([0, 1, 4, 5]), 2)
        assert (c.span, c.verdict, c.step) == (9, Verdict.GENERIC, None)

    def test_progression(self):
        c = classify(validate([0, 2, 4, 6]), 3)
        assert (c.verdict, c.step, c.span) == (Verdict.ARITHMETIC_PROGRESSION, 2, 10)

    def test_two_entry_sequences_are_progressions(self):
        assert classify(validate([0, 7]), 2).verdict == Verdict.ARITHMETIC_PROGRESSION

    def test_m_one_degenerate(self):
        c = classify(validate([0, 1, 4, 5]), 1)
        assert c.span == 4

    def test_length_three_near_shapes(self):
        assert classify(validate([0, 1, 3]), 2).verdict == Verdict.NEAR_AP_HIGH
        assert classify(validate([0, 2, 3]), 2).verdict == Verdict.NEAR_AP_LOW
