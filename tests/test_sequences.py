import pytest
from hypothesis import given, strategies as st

from spanlab import (
    NegativeEntry,
    NonPositiveFactor,
    NotStrictlyIncreasing,
    TooShort,
    VanishingSequence,
    from_text,
    inflection_weight,
    normalize,
    reverse,
    scale,
    translate,
    validate,
)


@st.composite
def sequences(draw, max_n=5, max_entry=40):
    n = draw(st.integers(1, max_n))
    entries = draw(st.lists(st.integers(0, max_entry), min_size=n + 1,
                            max_size=n + 1, unique=True))
    return validate(sorted(entries))


class TestValidate:
    def test_minimal(self):
        assert validate([0, 1, 2]).entries == (0, 1, 2)

    def test_not_increasing(self):
        with pytest.raises(NotStrictlyIncreasing):
            validate([0, 1, 1])

    def test_negative(self):
        with pytest.raises(NegativeEntry):
            validate([-1, 0, 2])

    def test_too_short(self):
        with pytest.raises(TooShort):
            validate([3])

    @pytest.mark.parametrize("n", range(2, 8))
    def test_jump_sequence_valid(self, n):
        seq = validate(list(range(n)) + [n + 1])
        assert seq.n == n


class TestTransforms:
    def test_translate(self):
        assert translate(validate([0, 1, 3]), 2).entries == (2, 3, 5)
        assert translate(validate([0, 1, 3]), 0).entries == (0, 1, 3)
        assert translate(validate([1, 2, 4]), -1).entries == (0, 1, 3)

    def test_translate_below_zero(self):
        with pytest.raises(NegativeEntry):
            translate(validate([0, 1, 3]), -1)

    def test_scale(self):
        assert scale(validate([0, 1, 3]), 2).entries == (0, 2, 6)
        assert scale(validate([0, 1, 3]), 1).entries == (0, 1, 3)

    def test_scale_bad_factor(self):
        with pytest.raises(NonPositiveFactor):
            scale(validate([0, 1, 3]), 0)

    def test_reverse(self):
        assert reverse(validate([0, 1, 3])).entries == (0, 2, 3)
        assert reverse(validate([0, 1, 2])).entries == (0, 1, 2)
        assert reverse(validate([0, 1, 2, 4])).entries == (0, 2, 3, 4)

    @given(sequences())
    def test_reverse_involution_up_to_translation(self, seq):
        back = reverse(reverse(seq))
        assert back.entries == tuple(a - seq[0] for a in seq)

    @given(sequences())
    def test_transforms_preserve_length(self, seq):
        assert len(translate(seq, 3)) == len(scale(seq, 2)) == len(reverse(seq)) == len(seq)


class TestNormalize:
    def test_examples(self):
        assert normalize(validate([2, 4, 8])) == (validate([0, 1, 3]), 2, 2)
        assert normalize(validate([0, 1, 3])) == (validate([0, 1, 3]), 0, 1)
        assert normalize(validate([3, 6, 9])) == (validate([0, 1, 2]), 3, 3)

    @given(sequences())
    def test_round_trip(self, seq):
        b, shift, factor = normalize(seq)
        assert translate(scale(b, factor), shift) == seq
        assert b[0] == 0

    @given(sequences())
    def test_idempotent(self, seq):
        b, _, _ = normalize(seq)
        b2, shift, factor = normalize(b)
        assert (b2, shift, factor) == (b, 0, 1)


class TestInflectionWeight:
    def test_identity_sequence(self):
        assert inflection_weight(validate([0, 1, 2, 3])) == 0

    @pytest.mark.parametrize("n", range(2, 9))
    def test_jump_sequence(self, n):
        assert inflection_weight(validate(list(range(n)) + [n + 1])) == 1

    def test_spread(self):
        assert inflection_weight(validate([0, 2, 4])) == 3

    @given(sequences())
    def test_zero_iff_identity(self, seq):
        expected = tuple(range(len(seq)))
        assert (inflection_weight(seq) == 0) == (seq.entries == expected)


def test_non_integer_text():
    # Text that is not integers is a parse error, not a sequence-shape error.
    with pytest.raises(ValueError):
        from_text("a,b")


def test_text_round_trip():
    seq = from_text("0,1,2,4")
    assert seq.entries == (0, 1, 2, 4)
    assert from_text(seq.to_text()) == seq


def test_frozen():
    seq = validate([0, 1, 2])
    with pytest.raises(AttributeError):
        seq.entries = (0, 1)
