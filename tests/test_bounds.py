import sys

import pytest

from spanlab import (
    CountTooLarge,
    ap_sequence,
    check_weight_budget,
    max_hypersurfaces,
    monomial_system,
    near_ap_high,
    next_hypersurface_bound,
    pluecker_budget,
    quadric_bound,
    sym_power_dim,
)
from math import comb

from spanlab import bounds


class TestFormulas:
    def test_max_hypersurfaces(self):
        assert max_hypersurfaces(3, 2) == 3
        assert max_hypersurfaces(2, 2) == 1
        assert max_hypersurfaces(4, 2) == 6

    def test_next_bound(self):
        assert next_hypersurface_bound(3, 2) == 2
        assert next_hypersurface_bound(4, 2) == 5
        assert next_hypersurface_bound(2, 3) == 1

    def test_quadric_bound(self):
        assert quadric_bound(2) == 3
        assert quadric_bound(1) == 1
        assert quadric_bound(5) == 15

    def test_pluecker_budget(self):
        assert pluecker_budget(3, 4, 1) == 16
        assert pluecker_budget(2, 3, 1) == 9
        for n in range(1, 8):
            assert pluecker_budget(n, n, 0) == 0

    def test_preconditions(self):
        with pytest.raises(ValueError):
            max_hypersurfaces(0, 2)
        with pytest.raises(ValueError):
            next_hypersurface_bound(1, 2)
        with pytest.raises(ValueError):
            quadric_bound(0)
        with pytest.raises(ValueError):
            pluecker_budget(1, 0, 0)


class TestWeightBudget:
    def test_sixteen_simple_inflections(self):
        assert check_weight_budget(3, 4, 1, [1] * 16)

    def test_empty_for_rational_normal(self):
        assert check_weight_budget(4, 4, 0, [])

    def test_mismatch(self):
        assert not check_weight_budget(3, 4, 1, [1] * 15)

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            check_weight_budget(3, 4, 1, [0] * 16)


class TestConsistency:
    def test_curve_case_equals_quadric_bound(self):
        for n in range(2, 21):
            assert max_hypersurfaces(n, 2) == quadric_bound(n - 1)

    def test_next_bound_one_below(self):
        for n in range(3, 21):
            assert next_hypersurface_bound(n, 2) == quadric_bound(n - 1) - 1

    @pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (3, 3), (4, 2)])
    def test_progression_jets_attain_max(self, n, m):
        dim = sym_power_dim(monomial_system(ap_sequence(n, 1)), m)
        assert comb(m + n, n) - dim == max_hypersurfaces(n, m)

    @pytest.mark.parametrize("n,m", [(3, 2), (3, 3), (4, 2), (5, 2)])
    def test_jump_jets_attain_next(self, n, m):
        dim = sym_power_dim(monomial_system(near_ap_high(n, 1)), m)
        assert comb(m + n, n) - dim == next_hypersurface_bound(n, m)


class TestCountLimit:
    @pytest.mark.parametrize("n", [2, 3, 10, 100, 3000])
    def test_refused_exactly_past_the_digit_limit(self, n):
        # Around the least m with C(m+n, n) >= 10^limit, each count is its
        # formula while it has at most `limit` digits, and refused past that.
        limit = sys.get_int_max_str_digits()
        lo, hi = 2, 2
        while comb(hi + n, n) < 10 ** limit:
            hi *= 2
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if comb(mid + n, n) >= 10 ** limit else (mid + 1, hi)
        for m in range(max(2, lo - 3), lo + 4):
            for count, less in ((max_hypersurfaces, m * n + 1), (next_hypersurface_bound, m * (n + 1))):
                want = comb(m + n, n) - less
                if want < 10 ** limit:
                    assert count(n, m) == want
                else:
                    with pytest.raises(CountTooLarge, match=f"digits of C\\({m + n}, {n}\\) exceed "
                                                            f"the limit of {limit}$"):
                        count(n, m)

    def test_pluecker_counts_refused_exactly_past_the_digit_limit(self):
        # At n = 1, g = 1 the budget is 2d: 10^limit - 2 has `limit` digits
        # and is answered, 10^limit is refused; so is a weight sum of 10^limit.
        limit = sys.get_int_max_str_digits()
        d = 5 * 10 ** (limit - 1) - 1
        assert pluecker_budget(1, d, 1) == 10 ** limit - 2
        with pytest.raises(CountTooLarge, match=f"^about {limit + 1} digits of the total inflection "
                                                f"weight exceed the limit of {limit}$"):
            pluecker_budget(1, d + 1, 1)
        assert check_weight_budget(1, d, 1, [10 ** limit - 3, 1])
        assert not check_weight_budget(1, d, 1, [10 ** limit - 2, 1])
        with pytest.raises(CountTooLarge, match=f"digits of the weight sum exceed the limit of {limit}$"):
            check_weight_budget(1, d, 1, [10 ** limit - 1, 1])

    def test_unwritable_sizes_read_about(self):
        # m + n of limit + 1 digits is named about 10^limit; n of limit
        # digits is still written in full.
        limit = sys.get_int_max_str_digits()
        nines = 10 ** limit - 1
        with pytest.raises(CountTooLarge, match=rf"^about {2 * limit} digits of C\(about 10\^{limit}, "
                                                rf"{nines}\) exceed the limit of {limit}$"):
            max_hypersurfaces(nines, 2)
        with pytest.raises(CountTooLarge, match=rf"^about {2 * limit} digits of C\(about 10\^{limit}, 2\) "
                                                rf"exceed the limit of {limit}$"):
            next_hypersurface_bound(2, nines)
        with pytest.raises(CountTooLarge, match=rf"^about {limit + 1} digits of C\(about 10\^{limit}, 2\) "):
            bounds._printable(10 ** limit, "C({}, {})", 10 ** limit, 2)

    def test_one_dimensional_count_is_zero_at_any_degree(self):
        assert max_hypersurfaces(1, 10 ** 5000) == 0
