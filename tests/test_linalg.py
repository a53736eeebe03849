import random
from fractions import Fraction as F
from math import gcd

import sympy
from hypothesis import given, strategies as st

from spanlab._linalg import IncrementalRank, clear_denominators, left_kernel_basis


def random_matrix(rng, rows, cols, lo=-9, hi=9, rank_cap=None):
    if rank_cap is None:
        return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]
    basis = [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rank_cap)]
    return [[sum(rng.randint(-3, 3) * basis[b][c] for b in range(rank_cap))
             for c in range(cols)] for _ in range(rows)]


def _matrices(entries):
    # Up to 8x8, every row of the same length.
    return st.integers(1, 8).flatmap(lambda ncols: st.lists(
        st.lists(entries, min_size=ncols, max_size=ncols), min_size=1, max_size=8))


def sparse(m):
    return [{c: v for c, v in enumerate(row) if v} for row in m]


def rank(m):
    ech = IncrementalRank()
    for row in sparse(m):
        ech.add(row)
    return ech.rank


def check_left_kernel(m):
    nrows, ncols = len(m), len(m[0])
    basis = left_kernel_basis(sparse(m), ncols)
    assert len(basis) == nrows - sympy.Matrix(m).rank()
    for coeffs in basis:
        assert all(type(c) is int for c in coeffs)
        assert all(sum(coeffs[i] * m[i][c] for i in range(nrows)) == 0 for c in range(ncols))
    if basis:
        assert sympy.Matrix(basis).rank() == len(basis)


class TestRank:
    def test_against_sympy(self):
        rng = random.Random(0)
        for trial in range(25):
            m = random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8),
                              rank_cap=rng.choice([None, 1, 2, 3]))
            assert rank(m) == sympy.Matrix(m).rank(), m
        # Matrices that collapse modulo a word-size prime but not over the
        # rationals: the rank must not depend on any reduction.
        p = 1_000_003
        for m, expected in (([[p, 0], [0, p]], 2), ([[p, 0], [2 * p, 0]], 1)):
            assert rank(m) == sympy.Matrix(m).rank() == expected

    def test_incremental_matches_batch(self):
        rng = random.Random(1)
        m = random_matrix(rng, 10, 6, rank_cap=3)
        ech = IncrementalRank()
        grew = [ech.add(row) for row in sparse(m)]
        assert ech.rank == sympy.Matrix(m).rank() == sum(grew)

    def test_zero_and_empty(self):
        assert rank([]) == 0
        assert rank([[0, 0], [0, 0]]) == 0

    def test_pivots_are_primitive(self):
        # Each stored pivot is divided by the gcd of its entries.
        ech = IncrementalRank()
        for row in ({0: 6, 2: -9}, {0: 4, 1: 8, 2: 2}, {1: 10, 3: 15}):
            ech.add(row)
        assert ech.pivots[0] == {0: 2, 2: -3}
        assert all(gcd(*pivot.values()) == 1 for pivot in ech.pivots.values())


class TestKernels:
    def test_left_kernel_annihilates_rows(self):
        rng = random.Random(4)
        m = [[F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(6)] for _ in range(8)]
        basis = left_kernel_basis(sparse(m), 6)
        assert len(basis) == 8 - sympy.Matrix(m).rank()
        for coeffs in basis:
            combo = [sum(coeffs[i] * m[i][c] for i in range(8)) for c in range(6)]
            assert all(x == 0 for x in combo)

    @given(_matrices(st.integers(-3, 3)))
    def test_left_kernel_against_sympy_on_ints(self, m):
        check_left_kernel(m)

    @given(_matrices(st.fractions(-3, 3, max_denominator=4)))
    def test_left_kernel_against_sympy_on_fractions(self, m):
        check_left_kernel(m)


def test_clear_denominators():
    row = [F(1, 2), F(2, 3), 1]
    cleared = clear_denominators(row)
    assert cleared == [3, 4, 6]
    assert clear_denominators([0, 5]) == [0, 5]
