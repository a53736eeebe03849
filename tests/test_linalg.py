import random
from math import gcd

import pytest
import sympy
from hypothesis import assume, given, strategies as st

from spanlab import (
    JetSystem,
    generation_degree,
    is_m_maximal,
    monomial_system,
    near_ap_high,
    perturbed_system,
    reparametrized_system,
    span,
    validate,
)
from spanlab._linalg import IncrementalRank
from spanlab.jets import _block_rank_sum, _product_rows, _read
from spanlab.monomial_ideal import _components


def random_matrix(rng, rows, cols, lo=-9, hi=9, rank_cap=None):
    if rank_cap is None:
        return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]
    basis = [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rank_cap)]
    return [[sum(rng.randint(-3, 3) * basis[b][c] for b in range(rank_cap))
             for c in range(cols)] for _ in range(rows)]


def sparse(m):
    return [{c: v for c, v in enumerate(row) if v} for row in m]


def rank(m):
    ech = IncrementalRank()
    for row in sparse(m):
        ech.add(row)
    return ech.rank


def reference_pass(system, t):
    # The degree-t product rows, dense to N = t * deg + 1 columns, where they
    # end; a basis of their relations, read from one pass that extends row i
    # by the unit vector in column N + i, as the pivots leading at or past N
    # shifted down by N; and the exact rank of those relations shifted by
    # each x_v, which check_ideal_propagation's block certificate must not
    # exceed.
    n_coeffs = t * system.poly_degree + 1
    monomials, values, k = _product_rows(system, t)
    dense = [_read(value, k, 0, n_coeffs) for value in values]
    ech = IncrementalRank()
    for i, row in enumerate(dense):
        ech.add({**{c: v for c, v in enumerate(row) if v}, n_coeffs + i: 1})
    relations = [[pivot.get(n_coeffs + i, 0) for i in range(len(dense))]
                 for lead, pivot in ech.pivots.items() if lead >= n_coeffs]
    # lift[pos][var] is the column of monomials[pos] * x_var among the
    # degree-(t+1) monomials, numbered in order of first appearance; for
    # a fixed var it is injective, so shifting merges no entries.
    nvars = system.n + 1
    columns: dict[tuple[int, ...], int] = {}
    lift = [[columns.setdefault(xi[:var] + (xi[var] + 1,) + xi[var + 1:], len(columns))
             for var in range(nvars)] for xi in monomials]
    shifted = IncrementalRank()
    for coeffs in relations:
        for var in range(nvars):
            shifted.add({lift[pos][var]: c for pos, c in enumerate(coeffs) if c})
    return dense, relations, shifted.rank


def kernel_passes(system, m, t_max):
    # The rows and relations of reference_pass at each degree t in
    # [m, t_max) up to where check_ideal_propagation stops: after degree m
    # when a hypothesis fails, and at the first degree t where the system
    # is not t-maximal.
    seq = system.adapted_orders
    found = {}
    for t in range(m, t_max):
        dense, relations, _ = reference_pass(system, t)
        found[t] = dense, relations
        if len(dense) - len(relations) != span(seq, t) or generation_degree(seq, t_max) > m:
            break
    return found


def check_relations(dense, relations):
    nrows, ncols = len(dense), len(dense[0])
    assert len(relations) == nrows - sympy.Matrix(dense).rank()
    for coeffs in relations:
        assert all(type(c) is int for c in coeffs)
        assert all(sum(coeffs[i] * dense[i][c] for i in range(nrows)) == 0 for c in range(ncols))
    if relations:
        assert sympy.Matrix(relations).rank() == len(relations)


@st.composite
def _systems(draw):
    # Sections t^a plus integer or rational tails at distinct orders a, so
    # they are independent.
    orders = draw(st.lists(st.integers(0, 4), min_size=2, max_size=4, unique=True))
    entries = st.integers(-9, 9) | st.fractions(-3, 3, max_denominator=4)
    sections = [(0,) * a + (1,) + tuple(draw(st.lists(entries, max_size=3))) for a in orders]
    return JetSystem(tuple(sections))


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
        # add returns the leading column of the one pivot a row adds, which
        # is that pivot's least column, or None when the row adds none.
        rng = random.Random(1)
        m = random_matrix(rng, 10, 6, rank_cap=3)
        ech = IncrementalRank()
        leads = []
        for row in sparse(m):
            before = dict(ech.pivots)
            lead = ech.add(row)
            if lead is None:
                assert dict(ech.pivots) == before
            else:
                assert set(ech.pivots) - set(before) == {lead}
                assert lead == min(ech.pivots[lead])
            leads.append(lead)
        assert leads[0] == 0 and None in leads
        assert ech.rank == sympy.Matrix(m).rank() == sum(lead is not None for lead in leads)

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
    # The relations of the reference pass, checked against sympy.
    @pytest.mark.parametrize("system,degrees", [
        (monomial_system(validate([0, 1, 2, 3])), {2, 3}),
        # Not 2-maximal: the check stops at degree 2.
        (perturbed_system(validate([0, 1, 3]), tail=2, seed=4), {2}),
        (reparametrized_system(near_ap_high(3, 1), tail=1, seed=3), {2, 3}),
        # Not 2-maximal either: t^30 parts x_0 x_2 from x_1^2.
        (JetSystem(((1,), (0, 1), (0, 0, 1) + (0,) * 27 + (1,))), {2}),
    ])
    def test_relations_annihilate_product_rows(self, system, degrees):
        found = kernel_passes(system, 2, 4)
        assert set(found) == degrees
        for dense, relations in found.values():
            check_relations(dense, relations)

    @given(_systems(), st.integers(2, 3))
    def test_relations_against_sympy(self, system, m):
        for dense, relations in kernel_passes(system, m, m + 1).values():
            check_relations(dense, relations)


@st.composite
def _maximal_systems(draw):
    # A system of a drawn kind on a drawn sequence, and a degree t where it
    # is t-maximal, as the certificate requires.
    seq = validate([0] + sorted(draw(st.sets(st.integers(1, 7), min_size=1, max_size=3))))
    kind = draw(st.sampled_from(["monomial", "reparametrized", "perturbed"]))
    seed = draw(st.integers(0, 50))
    t = draw(st.integers(2, 3))
    if kind == "monomial":
        system = monomial_system(seq)
    elif kind == "reparametrized":
        system = reparametrized_system(seq, tail=2, seed=seed)
    else:
        system = perturbed_system(seq, tail=2, seed=seed)
    assume(is_m_maximal(system, t))
    return kind, system, t


class TestCertificate:
    # check_ideal_propagation certifies one-step generation by the ranks of
    # the weight-diagonal blocks of the shifted relations, a lower bound on
    # the exact rank of all of them.
    @given(_maximal_systems())
    def test_block_ranks_never_exceed_the_shifted_rank(self, drawn):
        kind, system, t = drawn
        seq = system.adapted_orders
        blocks = _block_rank_sum(seq.entries, _components(seq, t, t), _components(seq, t + 1, t + 1))
        _, _, shifted = reference_pass(system, t)
        assert blocks <= shifted
        if kind == "monomial":
            # The model's shifted relations are its blocks' rows.
            assert blocks == shifted
