import random
from math import gcd

import pytest
import sympy
from hypothesis import given, strategies as st

from spanlab import (
    HypothesisFailed,
    JetSystem,
    PropagationFailed,
    check_ideal_propagation,
    monomial_system,
    near_ap_high,
    perturbed_system,
    reparametrized_system,
    validate,
)
from spanlab import _linalg
from spanlab._linalg import IncrementalRank
from spanlab.jets import _product_rows


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


def propagation_relations(system, m, t_max):
    # For each degree t in [m, t_max) that check_ideal_propagation reached,
    # the product rows made dense to N = t * deg + 1 columns, where they end,
    # and the relations its pass read: the pivots of the echelon that absorbed
    # those rows, row i extended by the unit vector in column N + i, whose
    # leading column is >= N, shifted down by N.
    echelons = []

    class Recording(IncrementalRank):
        def __init__(self):
            super().__init__()
            self.rows = []
            echelons.append(self)

        def add(self, row):
            self.rows.append(dict(row))
            return super().add(row)

    system.adapted_orders  # the sections' own echelon is not recorded
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_linalg, "IncrementalRank", Recording)
        try:
            check_ideal_propagation(system, m, t_max)
        except (HypothesisFailed, PropagationFailed):
            pass
    found = {}
    for t in range(m, t_max):
        n_coeffs = t * system.poly_degree + 1
        rows = list(_product_rows(system, t)[1])
        extended = [{**row, n_coeffs + i: 1} for i, row in enumerate(rows)]
        passes = [ech for ech in echelons if ech.rows == extended]
        if not passes:
            break  # an earlier check raised before degree t
        assert len(passes) == 1, t
        dense = [[row.get(c, 0) for c in range(n_coeffs)] for row in rows]
        relations = [[pivot.get(n_coeffs + i, 0) for i in range(len(rows))]
                     for lead, pivot in passes[0].pivots.items() if lead >= n_coeffs]
        found[t] = dense, relations
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
    # The relations check_ideal_propagation shifts to the next degree come
    # from its one pass per degree, checked against sympy.
    @pytest.mark.parametrize("system,degrees", [
        (monomial_system(validate([0, 1, 2, 3])), {2, 3}),
        # Not 2-maximal: the pass at degree 2 runs before the hypothesis fails.
        (perturbed_system(validate([0, 1, 3]), tail=2, seed=4), {2}),
        (reparametrized_system(near_ap_high(3, 1), tail=1, seed=3), {2, 3}),
        # Not 2-maximal either: t^30 parts x_0 x_2 from x_1^2.
        (JetSystem(((1,), (0, 1), (0, 0, 1) + (0,) * 27 + (1,))), {2}),
    ])
    def test_relations_annihilate_product_rows(self, system, degrees):
        found = propagation_relations(system, 2, 4)
        assert set(found) == degrees
        for dense, relations in found.values():
            check_relations(dense, relations)

    @given(_systems(), st.integers(2, 3))
    def test_relations_against_sympy(self, system, m):
        for dense, relations in propagation_relations(system, m, m + 1).values():
            check_relations(dense, relations)
