import importlib
import itertools
import random
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from spanlab import (
    EnumerationTooLarge,
    GenerationScan,
    HypothesisFailed,
    LengthMismatch,
    NonEquivalent,
    PreconditionViolated,
    SumsetTooLarge,
    ap_sequence,
    bigraded_dims,
    check_ideal_propagation,
    degree,
    equivalence_report,
    generation_degree,
    generation_scan,
    monomial_system,
    monomials_of_degree,
    move_trace,
    near_ap_high,
    near_ap_low,
    normalized_sequences,
    reverse,
    span,
    t_neighbors,
    validate,
    weight,
    weight_class,
)
from spanlab import monomial_ideal
from spanlab.errors import over_limit
from spanlab.monomial_ideal import (
    _component_ids, _components, _generator_degrees, _pair_targets)

# The module, not the function ``spanlab.span`` that the package exports.
span_module = importlib.import_module("spanlab.span")


class TestBasics:
    def test_weight(self):
        seq = validate([0, 1, 3])
        assert weight((2, 0, 0), seq) == 0
        assert weight((0, 3, 0), seq) == 3
        assert weight((0, 0, 2), seq) == 6

    def test_weight_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            weight((1, 0), validate([0, 1, 3]))

    @pytest.mark.parametrize("m,nvars", [(0, 3), (2, 3), (3, 4), (5, 2)])
    def test_monomial_enumeration(self, m, nvars):
        monos = list(monomials_of_degree(m, nvars))
        assert len(monos) == comb(m + nvars - 1, nvars - 1)
        assert monos == sorted(monos)
        assert all(sum(xi) == m for xi in monos)

    @pytest.mark.parametrize("nvars", range(1, 6))
    def test_monomial_enumeration_matches_product_filter(self, nvars):
        for m in range(7):
            expected = sorted(xi for xi in itertools.product(range(m + 1), repeat=nvars)
                              if sum(xi) == m)
            assert list(monomials_of_degree(m, nvars)) == expected, m

    def test_negative_degree_is_rejected(self):
        seq = validate([0, 1, 3])
        for call in (lambda: monomials_of_degree(-1, 1), lambda: weight_class(seq, -1, 0),
                     lambda: bigraded_dims(seq, -1)):
            with pytest.raises(ValueError, match="degree must be >= 0"):
                call()


class TestEnumerationBudget:
    def test_fixed_limit(self):
        # 1413 variables at degree 1 write C(1414, 1413) * 1413 = 1,997,982
        # entries; 1414 variables write 2,000,810, past the limit.
        assert monomial_ideal.MAX_ENUMERATED_ENTRIES == 2_000_000
        assert bigraded_dims(validate(list(range(1413))), 1).total == 1413
        with pytest.raises(EnumerationTooLarge, match="exceed the limit"):
            bigraded_dims(validate(list(range(1414))), 1)

    def test_limit_passes_and_one_past_raises(self, monkeypatch):
        seq = validate([0, 1, 2, 3, 4, 5])
        # A generator in degree 4, so its quadric flags are lifted from there.
        split = validate([0, 1, 4, 5, 6, 7])
        entries = comb(7 + 6, 6) * 6  # monomials of degree <= 7, 6 exponents each
        monkeypatch.setattr(monomial_ideal, "MAX_ENUMERATED_ENTRIES", entries)
        assert bigraded_dims(seq, 7).total == comb(7 + 5, 5)
        assert generation_scan(split, 7).generator_degrees == (4,)
        monkeypatch.setattr(monomial_ideal, "MAX_ENUMERATED_ENTRIES", entries - 1)
        with pytest.raises(EnumerationTooLarge):
            bigraded_dims(seq, 7)
        with pytest.raises(EnumerationTooLarge):
            generation_scan(split, 7)
        # The progression has no generator degree, so it lists no monomial.
        assert generation_scan(seq, 7) == GenerationScan(7, (), dict.fromkeys(range(3, 8), True))

    def test_message_counts(self):
        # In full up to 12 digits, about 10^k past that; the limit in full.
        assert over_limit(999_999_999_999, "entries", 7) == "999999999999 entries exceed the limit of 7"
        assert over_limit(10 ** 12, "entries", 7) == "about 10^12 entries exceed the limit of 7"
        assert over_limit(17 * 10 ** 68, "gaps", 10 ** 13) == (
            "about 10^69 gaps exceed the limit of 10000000000000")
        assert over_limit(42, "digits", 7, estimated=True) == "about 42 digits exceed the limit of 7"
        with pytest.raises(EnumerationTooLarge, match=(
                r"^about 10\^69 entries for the degree-1000000000 monomials in 7 variables "
                r"exceed the limit of 2000000$")):
            monomial_ideal._check_enumeration(10 ** 9, 7, 9 * 10 ** 9 + 1)


class TestBigradedDims:
    def test_frozen_examples(self):
        d = bigraded_dims(validate([0, 1, 3]), 2)
        assert (d.quotient_dim, d.relation_dim) == (6, 0)
        d = bigraded_dims(validate([0, 1, 2]), 2)
        assert (d.quotient_dim, d.relation_dim) == (5, 1)

    @pytest.mark.parametrize("n,m", [(2, 3), (3, 2), (3, 4), (4, 3)])
    def test_progression_quotient(self, n, m):
        d = bigraded_dims(validate(list(range(n + 1))), m)
        assert d.quotient_dim == m * n + 1

    def test_matches_span_on_family(self):
        for seq in normalized_sequences(1, 3, 6):
            for m in range(1, 5):
                d = bigraded_dims(seq, m)
                assert d.quotient_dim == span(seq, m)
                assert d.quotient_dim + d.relation_dim == comb(m + seq.n, seq.n)


class TestNeighbors:
    def test_frozen_examples(self):
        assert t_neighbors((1, 0, 1), validate([0, 1, 2]), 2) == [(0, 2, 0)]
        assert t_neighbors((2, 0, 1), validate([0, 1, 3]), 2) == []

    def test_progression_moves(self):
        seq = validate([0, 2, 4, 6])
        neighbors = t_neighbors((1, 0, 0, 1), seq, 2)
        assert (0, 1, 1, 0) in neighbors


class TestEquivalence:
    def test_frozen_examples(self):
        assert equivalence_report(validate([0, 1, 2, 4]), 3, 2).generated
        rep = equivalence_report(validate([0, 1, 3]), 3, 2)
        assert not rep.generated
        assert set(rep.witness) == {(2, 0, 1), (0, 3, 0)}
        assert equivalence_report(validate([0, 1, 2]), 4, 2).generated

    def test_witness_only_when_split(self):
        rep = equivalence_report(validate([0, 1, 2, 4]), 3, 2)
        assert rep.witness is None
        assert rep.components == rep.weight_classes

    def test_higher_order_joins_witness(self):
        rep = equivalence_report(validate([0, 1, 3]), 3, 3)
        assert rep.generated

    def test_mirror_symmetry(self):
        for entries in [(0, 1, 3), (0, 1, 2, 5), (0, 2, 3, 7)]:
            seq = validate(entries)
            for m in (3, 4):
                a = equivalence_report(seq, m, 2)
                b = equivalence_report(reverse(seq), m, 2)
                assert a.components == b.components
                assert a.weight_classes == b.weight_classes


class TestGenerationDegree:
    def test_frozen_examples(self):
        assert generation_degree(validate([0, 1, 2, 3]), 8) == 2
        assert generation_degree(validate([0, 1, 3]), 8) == 3
        assert generation_degree(validate([0, 2, 3, 4]), 8) == 2

    def test_two_variable_ideal_is_trivial(self):
        assert generation_degree(validate([0, 5]), 6) == 2

    def test_rejects_bad_cap(self):
        with pytest.raises(ValueError):
            generation_degree(validate([0, 1, 3]), 1)

    def test_reach_sweeps_are_charged(self, monkeypatch):
        # (0, 1, 2, 4, 5) takes three reach sweeps at degree 3.  The check
        # before the first shift charges 5^2 * 3 * (3 * 5) = 1125 bits of
        # work, one sweep per degree, and each further sweep 5^2 * 3 * 5 = 375.
        seq = validate([0, 1, 2, 4, 5])
        monkeypatch.setattr(span_module, "MAX_SUMSET_WORK", 1125 + 2 * 375)
        assert _generator_degrees(seq, 3) == (3,)
        monkeypatch.setattr(span_module, "MAX_SUMSET_WORK", 1125 + 2 * 375 - 1)
        with pytest.raises(SumsetTooLarge) as exc:
            _generator_degrees(seq, 3)
        assert str(exc.value) == over_limit(
            1875, "bits of work for the generator degrees to degree 3", 1874)

    def test_generator_degree_is_never_quadric(self):
        # Proven half of the quadric rule: S_{g-2} I_2 lies in S_1 I_{g-1},
        # which misses a generator of degree g, so quadric[g] is False.
        # Below the first generator degree the quadrics generate.
        for seq in normalized_sequences(1, 4, 10):
            scan = generation_scan(seq, 8)
            first = min(scan.generator_degrees, default=9)
            assert not any(scan.quadric[g] for g in scan.generator_degrees), seq
            assert all(scan.quadric[m] for m in range(3, first)), seq


def _replay(xi, move):
    # The position after one two-piece move (i, j) -> (k, l); the pieces
    # must be there to move.
    (i, j), (k, l) = move
    out = list(xi)
    out[i] -= 1
    out[j] -= 1
    assert min(out) >= 0, (xi, move)
    out[k] += 1
    out[l] += 1
    return tuple(out)


class TestMoveTrace:
    def test_single_move(self):
        trace = move_trace((1, 0, 1), (0, 2, 0), validate([0, 1, 2]))
        assert trace == [((0, 2), (1, 1))]

    def test_identity(self):
        assert move_trace((1, 0, 1), (1, 0, 1), validate([0, 1, 2])) == []

    def test_split_pair(self):
        outcome = move_trace((2, 0, 1), (0, 3, 0), validate([0, 1, 3]))
        assert isinstance(outcome, NonEquivalent)
        assert outcome.source_component != outcome.target_component

    def test_precondition(self):
        with pytest.raises(PreconditionViolated):
            move_trace((2, 0, 0), (0, 3, 0), validate([0, 1, 3]))

    def test_rejects_negative_exponents(self):
        with pytest.raises(PreconditionViolated):
            move_trace((-1, 1, 1), (1, 1, -1), validate([0, 1, 2]))

    def test_search_budget(self, monkeypatch):
        # Each position the search builds costs one entry per variable: the
        # one move out of (1, 0, 1) builds one position of three entries.
        seq = validate([0, 1, 2])
        monkeypatch.setattr(monomial_ideal, "MAX_ENUMERATED_ENTRIES", 2)
        with pytest.raises(EnumerationTooLarge, match="^3 entries for the move search"):
            move_trace((1, 0, 1), (0, 2, 0), seq)
        monkeypatch.setattr(monomial_ideal, "MAX_ENUMERATED_ENTRIES", 3)
        assert move_trace((1, 0, 1), (0, 2, 0), seq) == [((0, 2), (1, 1))]

    def test_near_pair_at_high_degree_within_budget(self):
        # About 215,000 entries, well under the limit.
        seq = validate([4, 7, 10, 13, 16, 19, 22, 25, 31])
        trace = move_trace((4, 1, 0, 0, 0, 0, 0, 0, 4), (0, 0, 0, 0, 8, 1, 0, 0, 0), seq)
        assert not isinstance(trace, NonEquivalent)

    def test_replay_reaches_target(self):
        seq = ap_sequence(3, 1)
        rng = random.Random(5)
        monos = weight_class(seq, 4, 6)
        assert len(monos) > 2
        for _ in range(10):
            xi, eta = rng.sample(monos, 2)
            trace = move_trace(xi, eta, seq)
            assert not isinstance(trace, NonEquivalent)
            pos = xi
            for mv in trace:
                pos = _replay(pos, mv)
                assert degree(pos) == degree(xi)
                assert weight(pos, seq) == weight(xi, seq)
            assert pos == eta

    def test_multiplication_preserves_connectivity(self):
        # If xi and eta are joinable then so are lambda*xi and lambda*eta.
        seq = near_ap_low(3, 1)
        rng = random.Random(11)
        for _ in range(10):
            xi = rng.choice(list(monomials_of_degree(2, 4)))
            nbrs = t_neighbors(xi, seq, 2)
            if not nbrs:
                continue
            eta = rng.choice(nbrs)
            lam = tuple(rng.randint(0, 2) for _ in range(4))
            lifted = move_trace(tuple(a + b for a, b in zip(xi, lam)),
                                tuple(a + b for a, b in zip(eta, lam)), seq)
            assert not isinstance(lifted, NonEquivalent)

    def test_every_progression_pair_joins(self):
        # Every two equal-weight monomials of an arithmetic progression are
        # joined by two-piece moves.
        for n, d in [(2, 1), (3, 1), (3, 2), (4, 1)]:
            seq = ap_sequence(n, d)
            for m in (3, 4):
                for (members,) in _components(seq, m, m).values():
                    for xi, eta in itertools.combinations(members, 2):
                        assert not isinstance(move_trace(xi, eta, seq), NonEquivalent)


def _pieces(xi, eta):
    # The degree of the exchange that turns xi into eta.
    return sum(max(d - e, 0) for d, e in zip(xi, eta))


def pairwise_partition(seq, m, t):
    """Oracle: union-find over every pair of each weight class, the classes
    in order of first member."""
    classes = {}
    for xi in monomials_of_degree(m, len(seq)):
        classes.setdefault(weight(xi, seq), []).append(xi)
    partition = {}
    for w, members in classes.items():
        parent = list(range(len(members)))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                if _pieces(members[i], members[j]) <= t:
                    ri, rj = find(i), find(j)
                    parent[max(ri, rj)] = min(ri, rj)
        groups = {}
        for i, xi in enumerate(members):
            groups.setdefault(find(i), []).append(xi)
        partition[w] = sorted(groups.values(), key=lambda g: g[0])
    return partition


def brute_generated(seq, m, t):
    return all(len(comps) == 1 for comps in pairwise_partition(seq, m, t).values())


def brute_generation_degree(seq, m_cap):
    for g in range(2, m_cap + 1):
        if all(brute_generated(seq, m, g) for m in range(g + 1, m_cap + 1)):
            return g
    return None


@st.composite
def small_sequences(draw):
    n = draw(st.integers(1, 4))
    entries = draw(st.lists(st.integers(0, 12), min_size=n + 1, max_size=n + 1, unique=True))
    return validate(sorted(entries))


class TestPartitionOracle:
    @settings(max_examples=60, deadline=None)
    @given(small_sequences(), st.integers(1, 7), st.sampled_from([2, 3, 4]))
    def test_matches_pairwise_union_find(self, seq, m, t):
        assert list(_components(seq, m, t).items()) == list(pairwise_partition(seq, m, t).items())

    @settings(max_examples=40, deadline=None)
    @given(small_sequences(), st.integers(2, 6))
    def test_component_ids_number_the_pairwise_partition(self, seq, m):
        # Ids count up by ascending weight, then by first member.
        components = [comp for _, comps in sorted(pairwise_partition(seq, m, 2).items()) for comp in comps]
        assert _component_ids(seq, m) == {xi: i for i, comp in enumerate(components) for xi in comp}

    @settings(max_examples=60, deadline=None)
    @given(small_sequences(), st.integers(0, 5), st.sampled_from([2, 3]))
    def test_weight_table_matches_brute_force(self, seq, m, t):
        monos = list(monomials_of_degree(m, len(seq)))
        weights = [weight(xi, seq) for xi in monos]
        table = {w: members for w, (members,) in _components(seq, m, m).items()}
        assert list(table) == list(dict.fromkeys(weights))
        assert table == {w: [xi for xi, v in zip(monos, weights) if v == w] for w in table}
        counts = bigraded_dims(seq, m).weight_counts
        assert list(counts.items()) == [(w, len(members)) for w, members in table.items()]
        for w, members in table.items():
            assert weight_class(seq, m, w) == members
        for xi in monos:
            assert t_neighbors(xi, seq, t) == [
                eta for eta in monos
                if eta != xi and weight(eta, seq) == weight(xi, seq) and _pieces(xi, eta) <= t]

    def test_class_listings_never_lift(self, monkeypatch):
        # At t = m each weight class is one component, so the tallies and
        # the class readers answer without a lift.
        def refuse(level, below):
            raise AssertionError("a weight class listing lifted its components")
        monkeypatch.setattr(monomial_ideal, "_lift", refuse)
        seq = validate([0, 1, 3])
        assert list(bigraded_dims(seq, 4).weight_counts.items()) == [
            (12, 1), (10, 1), (8, 1), (6, 2), (4, 2), (9, 1), (7, 1), (5, 1), (3, 2), (2, 1),
            (1, 1), (0, 1)]
        assert weight_class(seq, 4, 6) == [(0, 3, 1), (2, 0, 2)]
        assert weight_class(seq, 4, 11) == []
        assert t_neighbors((2, 0, 2), seq, 2) == []
        assert t_neighbors((2, 0, 2), seq, 3) == [(0, 3, 1)]

    @pytest.mark.parametrize("entries", [(0, 1, 3), (0, 2, 3), (0, 1, 4), (0, 1, 2, 5),
                                         (0, 1, 2, 3), (0, 2, 3, 4), (0, 3, 4, 7)])
    def test_generation_degree_and_table_match_brute_force(self, entries):
        seq = validate(entries)
        m_cap = 6
        scan = generation_scan(seq, m_cap)
        expected = brute_generation_degree(seq, m_cap)
        assert generation_degree(seq, m_cap) == expected
        assert scan.degree == expected
        degrees = range(3, m_cap + 1)
        assert scan.quadric == {m: brute_generated(seq, m, 2) for m in degrees}
        assert list(scan.generator_degrees) == [
            m for m in degrees if not brute_generated(seq, m, m - 1)]

    @settings(max_examples=40, deadline=None)
    @given(small_sequences(), st.integers(3, 6), st.sampled_from([2, 3]))
    def test_generator_degrees_match_brute_force(self, seq, m_cap, m):
        scan = generation_scan(seq, m_cap)
        degrees = range(3, m_cap + 1)
        assert list(scan.generator_degrees) == [
            d for d in degrees if not brute_generated(seq, d, d - 1)]
        assert scan.quadric == {d: brute_generated(seq, d, 2) for d in degrees}
        # The propagation hypothesis fails at the first degree in (m; m_cap]
        # that the degree-m moves leave disconnected; the monomial model is
        # always m-maximal, so nothing else can raise it.
        first = next((d for d in range(m + 1, m_cap + 1) if not brute_generated(seq, d, m)), None)
        if first is None:
            check_ideal_propagation(monomial_system(seq), m, m_cap)
        else:
            with pytest.raises(HypothesisFailed, match=f"degree-{first} relations"):
                check_ideal_propagation(monomial_system(seq), m, m_cap)

    @settings(max_examples=60, deadline=None)
    @given(small_sequences(), st.integers(2, 8))
    def test_mask_criterion_matches_brute_force(self, seq, m_cap):
        # Degree d carries a generator when its classes split under moves of
        # up to d - 1 pieces, i.e. when not joined by shared variables.
        assert _generator_degrees(seq, m_cap) == tuple(
            d for d in range(3, m_cap + 1) if not brute_generated(seq, d, d - 1))

    @pytest.mark.parametrize("entries,lifted", [
        ((0, 1, 2, 3), []), ((0, 1, 2, 4), []), ((0, 5), []),
        ((0, 1, 3), [3, 4, 5, 6]), ((0, 1, 4, 5, 6, 7), [4, 5, 6]),
    ])
    def test_lift_starts_at_the_first_generator_degree(self, monkeypatch, entries, lifted):
        # Below the first generator degree the quadrics generate, so no
        # monomial is listed unless some degree up to the cap carries one.
        levels, lift = monomial_ideal._levels, monomial_ideal._lift
        listed, degrees = [], []

        def counting_levels(m, *args):
            listed.append(m)
            return levels(m, *args)

        def counting_lift(level, below):
            degrees.append(sum(level[0][0]))
            return lift(level, below)
        monkeypatch.setattr(monomial_ideal, "_levels", counting_levels)
        monkeypatch.setattr(monomial_ideal, "_lift", counting_lift)
        seq = validate(entries)
        scan = generation_scan(seq, 6)
        assert listed == ([6] if lifted else [])
        assert degrees == lifted
        assert scan.generator_degrees[:1] == tuple(lifted[:1])
        monkeypatch.undo()
        assert scan.quadric == {d: brute_generated(seq, d, 2) for d in range(3, 7)}


# The search's expansion order fixes which shortest trace is returned; these
# move lists and component ids are part of the CLI output and must not drift.
_RECORDED_TRACES = [
    ((0, 1, 2), (1, 0, 1), (0, 2, 0),
     [((0, 2), (1, 1))]),
    ((0, 1, 2, 3), (2, 0, 0, 2), (0, 2, 2, 0),
     [((0, 3), (1, 2)), ((0, 3), (1, 2))]),
    ((0, 1, 2, 3, 5), (3, 0, 0, 0, 2), (1, 0, 2, 2, 0),
     [((0, 4), (2, 3)), ((0, 4), (2, 3))]),
    ((0, 2, 3, 4, 5, 6, 7), (4, 0, 0, 1, 0, 0, 2), (1, 0, 6, 0, 0, 0, 0),
     [((0, 3), (1, 1)), ((0, 6), (2, 3)), ((0, 6), (2, 3)), ((1, 3), (2, 2)), ((1, 3), (2, 2))]),
    ((0, 1, 2, 3, 4, 5, 6), (3, 1, 0, 0, 0, 0, 3), (0, 1, 0, 6, 0, 0, 0),
     [((0, 6), (3, 3)), ((0, 6), (3, 3)), ((0, 6), (3, 3))]),
    ((6, 8, 10, 12, 14, 16, 18, 20, 22), (0, 0, 3, 5, 0, 0, 0, 0, 0), (5, 0, 0, 0, 0, 1, 0, 0, 2),
     [((2, 3), (0, 5)), ((2, 3), (0, 5)), ((2, 3), (0, 5)), ((3, 5), (0, 8)), ((3, 5), (0, 8))]),
    ((6, 14, 18, 22, 26, 30, 34), (4, 0, 1, 0, 0, 0, 2), (0, 4, 3, 0, 0, 0, 0),
     [((0, 6), (1, 4)), ((0, 4), (1, 2)), ((0, 6), (1, 4)), ((0, 4), (1, 2))]),
    ((6, 10, 12, 14, 16, 18, 20), (0, 0, 6, 3, 0, 0, 0), (4, 1, 0, 0, 0, 0, 4),
     [((2, 2), (0, 5)), ((2, 3), (0, 6)), ((2, 3), (0, 6)), ((2, 3), (0, 6)), ((2, 5), (1, 6))]),
    ((1, 7, 10, 13, 16, 19, 22), (1, 0, 1, 0, 0, 0, 5), (0, 0, 0, 0, 4, 3, 0),
     [((0, 6), (1, 4)), ((1, 6), (2, 5)), ((2, 6), (3, 5)), ((2, 6), (4, 4)), ((3, 6), (4, 5))]),
    ((0, 1, 3), (2, 0, 1), (0, 3, 0),
     NonEquivalent(source_component=4, target_component=3)),
    ((0, 1, 3), (2, 0, 2), (0, 3, 1),
     NonEquivalent(source_component=9, target_component=8)),
]


@pytest.mark.parametrize("entries,source,target,expected", _RECORDED_TRACES)
def test_move_trace_recorded(entries, source, target, expected):
    assert move_trace(source, target, validate(entries)) == expected


def bfs_move_trace(xi, eta, seq):
    """Oracle: the one-sided breadth-first search that ``move_trace`` replaced.

    Its tree path to eta is the least shortest trace in the (i, j, k, l)
    order of the moves, the trace ``move_trace`` must return.
    """
    if len(xi) != len(seq) or len(eta) != len(seq):
        raise LengthMismatch("exponent tuples must match the sequence length")
    if min(xi) < 0 or min(eta) < 0:
        raise PreconditionViolated("exponents must be non-negative")
    if degree(xi) != degree(eta) or weight(xi, seq) != weight(eta, seq):
        raise PreconditionViolated(
            f"{xi} and {eta} differ in degree or weight; no move sequence can join them")
    if xi == eta:
        return []
    targets = _pair_targets(seq)
    # Every position built counts, seen before or not, one entry per variable.
    built, max_built = 0, monomial_ideal.MAX_ENUMERATED_ENTRIES // len(seq)
    parent = {xi: (xi, ((0, 0), (0, 0)))}
    frontier = [xi]
    while frontier:
        nxt = []
        for pos in frontier:
            # Two pieces leave occupied squares i <= j for another pair
            # (k, l) of equal weight sum.  Neighbours come in ascending
            # (i, j, k, l) order, which fixes the trace returned.
            occupied = [i for i, k in enumerate(pos) if k]
            for a, i in enumerate(occupied):
                for j in occupied[a:]:
                    if i == j and pos[i] < 2:
                        continue
                    moves = targets[i][j]
                    if not moves:
                        continue
                    built += len(moves)
                    if built > max_built:
                        raise EnumerationTooLarge(
                            f"{built * len(seq)} entries for the move search from {xi} "
                            f"exceed the limit of {monomial_ideal.MAX_ENUMERATED_ENTRIES}")
                    base = list(pos)
                    base[i] -= 1
                    base[j] -= 1
                    for k, l, move in moves:
                        out = base.copy()
                        out[k] += 1
                        out[l] += 1
                        new = tuple(out)
                        if new in parent:
                            continue
                        parent[new] = (pos, move)
                        if new == eta:
                            trace = []
                            cur = eta
                            while cur != xi:
                                cur, mv = parent[cur]
                                trace.append(mv)
                            trace.reverse()
                            return trace
                        nxt.append(new)
        frontier = nxt
    ids = _component_ids(seq, degree(xi))
    return NonEquivalent(ids[xi], ids[eta])


@st.composite
def equal_weight_pairs(draw):
    n = draw(st.integers(2, 6))
    entries = draw(st.lists(st.integers(0, 14), min_size=n + 1, max_size=n + 1, unique=True))
    seq = validate(sorted(entries))
    xi = draw(st.sampled_from(monomials_of_degree(draw(st.integers(1, 8)), n + 1)))
    members = weight_class(seq, degree(xi), weight(xi, seq))
    return seq, xi, draw(st.sampled_from(members))


class TestMoveTraceOracle:
    @settings(max_examples=150, deadline=None)
    @given(equal_weight_pairs())
    def test_matches_breadth_first_search(self, pair):
        seq, xi, eta = pair
        assert move_trace(xi, eta, seq) == bfs_move_trace(xi, eta, seq)

    @pytest.mark.parametrize("entries", [(0, 1, 3), (0, 2, 3)])
    def test_split_pairs_match_breadth_first_search(self, entries):
        # The first members of every two components of a weight class, up
        # to degree 8: (0, 2, 3) is the mirror of (0, 1, 3).
        seq = validate(entries)
        pairs = [(comps[a][0], comps[b][0])
                 for m in range(2, 9) for comps in _components(seq, m, 2).values()
                 for a in range(len(comps)) for b in range(len(comps)) if a != b]
        assert len(pairs) == 132
        for xi, eta in pairs:
            outcome = move_trace(xi, eta, seq)
            assert isinstance(outcome, NonEquivalent)
            assert outcome == bfs_move_trace(xi, eta, seq)
