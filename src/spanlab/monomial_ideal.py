"""Equal-weight monomial combinatorics and the piece-moving game.

Monomials in X_0..X_n are exponent tuples; a sequence assigns each variable a
weight.  Differences of equal-degree, equal-weight monomials span the relation
space of the associated monomial curve, and whether low-degree relations
generate everything is decided by a game: a move exchanges a small bunch of
"pieces" (a sub-monomial) for an equal-weight bunch, and two monomials are
connected exactly when their difference lies in the ideal generated by the
relations of the move's degree.  A degree needs new generators exactly when
some equal-weight class is not joined by monomials sharing a variable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise
from math import comb
from operator import add, sub
from typing import Callable, Iterator, Optional, Sequence, Union

from .errors import EnumerationTooLarge, LengthMismatch, PreconditionViolated, over_limit, written
from .sequences import VanishingSequence
from .span import _charge, _check_sumset, _sumset_masks

Monomial = tuple[int, ...]
Move = tuple[tuple[int, int], tuple[int, int]]

# Fail-fast limit on the integers the enumeration writes: each of the
# C(m+n+1, n+1) monomials of degree <= m in n+1 variables is written once, as
# n+1 exponents and a value of ``width`` entries (a row of ``jets`` products).
# That bounds its time, and its memory, which holds one degree and the next.
# The largest enumeration of any suite, demo or benchmark query writes 30,954 entries.
MAX_ENUMERATED_ENTRIES = 2_000_000


def _check_enumeration(m: int, nvars: int, width: int = 0) -> None:
    # The budget of _levels, which checks it without a width; callers whose
    # values are rows check theirs before they build the steps.
    if m < 0:
        raise ValueError(f"degree must be >= 0, got {m}")
    entries = comb(m + nvars, nvars) * (nvars + width)
    if entries > MAX_ENUMERATED_ENTRIES:
        raise EnumerationTooLarge(over_limit(
            entries, f"entries for the degree-{m} monomials in {nvars} variables",
            MAX_ENUMERATED_ENTRIES))


def _levels(m: int, steps: Sequence, op: Callable = add, start=0) -> Iterator[list]:
    # Degrees 0..m of the monomials in len(steps) variables, one level per
    # degree in ascending lexicographic order, as triples (monomial, last
    # variable raised, value): ``start`` at the monomial 1, op(value,
    # steps[i]) for each further factor x_i (by default the weight under
    # entries ``steps``).
    # Degree d raises each degree-(d-1) monomial at its last raised variable
    # and the later ones, later first: each monomial once, in order.
    nvars = len(steps)
    _check_enumeration(m, nvars)
    level = [((0,) * nvars, 0, start)]
    yield level
    for _ in range(m):
        level = [(xi[:i] + (xi[i] + 1,) + xi[i + 1:], i, op(value, steps[i]))
                 for xi, last, value in level for i in range(nvars - 1, last - 1, -1)]
        yield level


def _grow(m: int, steps: Sequence, op: Callable = add, start=0) -> tuple[list[Monomial], list]:
    # The degree-m level of _levels, as monomials and their values.
    for level in _levels(m, steps, op, start):
        pass
    return [xi for xi, _, _ in level], [value for _, _, value in level]


def monomials_of_degree(m: int, nvars: int) -> list[Monomial]:
    """All exponent tuples of total degree m, in ascending lexicographic order."""
    return _grow(m, (0,) * nvars)[0]


def degree(xi: Monomial) -> int:
    return sum(xi)


def weight(xi: Monomial, seq: VanishingSequence) -> int:
    """Weighted degree of the monomial: sum of a_i * exponent_i."""
    if len(xi) != len(seq):
        raise LengthMismatch(f"exponent tuple of length {len(xi)} against sequence of length {len(seq)}")
    return sum(a * k for a, k in zip(seq, xi))


@dataclass(frozen=True)
class BigradedDims:
    """Degree-m dimension data of the weighted grading.

    ``weight_counts[j]`` is the number of degree-m monomials of weight j;
    ``quotient_dim`` counts the distinct weights (the span of the sequence at
    m) and ``relation_dim`` the independent equal-weight differences.
    """

    m: int
    weight_counts: dict[int, int]

    @property
    def quotient_dim(self) -> int:
        return len(self.weight_counts)

    @property
    def relation_dim(self) -> int:
        return sum(c - 1 for c in self.weight_counts.values())

    @property
    def total(self) -> int:
        return sum(self.weight_counts.values())


def bigraded_dims(seq: VanishingSequence, m: int) -> BigradedDims:
    """Tally the weights of all degree-m monomials in n+1 variables."""
    counts = {w: len(members) for w, (members,) in _components(seq, m, m).items()}
    assert sum(counts.values()) == comb(m + seq.n, seq.n)
    return BigradedDims(m, counts)


def weight_class(seq: VanishingSequence, m: int, w: int) -> list[Monomial]:
    """Degree-m monomials of weight w, in lexicographic order."""
    return _components(seq, m, m).get(w, [[]])[0]


def t_neighbors(xi: Monomial, seq: VanishingSequence, t: int) -> list[Monomial]:
    """Monomials reachable from xi by one exchange of degree at most t.

    Results have the same total degree and weight; the exchanged piece has
    degree between 2 and t (single-variable exchanges cannot preserve both
    degree and weight).
    """
    if t < 2:
        raise ValueError(f"neighbor order must be >= 2, got {t}")
    w, m = weight(xi, seq), degree(xi)
    # At equal degrees the exchanged piece's degree is half the L1 distance,
    # so the piece has degree at most t exactly when that is at most 2t.
    reach = 2 * t
    return [eta for eta in _components(seq, m, m).get(w, [[]])[0]
            if eta != xi and sum(map(abs, map(sub, xi, eta))) <= reach]


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of partitioning degree-m monomials by t-step connectivity.

    ``generated`` means every equal-weight pair is connected, i.e. the full
    degree-m relation space is a multiple of the degree-<=t one.  When it is
    not, ``witness`` holds an equal-weight pair from two different components.
    """

    m: int
    t: int
    weight_classes: int
    components: int
    generated: bool
    witness: Optional[tuple[Monomial, Monomial]] = None


def _lift(level: list, below: dict[Monomial, int]) -> dict[Monomial, int]:
    # The t-step components of one level of _levels at a degree m > t from
    # those of degree m-1, ``below``: the block of each monomial of a class
    # with more than one, numbered by first member; {} when every class is
    # one block, as at degree t, where every lift starts.  An exchange of at
    # most t < m pieces leaves some x_v in place, so the members of a class
    # merge, as bitmasks, on the keys (v, block of xi/x_v).
    nvars = len(level[0][0])
    blocks: dict[int, list[int]] = {}
    keys = []
    for xi, _, w in level:
        key = 0
        for v, k in enumerate(xi):
            if k:
                key |= 1 << (v + nvars * below.get(xi[:v] + (k - 1,) + xi[v + 1:], 0))
        keys.append(key)
        rest = []
        for block in blocks.get(w, ()):
            if block & key:
                key |= block
            else:
                rest.append(block)
        rest.append(key)
        blocks[w] = rest
    lifted = {}
    numbers: dict[int, dict[int, int]] = {}
    for (xi, _, w), key in zip(level, keys):
        if len(blocks[w]) > 1:
            ids = numbers.setdefault(w, {})
            lifted[xi] = ids.setdefault(next(b for b in blocks[w] if b & key), len(ids))
    return lifted


def _components(seq: VanishingSequence, m: int, t: int) -> dict[int, list[list[Monomial]]]:
    # The t-step components of the degree-m monomials, m >= t: each weight
    # class by its weight, the classes and the components of each in order
    # of first member, each component in lexicographic order.  Each degree-t
    # class is one: the lifts start from {}, and at t = m none runs, so each
    # weight class is then one component.
    below: dict[Monomial, int] = {}
    for d, level in enumerate(_levels(m, seq.entries)):
        if d > t:
            below = _lift(level, below)
    classes: dict[int, list[list[Monomial]]] = {}
    for xi, _, w in level:
        components = classes.setdefault(w, [])
        b = below.get(xi, 0)
        if b == len(components):
            components.append([])
        components[b].append(xi)
    return classes


def equivalence_report(seq: VanishingSequence, m: int, t: int) -> EquivalenceReport:
    """Partition degree-m monomials into weight classes and t-step components."""
    if not (m >= t >= 2):
        raise ValueError(f"need m >= t >= 2, got m={m}, t={t}")
    partition = sorted(_components(seq, m, t).items())
    n_classes = len(partition)
    n_components = sum(len(comps) for _, comps in partition)
    witness = next(((comps[0][0], comps[1][0]) for _, comps in partition if len(comps) > 1), None)
    return EquivalenceReport(
        m=m,
        t=t,
        weight_classes=n_classes,
        components=n_components,
        generated=n_components == n_classes,
        witness=witness,
    )


@dataclass(frozen=True)
class GenerationScan:
    """Degrees of the minimal generators of the relation ideal, up to a cap.

    Two degree-m monomials of one weight that share a variable x_i differ by
    x_i times a degree-(m-1) relation, so degree m carries a minimal
    generator exactly when some degree-m weight class is not joined by
    shared variables: the connectivity criterion of Briales, Campillo,
    Marijuán and Pisón ("Minimal systems of generators for ideals of
    semigroups", J. Pure Appl. Algebra 124, 1998).  ``generator_degrees``
    lists those m in [3; m_cap].  ``quadric[m]`` tells whether the quadrics
    generate degree m, i.e. whether two-piece moves connect every degree-m
    weight class: the same sharing, lifted from the two-step components of
    degree m-1.  It is True below the first generator degree and False at
    each generator degree g, as S_{g-2} I_2 lies in S_1 I_{g-1}, which misses
    that generator; whether it always equals "no generator degree in [3; m]"
    is unproven.
    """

    m_cap: int
    generator_degrees: tuple[int, ...]
    quadric: dict[int, bool]

    @property
    def degree(self) -> int:
        """Smallest g >= 2 with every degree in (g; m_cap] generated by
        degree-g steps: no minimal generator sits in (g; m_cap]."""
        return max((2, *self.generator_degrees))


def _generator_degrees(seq: VanishingSequence, m_cap: int) -> tuple[int, ...]:
    # The degrees m in [3; m_cap] of the minimal generators, read on the
    # sumset masks v_{m-2} and v_{m-1} for all weights at once.  Bit w of
    # uses = v_{m-1} << a_i is set when a degree-m monomial of weight w uses
    # x_i, and bit w of v_{m-2} << (a_i + a_j) when one uses both x_i and x_j.
    # From the lowest variable used at each weight, the variables joined to
    # it through shared monomials are reached; degree m carries a generator
    # when some used variable stays missing.  A sweep shifts about (n+1)^2
    # masks; one per degree is checked up front, each further one as it runs.
    if m_cap < 2:
        raise ValueError(f"m_cap must be >= 2, got {m_cap}")
    entries = seq.entries
    what = f"the generator degrees to degree {written(m_cap)}"
    work = _check_sumset(seq, m_cap, len(entries) ** 2, what)
    sweep = len(entries) ** 2 * m_cap * entries[-1]
    degrees = []
    for m, (two_down, one_down) in enumerate(pairwise(_sumset_masks(seq, m_cap - 1)), 3):
        reached, missing, seen = [], [], 0
        for a in entries:
            uses = one_down << a
            reached.append(uses & ~seen)
            missing.append(uses & seen)
            seen |= uses
        changed = first = True
        while changed and any(missing):
            if not first:
                work = _charge(work + sweep, what)
            changed = first = False
            for i, a in enumerate(entries):
                joined = reached[i]
                for j, b in enumerate(entries):
                    if missing[j]:  # empty at j = i: x_i is never both reached and missing
                        step = joined & (two_down << (a + b)) & missing[j]
                        if step:
                            reached[j] |= step
                            missing[j] ^= step
                            changed = True
        if any(missing):
            degrees.append(m)
    return tuple(degrees)


def generation_scan(seq: VanishingSequence, m_cap: int) -> GenerationScan:
    """Minimal-generator degrees and quadric flags of each degree in
    [3; m_cap].

    Degree m carries a minimal generator exactly when some degree-m weight
    class is not joined by shared variables (Briales, Campillo, Marijuán and
    Pisón, J. Pure Appl. Algebra 124, 1998).  That is read on the sumset
    masks, with no monomial listed.  Below the first generator degree g,
    every flag is True: with no generator in [3; m] the quadrics generate
    degree m.  So every degree-(g-1) weight class is one two-step component,
    and from g on the flags are lifted degree by degree from there, one
    lift per level of one enumeration to m_cap, starting from {}.  The flag
    is False at each generator degree d, as S_{d-2} I_2 lies in S_1 I_{d-1},
    which misses the generator.  The flags are lifted, not derived, because
    whether quadric[m] always equals "no generator degree in [3; m]" is
    unproven.
    """
    generator_degrees = _generator_degrees(seq, m_cap)
    first = generator_degrees[0] if generator_degrees else m_cap + 1
    quadric = dict.fromkeys(range(3, first), True)
    if generator_degrees:
        below: dict[Monomial, int] = {}  # the two-step blocks of degree m-1
        for m, level in enumerate(_levels(m_cap, seq.entries)):
            if m >= first:
                below = _lift(level, below)
                quadric[m] = not below
    return GenerationScan(m_cap, generator_degrees, quadric)


def generation_degree(seq: VanishingSequence, m_cap: int) -> int:
    """Smallest g >= 2 with every degree in (g; m_cap] generated by
    degree-g steps; g = m_cap always qualifies.  Degrees beyond m_cap are
    never extrapolated."""
    return max((2, *_generator_degrees(seq, m_cap)))


@dataclass(frozen=True)
class NonEquivalent:
    """Verdict that no move sequence joins the two monomials, with the
    component ids of each in the full partition of their degree."""

    source_component: int
    target_component: int


def _pair_targets(seq: VanishingSequence) -> list[list[list[tuple[int, int, Move]]]]:
    # targets[i][j], i <= j: every other pair (k, l) of equal weight sum,
    # as (k, l, move), in ascending (k, l) order.
    n = len(seq)
    by_sum: dict[int, list[tuple[int, int]]] = {}
    for i in range(n):
        for j in range(i, n):
            by_sum.setdefault(seq[i] + seq[j], []).append((i, j))
    targets: list[list[list[tuple[int, int, Move]]]] = [[[] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            targets[i][j] = [(k, l, ((i, j), (k, l))) for k, l in by_sum[seq[i] + seq[j]]
                             if (k, l) != (i, j)]
    return targets


def _component_ids(seq: VanishingSequence, m: int) -> dict[Monomial, int]:
    ids: dict[Monomial, int] = {}
    next_id = 0
    for _, comps in sorted(_components(seq, m, 2).items()):
        for comp in comps:
            for xi in comp:
                ids[xi] = next_id
            next_id += 1
    return ids


def _moves_out(pos: Monomial, targets: list) -> Iterator[tuple[Move, Monomial]]:
    # Every move out of pos with the position it leads to, in ascending
    # (i, j, k, l) order: two pieces leave occupied squares i <= j for
    # another pair (k, l) of equal weight sum.
    occupied = [i for i, k in enumerate(pos) if k]
    for a, i in enumerate(occupied):
        for j in occupied[a:]:
            moves = targets[i][j]
            if not moves or (i == j and pos[i] < 2):
                continue
            base = list(pos)
            base[i] -= 1
            base[j] -= 1
            for k, l, move in moves:
                out = base.copy()
                out[k] += 1
                out[l] += 1
                yield move, tuple(out)


def move_trace(xi: Monomial, eta: Monomial, seq: VanishingSequence) -> Union[list[Move], NonEquivalent]:
    """Shortest move sequence turning xi into eta, found by a two-sided search.

    Both monomials must have equal degree and equal weight.  A ball grows
    from each, one whole layer at a time and the smaller frontier first,
    until they meet; of the shortest traces the one returned is the least in
    the (i, j, k, l) order of its moves, the trace a breadth-first search
    from xi alone finds.  When the monomials sit in different components,
    returns their component ids instead, as soon as either ball runs out.
    Raises ``EnumerationTooLarge`` before the positions the two balls build,
    at one entry per variable each, would exceed ``MAX_ENUMERATED_ENTRIES``.
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
    # Every position a ball builds counts, seen before or not, one entry per
    # variable; the walk below only revisits counted positions.
    built, max_built = 0, MAX_ENUMERATED_ENTRIES // len(seq)
    # The ball around xi is a breadth-first tree: each position keeps the
    # position and move that first reached it, and with neighbours in
    # ascending (i, j, k, l) order its tree path is its least shortest path.
    # The ball around eta keeps each position's distance to eta.
    from_xi: dict[Monomial, Optional[tuple[Monomial, Move]]] = {xi: None}
    to_eta = {eta: 0}
    frontier = [[xi], [eta]]
    meet = None
    while meet is None:
        side = int(len(frontier[1]) < len(frontier[0]))
        seen = to_eta if side else from_xi
        distance = to_eta[frontier[1][0]] + 1  # of a new position around eta
        layer = []
        for pos in frontier[side]:
            for move, new in _moves_out(pos, targets):
                built += 1
                if built > max_built:
                    raise EnumerationTooLarge(over_limit(
                        built * len(seq), f"entries for the move search from {xi}",
                        MAX_ENUMERATED_ENTRIES))
                if new not in seen:
                    seen[new] = distance if side else (pos, move)
                    layer.append(new)
        if not layer:
            ids = _component_ids(seq, degree(xi))
            return NonEquivalent(ids[xi], ids[eta])
        frontier[side] = layer
        # The balls first share positions at one distance from xi; the first
        # of them that xi's ball reached ends the least prefix of a shortest
        # trace.
        meet = next((pos for pos in frontier[0] if pos in to_eta), None)
    trace = []
    pos = meet
    while from_xi[pos] is not None:
        pos, move = from_xi[pos]
        trace.append(move)
    trace.reverse()
    # From there the least move to a position one step closer to eta.
    pos = meet
    for togo in range(to_eta[meet] - 1, -1, -1):
        move, pos = next(step for step in _moves_out(pos, targets) if to_eta.get(step[1]) == togo)
        trace.append(move)
    return trace

