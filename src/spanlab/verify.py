"""Deterministic verification sweeps.

Each suite re-checks one cluster of the library's claims over an exhaustive or
seeded-random family, the one the paper states, and returns a
machine-readable report; ``spanlab verify --out`` writes reports to a file.
Reports are byte-identical across runs with the same configuration (timings
aside).  The ``falsify_oracle`` flag deliberately corrupts one expected value
per suite so the harness itself can be shown to catch failures.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import combinations
from math import comb, gcd
from typing import Callable, Iterator, Optional

from . import bounds as bounds_mod
from .errors import HypothesisFailed, PropagationFailed, UnknownSuite
from .jets import (
    filtration_profile,
    check_ideal_propagation,
    is_m_maximal,
    monomial_system,
    perturbed_system,
    reparametrized_system,
    sym_power_dim,
)
from .monomial_ideal import (
    NonEquivalent,
    bigraded_dims,
    equivalence_report,
    generation_degree,
    move_trace,
    monomials_of_degree,
    t_neighbors,
)
from .semigroup import curve_invariants, hilbert_polynomial, stabilization_threshold
from .sequences import VanishingSequence, inflection_weight, reverse, scale, translate
from .span import Verdict, classify, span, span_sequence


@dataclass(frozen=True)
class SweepConfig:
    """Seed and size overrides for a sweep; unset sizes use suite defaults.

    The ranges of n and m are fixed per suite: they are the paper's.
    """

    max_entry: Optional[int] = None
    random_trials: Optional[int] = None
    seed: int = 0
    falsify_oracle: bool = False


@dataclass
class SuiteReport:
    """Outcome of one suite: instance count, failure dumps, wall time."""

    suite: str
    checked: int
    failures: list[dict] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "checked": self.checked,
            "failures": self.failures,
            "seconds": round(self.seconds, 3),
        }


def normalized_sequences(n_lo: int, n_hi: int, max_entry: int) -> Iterator[VanishingSequence]:
    """All sequences (0, b_1, ..., b_n) with b_n <= max_entry and gcd 1,
    in lexicographic order.

    Restricting sweeps to this family is the translate/scale deduplication:
    every sequence is a translate of a scaled normalized one and all span
    data is invariant under both (which the invariance suite checks on its
    own random family).
    """
    for n in range(n_lo, n_hi + 1):
        for tail in combinations(range(1, max_entry + 1), n):
            if gcd(*tail) == 1:
                yield VanishingSequence((0,) + tail)


def ap_sequence(n: int, d: int) -> VanishingSequence:
    return VanishingSequence(tuple(d * i for i in range(n + 1)))


def near_ap_high(n: int, d: int) -> VanishingSequence:
    """Differences (d, ..., d, 2d): the top entry jumps."""
    return VanishingSequence(tuple(d * i for i in range(n)) + (d * (n + 1),))


def near_ap_low(n: int, d: int) -> VanishingSequence:
    """Differences (2d, d, ..., d): the gap sits at the bottom."""
    return VanishingSequence((0,) + tuple(d * i for i in range(2, n + 2)))


class _Checks:
    """Check recorder of one suite run.

    A suite opens each case (one input instance) with ``case`` and runs named
    checks on it; ``cases`` is the report's ``checked``.  A failed check is
    recorded with the case's inputs, its name and any extra inputs.
    ``bias`` is what ``falsify_oracle`` adds to one expected value per suite.
    """

    def __init__(self, falsify_oracle: bool):
        self.bias = 1 if falsify_oracle else 0
        self.failures: list[dict] = []
        self.cases = 0
        self._inputs: dict = {}

    def case(self, **inputs) -> None:
        self.cases += 1
        self._inputs = inputs

    def equal(self, name: str, expected, got, **extra) -> None:
        if expected != got:
            self.fail(name, expected, got, **extra)

    def true(self, name: str, condition, **extra) -> None:
        if not condition:
            self.fail(name, True, False, **extra)

    def fail(self, name: str, expected, got, **extra) -> None:
        self.failures.append({"input": {**self._inputs, "check": name, **extra},
                              "expected": repr(expected), "got": repr(got)})


def _derived_seed(base: int, seq: VanishingSequence, index: int) -> int:
    h = base
    for e in seq:
        h = h * 131 + e + 7
    return h * 1009 + index


def _suite_extremal_spans(cfg: SweepConfig, ck: _Checks) -> None:
    # Exhaustive check of the extremal-span classification: minimal span
    # exactly for arithmetic progressions, then a gap, then the near-AP value.
    for seq in normalized_sequences(1, 6, cfg.max_entry or 12):
        n = seq.n
        verdict = classify(seq, 2).verdict
        spans = span_sequence(seq, 5)
        for m in range(2, 6):
            s = spans[m - 1]
            ck.case(seq=list(seq.entries), m=m)
            ck.true("lower_bound", s >= m * n + 1 + ck.bias)
            ck.equal("minimal_iff_ap", verdict == Verdict.ARITHMETIC_PROGRESSION, s == m * n + 1)
            ck.true("gap", not (m * n + 1 < s < m * (n + 1)))
            if n >= 3:
                near = verdict in (Verdict.NEAR_AP_HIGH, Verdict.NEAR_AP_LOW)
                ck.equal("next_iff_near_ap", near, s == m * (n + 1))
            ck.true("upper_bound", s <= min(comb(m + n, n), m * (seq[-1] - seq[0]) + 1))


def _suite_span_invariance(cfg: SweepConfig, ck: _Checks) -> None:
    # Span is invariant under translation, scaling and reversal.
    trials = cfg.random_trials or 10_000
    rng = random.Random(cfg.seed)
    for trial in range(trials):
        n = rng.randint(1, 5)
        entries = tuple(sorted(rng.sample(range(0, 30), n + 1)))
        seq = VanishingSequence(entries)
        m = rng.randint(1, 4)
        c = rng.randint(-seq[0], 6)
        d = rng.randint(1, 4)
        base = span(seq, m)
        ck.case(seq=list(entries), m=m, c=c, d=d, trial=trial)
        ck.equal("translate", base + ck.bias, span(translate(seq, c), m))
        ck.equal("scale", base, span(scale(seq, d), m))
        ck.equal("reverse", base, span(reverse(seq), m))
        ck.true("lower_bound", base >= m * n + 1)


def _suite_dimension_agreement(cfg: SweepConfig, ck: _Checks) -> None:
    # Three independent computations of the same dimension must agree:
    # sumset span, weight tally of degree-m monomials, and the exact rank of
    # degree-m products of monomial jets.
    for seq in normalized_sequences(1, 4, cfg.max_entry or 8):
        system = monomial_system(seq)
        spans = span_sequence(seq, 5)
        for m in range(1, 6):
            dims = bigraded_dims(seq, m)
            rank_dim = sym_power_dim(system, m)
            ck.case(seq=list(seq.entries), m=m)
            ck.equal("sumset_vs_tally", spans[m - 1] + ck.bias, dims.quotient_dim)
            ck.equal("tally_vs_rank", dims.quotient_dim, rank_dim)
            ck.equal("count_identity", comb(m + seq.n, seq.n), dims.quotient_dim + dims.relation_dim)
            ck.true("upper_bound", dims.quotient_dim <= comb(m + seq.n, seq.n))


def _suite_hilbert_stabilization(cfg: SweepConfig, ck: _Checks) -> None:
    # The span eventually follows the line degree*m + 1 - genus, and the
    # threshold is always observed within the scanned range.
    for seq in normalized_sequences(1, 5, cfg.max_entry or 10):
        lead, const = hilbert_polynomial(seq)
        m_cap = 4 * lead
        spans = span_sequence(seq, m_cap)
        threshold = stabilization_threshold(seq, m_cap)
        ck.case(seq=list(seq.entries), m_cap=m_cap)
        ck.true("threshold_exists", threshold is not None)
        if threshold is not None:
            for m in range(threshold, m_cap + 1):
                ck.equal("line_value", lead * m + const + ck.bias, spans[m - 1], m=m)
        genus = curve_invariants(seq).arithmetic_genus
        ck.true("genus_nonnegative", genus >= 0)


def _suite_quadric_generation(cfg: SweepConfig, ck: _Checks) -> None:
    # For progressions and near-progressions every equal-weight class stays
    # connected under two-piece moves, in every degree up to the cap; and
    # connectivity survives multiplication by an arbitrary monomial.
    rng = random.Random(cfg.seed)
    family: list[VanishingSequence] = []
    family.extend(ap_sequence(n, d) for n in range(2, 6) for d in (1, 2, 3))
    family.extend(near_ap_high(n, d) for n in range(3, 6) for d in (1, 2))
    family.extend(near_ap_low(n, d) for n in range(3, 6) for d in (1, 2))
    for seq in family:
        for m in range(3, 7):
            rep = equivalence_report(seq, m, 2)
            ck.case(seq=list(seq.entries), m=m)
            ck.equal("connected", rep.weight_classes + ck.bias, rep.components)
            ck.true("component_count", rep.components >= rep.weight_classes)
    # multiplication stability of connectivity, on traced neighbor pairs
    for seq in (ap_sequence(3, 1), near_ap_high(3, 1), near_ap_low(4, 1)):
        pairs = []
        for xi in monomials_of_degree(2, len(seq)):
            for eta in t_neighbors(xi, seq, 2):
                pairs.append((xi, eta))
        rng.shuffle(pairs)
        for xi, eta in pairs[:5]:
            lam = tuple(rng.randint(0, 2) for _ in range(len(seq)))
            lifted_xi = tuple(a + b for a, b in zip(xi, lam))
            lifted_eta = tuple(a + b for a, b in zip(eta, lam))
            trace = move_trace(lifted_xi, lifted_eta, seq)
            ck.case(seq=list(seq.entries), xi=list(lifted_xi), eta=list(lifted_eta))
            ck.true("multiplied_pair_connected", not isinstance(trace, NonEquivalent))


def _suite_cuspidal_cubic(cfg: SweepConfig, ck: _Checks) -> None:
    # The one sequence whose relation ideal is famously not generated by
    # quadrics: no degree-2 relations at all, a degree-3 relation class that
    # splits, and generation observed only from degree 3 on.  Each claim is
    # its own case.
    seq = VanishingSequence((0, 1, 3))
    mirrored = reverse(seq)
    rep = equivalence_report(seq, 3, 2)
    rep_rev = equivalence_report(mirrored, 3, 2)
    claims = (
        (seq, "no_quadric_relations", 0 + ck.bias, bigraded_dims(seq, 2).relation_dim),
        (seq, "cubic_relation_exists", True, bigraded_dims(seq, 3).relation_dim >= 1),
        (seq, "not_quadric_generated", False, rep.generated),
        (seq, "witness_pair", {(2, 0, 1), (0, 3, 0)}, set(rep.witness or ())),
        (seq, "witness_not_joinable", True,
         isinstance(move_trace((2, 0, 1), (0, 3, 0), seq), NonEquivalent)),
        (seq, "generation_degree", 3, generation_degree(seq, m_cap=8)),
        (mirrored, "mirror_split", False, rep_rev.generated),
        (mirrored, "mirror_components", rep.components, rep_rev.components),
    )
    for on, name, expected, got in claims:
        ck.case(seq=list(on.entries))
        ck.equal(name, expected, got)


def _suite_perturbation_bounds(cfg: SweepConfig, ck: _Checks) -> None:
    # Random tail perturbations can only lose relations: the product span is
    # at least the sumset span, and each weight level of the relation space
    # stays within the monomial model's count.  Some perturbation must be
    # strict, otherwise the bound would be an equality and say nothing.
    trials = cfg.random_trials or 200
    strict = 0
    for seq in normalized_sequences(1, 3, cfg.max_entry or 6):
        spans = span_sequence(seq, 3)
        model_counts = {m: bigraded_dims(seq, m).weight_counts for m in (2, 3)}
        for k in range(trials):
            system = perturbed_system(seq, tail=3, seed=_derived_seed(cfg.seed, seq, k))
            for m in (2, 3):
                profile = filtration_profile(system, m)
                total = comb(m + seq.n, seq.n)
                dim = total - profile.kernel_dim
                ck.case(seq=list(seq.entries), m=m, trial=k)
                ck.true("span_lower_bound", dim >= spans[m - 1] + ck.bias)
                if dim > spans[m - 1]:
                    strict += 1
                for w, d in profile.dims.items():
                    cap = max(0, model_counts[m].get(w, 0) - 1)
                    ck.true("weight_level_bound", d <= cap, weight=w)
                ck.equal("rank_nullity", sum(profile.dims.values()), profile.kernel_dim)
    ck.case()
    ck.true("some_perturbation_strict", strict >= 1)


def _suite_maximality_transfer(cfg: SweepConfig, ck: _Checks) -> None:
    # A system that attains the minimal degree-2 dimension keeps attaining it
    # in every higher degree (when degree-2 moves connect everything), and
    # its relations grow one degree at a time.
    bases = []
    for n in range(3, 6):
        bases.extend([ap_sequence(n, 1), near_ap_high(n, 1), near_ap_low(n, 1)])
    for idx, seq in enumerate(bases):
        systems = {
            "monomial": monomial_system(seq),
            "reparametrized": reparametrized_system(seq, tail=1, seed=_derived_seed(cfg.seed, seq, idx)),
        }
        for label, system in systems.items():
            entries = list(seq.entries)
            # A returned report implies 2-maximality, the first hypothesis
            # it checks; the separate rank is needed only on failure.
            try:
                report = check_ideal_propagation(system, 2, t_max=5)
            except (HypothesisFailed, PropagationFailed) as exc:
                ck.case(seq=entries, system=label)
                ck.true("two_maximal", is_m_maximal(system, 2))
                ck.fail("propagation", "report", repr(exc))
                continue
            for t in range(2, 6):
                ck.case(seq=entries, system=label)
                ck.equal("t_maximal", span(seq, t) + ck.bias, report.quotient_dims[t], t=t)
                ck.true("kernel_bound",
                        report.kernel_dims[t] <= comb(t + seq.n, seq.n) - (t * seq.n + 1), t=t)
            for t in range(2, 5):
                ck.case(seq=entries, system=label)
                ck.equal("one_step", True, report.one_step_generates[t], t=t)


def _suite_bound_instantiation(cfg: SweepConfig, ck: _Checks) -> None:
    # Monomial jets meet the closed-form hypersurface counts exactly:
    # progressions the maximal count, the jump sequence the next one.
    for n in range(2, 6):
        system = monomial_system(ap_sequence(n, 1))
        for m in range(2, 5):
            got = comb(m + n, n) - sym_power_dim(system, m)
            ck.case(n=n, m=m, family="progression")
            ck.equal("max_count", bounds_mod.max_hypersurfaces(n, m) + ck.bias, got)
    for n in range(3, 6):
        system = monomial_system(near_ap_high(n, 1))
        for m in range(2, 5):
            got = comb(m + n, n) - sym_power_dim(system, m)
            ck.case(n=n, m=m, family="jump")
            ck.equal("next_count", bounds_mod.next_hypersurface_bound(n, m), got)
            ck.true("strictly_below_max", got < bounds_mod.max_hypersurfaces(n, m))


def _suite_elliptic_inflections(cfg: SweepConfig, ck: _Checks) -> None:
    # The inflection budget of a degree-(n+1) genus-1 system is (n+1)^2, and
    # the jump sequence accounts for it one unit per point.
    for n in range(2, 11):
        seq = near_ap_high(n, 1)
        budget = bounds_mod.pluecker_budget(n, n + 1, 1)
        ck.case(n=n)
        ck.equal("budget", (n + 1) ** 2 + ck.bias, budget)
        ck.equal("unit_weight", 1, inflection_weight(seq))
        ck.equal("pair_span", 2 * n + 2, span(seq, 2))
        ck.true("budget_split", bounds_mod.check_weight_budget(n, n + 1, 1, [1] * (n + 1) ** 2))
        ck.true("budget_positive", budget > 0)


_SUITES: dict[str, Callable[[SweepConfig, _Checks], None]] = {
    "prop33": _suite_extremal_spans,
    "cor43": _suite_span_invariance,
    "prop41": _suite_dimension_agreement,
    "prop49_410": _suite_hilbert_stabilization,
    "prop51": _suite_quadric_generation,
    "rem53": _suite_cuspidal_cubic,
    "prop44_45": _suite_perturbation_bounds,
    "prop46_47": _suite_maximality_transfer,
    "thm14_15": _suite_bound_instantiation,
    "prop37": _suite_elliptic_inflections,
}

SUITE_IDS = tuple(_SUITES)


def run_suite(suite_id: str, cfg: Optional[SweepConfig] = None) -> SuiteReport:
    """Run one suite and return its report."""
    cfg = cfg or SweepConfig()
    runner = _SUITES.get(suite_id)
    if runner is None:
        raise UnknownSuite(f"unknown suite {suite_id!r}; known: {', '.join(SUITE_IDS)}")
    start = time.perf_counter()
    ck = _Checks(cfg.falsify_oracle)
    runner(cfg, ck)
    return SuiteReport(suite=suite_id, checked=ck.cases, failures=ck.failures,
                       seconds=time.perf_counter() - start)


def run_all(cfg: Optional[SweepConfig] = None) -> list[SuiteReport]:
    """Run every suite in ``SUITE_IDS`` order."""
    return [run_suite(sid, cfg) for sid in SUITE_IDS]
