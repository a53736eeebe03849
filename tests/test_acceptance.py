"""Acceptance gate: one test per criterion, at its stated family and tolerance.

Every check is exact integer/rational arithmetic (tolerance zero throughout);
the two suites with stated wall-clock targets assert them too.  Each test
prints a single PASS line; run with ``pytest tests/test_acceptance.py -v -s``
to see them.
"""

import time

from spanlab import SweepConfig, run_suite


def _run(criterion, label, suite_id, checked, cfg=None, budget=None):
    start = time.perf_counter()
    report = run_suite(suite_id, cfg)
    elapsed = time.perf_counter() - start
    status = "PASS" if report.passed else "FAIL"
    print(f"ACCEPTANCE {criterion} {status} [{label}] "
          f"checked={report.checked} failures={len(report.failures)} {elapsed:.1f}s")
    assert report.passed, report.failures[:5]
    assert report.checked == checked, "the stated family was not checked in full"
    if budget is not None:
        assert elapsed < budget, f"runtime {elapsed:.1f}s exceeded {budget}s target"
    return report


def test_criterion_1_extremal_span_classification():
    # Exhaustive n in [1;6], top entry <= 12, m in [2;5]: minimal span exactly
    # for progressions, a forbidden band above it, and the next value exactly
    # for the two near-progression shapes (n >= 3).  Target < 60 s.
    _run(1, "extremal spans, exhaustive", "prop33", 9720, SweepConfig(max_entry=12), budget=60)


def test_criterion_2_three_way_dimension_agreement():
    # Sumset size, weight tally, and exact product rank agree for n <= 4,
    # top entry <= 8, m <= 5.  Target < 120 s.
    _run(2, "span = weight tally = product rank", "prop41", 715,
         SweepConfig(max_entry=8), budget=120)


def test_criterion_3_hilbert_line_with_threshold():
    # For every normalized sequence with n <= 5, top entry <= 10 the span
    # reaches the line degree*m + 1 - genus within m_cap = 4*degree.
    _run(3, "eventual Hilbert line", "prop49_410", 597, SweepConfig(max_entry=10))


def test_criterion_4_quadric_generation_and_the_exception():
    # Progressions (n in [2;5]) and near-progressions (n in [3;5]) are
    # quadric-generated through degree 6; (0,1,3) is not, with the witness
    # pair X0^2*X2 / X1^3 emitted and relation dims 0 (degree 2), >= 1 (degree 3).
    _run(4, "two-piece moves connect everything", "prop51", 110)
    _run(4, "cuspidal-cubic exception with witness", "rem53", 8)


def test_criterion_5_perturbed_systems_within_model_bounds():
    # 200 seeded tail perturbations per base (all normalized bases n <= 3,
    # top entry <= 6), m in {2,3}: the product span never drops below the
    # sumset span, and each weight level of the relation space stays within
    # the monomial model's count.  Deterministic under the fixed seed.
    cfg = SweepConfig(max_entry=6, random_trials=200, seed=0)
    first = _run(5, "perturbation bounds, 200 systems/base", "prop44_45", 12401, cfg)
    second = run_suite("prop44_45", cfg)
    a, b = first.to_dict(), second.to_dict()
    a.pop("seconds"), b.pop("seconds")
    assert a == b, "perturbation sweep is not deterministic under a fixed seed"


def test_criterion_6_maximality_transfer():
    # Monomial and 2-maximal deformed systems over progression and
    # near-progression bases (n in [3;5]): t-maximal for t in [2;5] and the
    # degree-t relations generate the degree-(t+1) ones for t in [2;4].
    _run(6, "maximality transfers upward", "prop46_47", 126)


def test_criterion_7_bound_instantiation():
    # Monomial progression jets attain C(m+n,n) - mn - 1 hypersurfaces
    # exactly; the jump sequence attains C(m+n,n) - m(n+1); n in [2;5]
    # (resp. [3;5]), m in [2;4].
    _run(7, "closed-form counts attained", "thm14_15", 21)


def test_criterion_8_elliptic_inflection_consistency():
    # For n in [2;10]: budget (n+1)^2, unit inflection weight of the jump
    # sequence, and pair-span 2n+2.
    _run(8, "inflection budget", "prop37", 9)


def test_criterion_9_span_invariance():
    # 10^4 seeded random (sequence, m, shift, factor) tuples: span invariant
    # under translate, scale, and reverse.
    _run(9, "translate/scale/reverse invariance", "cor43", 10_000,
         SweepConfig(random_trials=10_000, seed=0))
