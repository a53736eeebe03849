"""The benchmark's three workloads and the checks on their outputs.

* ``perturb``: the ``prop44_45`` sweep at its default family.  Adapted bases,
  product rows and ``IncrementalRank`` prefix ranks do nearly all the work.
* ``propagate``: the other nine suites, in ``SUITE_IDS`` order.  Kernels with
  Fraction back-substitution, ``clear_denominators`` on lifted relations and
  the mod-p certificate dominate.  With ``perturb`` it is ``verify --suite all``.
* ``queries``: one client calling ``spanlab.cli.main([..., "--json"])`` in
  process and waiting for each answer (a closed loop), over a seeded mix of
  1000 one-shot questions.  ``monomial_ideal`` and the CLI front end dominate.

A pass is one round of a workload's fixed work.  Pass ``k`` of a run with
seed ``S`` draws its inputs from ``pass_seed(S, k)``, so no two passes of a
run repeat the same inputs and a cache kept between passes cannot hide cost.
The seed reaches the sweeps only as ``SweepConfig.seed``.
"""

from __future__ import annotations

import contextlib
import io
import random
import time
from dataclasses import dataclass
from math import gcd

import oracles

# ``checked`` of each suite at its default family.  It depends on the family,
# not on the seed; a pass whose report differs has lost or gained checks.
SUITE_CHECKED = {
    "prop33": 9720,
    "cor43": 10000,
    "prop41": 715,
    "prop49_410": 597,
    "prop51": 110,
    "rem53": 8,
    "prop44_45": 12401,
    "prop46_47": 126,
    "thm14_15": 21,
    "prop37": 9,
}
SELF_TESTS = ("corrupt", "falsify")


def pass_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


@dataclass
class PassResult:
    wall_s: float                # the pass's fixed work, checks excluded
    latencies: list[float]       # one per user-visible request, in seconds
    attempted: int
    failures: list[str]


class Sweep:
    """A list of verification suites run back to back with ``run_suite``.

    The request a ``verify`` user waits on is the whole sweep, so a pass is
    one latency sample; each suite run is one attempted op.
    """

    def __init__(self, suites, seed: int, self_test=None):
        self.suites = tuple(suites)
        self.seed = seed
        self.falsify = self_test == "falsify"
        self.expected = {s: SUITE_CHECKED[s] for s in self.suites}
        if self_test == "corrupt":
            self.expected[self.suites[0]] += 1

    def build(self, index: int):
        from spanlab.verify import SweepConfig
        return SweepConfig(seed=pass_seed(self.seed, index), falsify_oracle=self.falsify)

    def run_pass(self, index: int, tracer=None) -> PassResult:
        from spanlab import verify
        cfg = self.build(index)
        reports, failures = [], []
        start = time.perf_counter()
        for suite in self.suites:
            scope = tracer.span(f"verify.{suite}") if tracer else contextlib.nullcontext()
            try:
                with scope:
                    reports.append(verify.run_suite(suite, cfg))
            except Exception as exc:  # one suite's crash fails that op only
                failures.append(f"{suite}: raised {exc!r}")
        wall = time.perf_counter() - start
        for report in reports:
            if report.failures:
                failures.append(f"{report.suite}: {len(report.failures)} failures, "
                                f"first {report.failures[0]}")
            elif report.checked != self.expected[report.suite]:
                failures.append(f"{report.suite}: checked {report.checked}, "
                                f"expected {self.expected[report.suite]}")
        return PassResult(wall, [wall], len(self.suites), failures)


@dataclass
class Op:
    kind: str
    argv: list[str]
    expect: object  # what the oracle needs to recompute the answer


def _ap(n, d=1, c=0):
    return [c + d * i for i in range(n + 1)]


def _near_high(n, d=1, c=0):
    return [c + d * i for i in range(n)] + [c + d * (n + 1)]


def _near_low(n, d=1, c=0):
    return [c] + [c + d * i for i in range(2, n + 2)]


_SHAPES = {"ap": _ap, "high": _near_high, "low": _near_low}

# ``ideal gendeg`` strata: (shape, n, mcap, ops per pass).  A shape's cost does
# not change under the seeded scaling and translation, so the slowest stratum
# (20 of 1000 ops) holds the 99th percentile on every seed.  Near-progressions
# with n = 2 are (0,1,3) and its mirror (0,2,3): generated in degree 3, every
# other shape in degree 2.
_GENDEG = (
    ("ap", 2, 6, 15), ("ap", 3, 7, 15), ("high", 2, 6, 15), ("low", 2, 6, 15),
    ("high", 3, 7, 15), ("low", 3, 7, 15),
    ("ap", 4, 7, 20), ("high", 4, 7, 20), ("low", 4, 7, 20),
    ("ap", 4, 8, 10), ("ap", 5, 7, 20),
)
# Ops per pass of every other kind; with _GENDEG this makes 1000.
_MIX = (("span", 160), ("curve", 100), ("hilbert", 100), ("dims", 110),
        ("bounds", 90), ("semigroup", 60), ("trace", 200))


def _text(entries) -> str:
    return ",".join(map(str, entries))


def _random_seq(rng, n_lo, n_hi, top):
    return sorted(rng.sample(range(top + 1), rng.randint(n_lo, n_hi) + 1))


def _shaped(rng, shape, n):
    return _SHAPES[shape](n, rng.randint(1, 5), rng.randint(0, 9))


def _span_op(rng):
    if rng.random() < 0.3:
        seq = _shaped(rng, rng.choice(list(_SHAPES)), rng.randint(2, 5))
    else:
        seq = _random_seq(rng, 2, 5, 40)
    m = rng.randint(2, 6)
    return Op("span", ["span", "--seq", _text(seq), "--m", str(m), "--classify"], (seq, m))


def _curve_op(rng):
    seq = _random_seq(rng, 2, 4, 25)
    return Op("curve", ["curve", "--seq", _text(seq)], seq)


def _hilbert_op(rng):
    seq = _random_seq(rng, 2, 4, 16)
    m_cap = rng.randint(8, 30)
    return Op("hilbert", ["hilbert", "--seq", _text(seq), "--mcap", str(m_cap)], (seq, m_cap))


def _dims_op(rng):
    seq = _random_seq(rng, 2, 4, 20)
    m = rng.randint(2, 6)
    return Op("dims", ["ideal", "dims", "--seq", _text(seq), "--m", str(m)], (seq, m))


def _bounds_op(rng):
    if rng.random() < 4 / 7:
        n, m = rng.randint(2, 8), rng.randint(2, 5)
        return Op("bounds", ["bounds", "hypersurfaces", "--n", str(n), "--m", str(m)],
                  ("hypersurfaces", n, m, None, None))
    n = rng.randint(2, 6)
    d, g = rng.randint(n + 1, 3 * n), rng.randint(0, 3)
    argv = ["bounds", "pluecker", "--n", str(n), "--d", str(d), "--g", str(g)]
    weights = None
    if rng.random() < 0.5:
        budget = (n + 1) * d + n * (n + 1) * (g - 1)
        cuts = sorted(rng.sample(range(1, budget), min(budget - 1, rng.randint(0, 6))))
        weights = [b - a for a, b in zip([0] + cuts, cuts + [budget])]
        weights[-1] += rng.choice((0, 0, 1))  # sometimes a mismatch
        argv += ["--weights", _text(weights)]
    return Op("bounds", argv, ("pluecker", n, d, g, weights))


def _semigroup_op(rng):
    while True:
        gens = sorted(rng.sample(range(100, 301), rng.randint(3, 4)))
        if gcd(*gens) == 1:
            return Op("semigroup", ["semigroup", "--gens", _text(gens)], gens)


def _far_pair(units, m, rng):
    """Two degree-m positions of equal weight far apart in the move graph.

    ``units`` are the squares' weights before scaling and translation.  One
    position is spread: pieces on the first and last squares and one piece
    between.  The other packs the same weight onto two neighbouring squares
    of the progression part, which takes several moves to reach, so the
    breadth-first search visits much of the weight class.
    """
    n = len(units) - 1
    square = {u: i for i, u in enumerate(units)}
    while True:
        high = rng.randint(1, m - 2)
        spread = [0] * (n + 1)
        spread[0], spread[n], spread[rng.randint(1, n - 1)] = m - 1 - high, high, 1
        q, r = divmod(sum(u * k for u, k in zip(units, spread)), m)
        if q in square and (r == 0 or q + 1 in square):
            packed = [0] * (n + 1)
            packed[square[q]] += m - r
            if r:
                packed[square[q + 1]] += r
            return (packed, spread) if rng.random() < 0.5 else (spread, packed)


def _trace_op(rng):
    shape, n = rng.choice(list(_SHAPES)), rng.randint(6, 8)
    units = _SHAPES[shape](n)
    source, target = _far_pair(units, rng.randint(7, 9), rng)
    d, c = rng.randint(1, 5), rng.randint(0, 9)
    # Progressions and near-progressions with n >= 3 have every weight class
    # connected by two-piece moves, so every such pair is joinable.
    return _trace([c + d * u for u in units], source, target, True)


def _witness_op(rng):
    # The degree-3 pair of (0,1,3) that no two-piece move joins.
    return _trace(_near_high(2, rng.randint(1, 5), rng.randint(0, 9)), [2, 0, 1], [0, 3, 0], False)


def _trace(seq, source, target, joinable):
    argv = ["game", "trace", "--seq", _text(seq), "--from", _text(source), "--to", _text(target)]
    return Op("trace", argv, (seq, source, target, joinable))


def _gendeg_op(rng, shape, n, m_cap):
    seq = _shaped(rng, shape, n)
    g = 3 if n == 2 and shape != "ap" else 2
    return Op("gendeg", ["ideal", "gendeg", "--seq", _text(seq), "--mcap", str(m_cap)],
              (g, m_cap))


_MAKERS = {"span": _span_op, "curve": _curve_op, "hilbert": _hilbert_op, "dims": _dims_op,
           "bounds": _bounds_op, "semigroup": _semigroup_op, "trace": _trace_op}


def query_mix(seed: int) -> list[Op]:
    """1000 seeded one-shot questions in a seeded order."""
    rng = random.Random(seed)
    ops = []
    for kind, count in _MIX:
        for i in range(count):
            maker = _witness_op if kind == "trace" and i < 10 else _MAKERS[kind]
            ops.append(maker(rng))
    for shape, n, m_cap, count in _GENDEG:
        ops.extend(_gendeg_op(rng, shape, n, m_cap) for _ in range(count))
    rng.shuffle(ops)
    return ops


class Queries:
    """A closed loop with one client; checks run after the clock stops."""

    def __init__(self, seed: int, self_test=None):
        self.seed = seed
        self.self_test = self_test

    def build(self, index: int) -> list[Op]:
        ops = query_mix(pass_seed(self.seed, index))
        if self.self_test == "corrupt":
            first = next(op for op in ops if op.kind == "gendeg")
            g, m_cap = first.expect
            first.expect = (5 - g, m_cap)
        elif self.self_test == "falsify":
            ops[0] = Op("verify", ["verify", "--suite", "rem53", "--falsify-oracle"], None)
        return ops

    def run_pass(self, index: int, tracer=None) -> PassResult:
        from spanlab import cli
        ops = self.build(index)
        latencies, failures = [], []
        for op in ops:
            out = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out):
                    rc = cli.main(op.argv + ["--json"])
            except (Exception, SystemExit) as exc:  # a crash or usage exit fails the op
                latencies.append(time.perf_counter() - start)
                failures.append(f"{' '.join(op.argv)}: raised {exc!r}")
                continue
            latencies.append(time.perf_counter() - start)
            try:
                problem = oracles.check(op, rc, out.getvalue())
            except Exception as exc:  # a result of an unexpected shape fails the op
                problem = f"oracle raised {exc!r}"
            if problem:
                failures.append(f"{' '.join(op.argv)}: {problem}")
        return PassResult(sum(latencies), latencies, len(ops), failures)


def make(name: str, seed: int, self_test=None):
    from spanlab.verify import SUITE_IDS
    if name == "perturb":
        return Sweep(["prop44_45"], seed, self_test)
    if name == "propagate":
        return Sweep([s for s in SUITE_IDS if s != "prop44_45"], seed, self_test)
    if name == "queries":
        return Queries(seed, self_test)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("perturb", "propagate", "queries")
