"""Bench-side checks of every query answer, independent of spanlab's code.

Each check recomputes the answer the slow, obvious way (enumerating sums,
replaying moves, testing representability one integer at a time) and
returns ``None`` when the program's JSON result agrees, or a one-line
description of the first disagreement.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import combinations_with_replacement
from math import comb, gcd


def check(op, rc: int, stdout: str):
    """Check one ``spanlab ... --json`` call: exit code, envelope, result."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        envelope = json.loads(stdout)
    except ValueError:
        return "stdout is not one JSON envelope"
    if not isinstance(envelope, dict) or "result" not in envelope:
        return "envelope has no result"
    return _CHECKS[op.kind](op, envelope["result"])


def _differ(what, expected, got):
    return f"{what}: expected {expected!r}, got {got!r}"


def sumset(seq, m: int) -> list[int]:
    """All sums of m entries of seq, with repetition, sorted."""
    return sorted({sum(c) for c in combinations_with_replacement(seq, m)})


def verdict(seq) -> tuple[str, int | None]:
    """Shape of the first differences: progression, near-progression or generic."""
    d = [b - a for a, b in zip(seq, seq[1:])]
    if len(set(d)) == 1:
        return "ARITHMETIC_PROGRESSION", d[0]
    if len(set(d[:-1])) == 1 and d[-1] == 2 * d[0]:
        return "NEAR_AP_HIGH", d[0]
    if len(set(d[1:])) == 1 and d[0] == 2 * d[1]:
        return "NEAR_AP_LOW", d[1]
    return "GENERIC", None


def gaps(generators) -> list[int]:
    """Gaps of the numerical semigroup, one integer at a time.

    x is representable iff x - g is for some generator g <= x.  Once
    min(generators) consecutive integers are representable, every larger one
    is, so the scan stops there.
    """
    smallest = min(generators)
    representable = [True]
    run = 0
    while run < smallest:
        x = len(representable)
        ok = any(g <= x and representable[x - g] for g in generators)
        representable.append(ok)
        run = run + 1 if ok else 0
    return [x for x, ok in enumerate(representable) if not ok]


def normalized(seq) -> list[int]:
    g = 0
    for a in seq[1:]:
        g = gcd(g, a - seq[0])
    return [(a - seq[0]) // g for a in seq]


def curve(seq) -> dict:
    b = normalized(seq)
    top = b[-1]
    at_zero = len(gaps(b[1:]))
    at_infinity = len(gaps([top - a for a in b[:-1]]))
    return {"degree": top, "gaps_at_zero": at_zero, "gaps_at_infinity": at_infinity,
            "arithmetic_genus": at_zero + at_infinity}


def _check_span(op, result):
    seq, m = op.expect
    values = sumset(seq, m)
    if result["values"] != values:
        return _differ("values", values, result["values"])
    if result["span"] != len(values):
        return _differ("span", len(values), result["span"])
    shape, step = verdict(seq)
    if (result["verdict"], result["step"]) != (shape, step):
        return _differ("verdict", (shape, step), (result["verdict"], result["step"]))
    # The extremal spans: m*n + 1 exactly for progressions, and m*(n + 1)
    # exactly for the two near-progression shapes once n >= 3.
    n = len(seq) - 1
    if (len(values) == m * n + 1) != (shape == "ARITHMETIC_PROGRESSION"):
        return f"span {len(values)} contradicts the minimal-span characterization"
    if n >= 3 and (len(values) == m * (n + 1)) != shape.startswith("NEAR_AP"):
        return f"span {len(values)} contradicts the next-span characterization"
    return None


def _check_curve(op, result):
    expected = curve(op.expect)
    got = {k: result[k] for k in expected}
    return None if got == expected else _differ("curve", expected, got)


def _check_hilbert(op, result):
    seq, m_cap = op.expect
    inv = curve(seq)
    lead, const = inv["degree"], 1 - inv["arithmetic_genus"]
    spans = [len(sumset(seq, 1))]
    level = set(seq)
    for _ in range(m_cap - 1):
        level = {x + a for x in level for a in seq}
        spans.append(len(level))
    threshold = None
    for m in range(m_cap, 0, -1):
        if spans[m - 1] != lead * m + const:
            break
        threshold = m
    expected = {"leading": lead, "constant": const, "threshold": threshold}
    got = {k: result[k] for k in expected}
    return None if got == expected else _differ("hilbert", expected, got)


def _check_dims(op, result):
    seq, m = op.expect
    counts = Counter(sum(c) for c in combinations_with_replacement(seq, m))
    expected = {
        "quotient_dim": len(counts),
        "relation_dim": sum(c - 1 for c in counts.values()),
        "total": comb(m + len(seq) - 1, m),
        "weight_counts": {str(w): c for w, c in counts.items()},
    }
    got = {k: result[k] for k in expected}
    return None if got == expected else _differ("dims", expected, got)


def _check_semigroup(op, result):
    expected = gaps(op.expect)
    if result["gaps"] != expected:
        return _differ("gaps", expected, result["gaps"])
    frobenius = expected[-1] if expected else -1
    if result["frobenius"] != frobenius:
        return _differ("frobenius", frobenius, result["frobenius"])
    return None


def _check_bounds(op, result):
    kind, n, m_or_d, g, weights = op.expect
    if kind == "hypersurfaces":
        m = m_or_d
        monomials = comb(m + n, n)
        expected = {
            "max_hypersurfaces": monomials - m * n - 1,
            "next_hypersurface_bound": monomials - m * (n + 1) if n >= 2 else None,
            "quadric_bound": (n - 1) * n // 2 if m == 2 and n >= 2 else None,
        }
    else:
        d = m_or_d
        budget = (n + 1) * d + n * (n + 1) * (g - 1)
        expected = {"budget": budget}
        if weights is not None:
            expected.update(weights_sum=sum(weights), matches=sum(weights) == budget)
    got = {k: result.get(k) for k in expected}
    return None if got == expected else _differ("bounds", expected, got)


def _check_gendeg(op, result):
    g, m_cap = op.expect
    if result["generation_degree"] != g:
        return _differ("generation degree", g, result["generation_degree"])
    table = result["quadric_generated_by_degree"]
    if sorted(table, key=int) != [str(m) for m in range(3, m_cap + 1)]:
        return f"per-degree table covers {sorted(table, key=int)}"
    if g == 2 and not all(table.values()):
        return "quadric-generated ideal reports a degree not generated by quadrics"
    if g == 3 and table["3"]:
        return "degree-3 relations reported as generated by quadrics"
    return None


def replay(seq, source, moves) -> tuple[int, ...] | str:
    """Apply two-piece moves to an exponent tuple; a string names an illegal move."""
    pos = list(source)
    for (i, j), (k, l) in moves:
        if seq[i] + seq[j] != seq[k] + seq[l]:
            return f"move {(i, j)}->{(k, l)} changes the weight"
        pos[i] -= 1
        pos[j] -= 1
        if pos[i] < 0 or pos[j] < 0:
            return f"move {(i, j)}->{(k, l)} takes a piece that is not there"
        pos[k] += 1
        pos[l] += 1
    return tuple(pos)


def _check_trace(op, result):
    seq, source, target, joinable = op.expect
    if result["equivalent"] is not joinable:
        return _differ("equivalent", joinable, result["equivalent"])
    if not joinable:
        a, b = result["components"]
        return None if a != b else "non-equivalent pair given one component id"
    end = replay(seq, source, result["moves"])
    if isinstance(end, str):
        return end
    return None if end == tuple(target) else _differ("trace end", tuple(target), end)


def _check_verify(op, result):
    failing = [r["suite"] for r in result if r["failures"]]
    return f"suites with failures: {failing}" if failing else None


_CHECKS = {
    "span": _check_span,
    "curve": _check_curve,
    "hilbert": _check_hilbert,
    "dims": _check_dims,
    "semigroup": _check_semigroup,
    "bounds": _check_bounds,
    "gendeg": _check_gendeg,
    "trace": _check_trace,
    "verify": _check_verify,
}
