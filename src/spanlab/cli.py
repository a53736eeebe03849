"""Command-line entry point.

Every subcommand prints a human-readable summary by default and a stable JSON
envelope ``{command, inputs, result, version, seconds}`` with ``--json``.
Exit codes: 0 success, 1 domain error, 2 usage error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import __version__
from .bounds import (
    check_weight_budget,
    max_hypersurfaces,
    next_hypersurface_bound,
    pluecker_budget,
    quadric_bound,
)
from .errors import PreconditionViolated, SpanlabError, printable
from .jets import (
    JetSystem,
    degree_genus_estimate,
    filtration_profile,
    sym_power_dim,
)
from .monomial_ideal import (
    NonEquivalent,
    bigraded_dims,
    generation_scan,
    move_trace,
)
from .semigroup import curve_invariants, hilbert_polynomial, semigroup_of, stabilization_threshold
from .sequences import from_text
from .span import _difference_verdict, power_sumset, span
from .verify import SUITE_IDS, SweepConfig, run_all, run_suite


def _parse_ints(text: str) -> list[int]:
    return [int(p) for p in text.split(",")]


def _int_list(text: str) -> str:
    # argparse type for comma-separated integers: a bad token is a usage
    # error (exit 2); the raw text is kept so the envelope echoes it.
    try:
        _parse_ints(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None
    return text


def _int_at_least(low: int):
    # argparse type for sizes and degrees: a value below ``low`` is
    # a usage error (exit 2), not a silent fall-back to a default or a
    # domain error from the library.
    wanted = "a positive integer" if low == 1 else f"an integer >= {low}"

    def parse(text: str) -> int:
        try:
            value = int(text)
            if value >= low:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {wanted}, got {text!r}")
    return parse


def _load_sections(path: str) -> JetSystem:
    # Non-integer numbers are kept as the text written, so 0.0000001 is read
    # exactly and 1e-7 meets the same exponent check as the string "1e-7".
    # Any other value (true, null, NaN, an array) is named as the file
    # writes it; bool is an int subclass, so it is named first.  Non-UTF-8
    # text, bad JSON and refused coefficients are named with the path too.
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh, parse_float=str)
    except ValueError as exc:
        raise PreconditionViolated(f"{path}: {exc}") from None
    if not isinstance(raw, list) or not all(isinstance(sec, list) for sec in raw):
        raise PreconditionViolated(f"{path}: expected a JSON array of coefficient arrays")
    for sec in raw:
        for value in sec:
            if isinstance(value, bool) or not isinstance(value, (int, str)):
                raise PreconditionViolated(f"{path}: invalid coefficient {json.dumps(value)}: "
                                           "write an integer, a decimal or p/q")
    try:
        return JetSystem(tuple(map(tuple, raw)))
    except ValueError as exc:
        raise PreconditionViolated(f"{path}: {exc}") from None


def _cmd_span(args):
    seq = from_text(args.seq)
    table = power_sumset(seq, args.m)
    verdict, step = _difference_verdict(seq)
    result = {
        "seq": list(seq.entries),
        "m": args.m,
        "span": table.span,
        "verdict": verdict.value,
        "step": step,
        "values": list(table.values),
    }
    lines = [f"span of {seq.to_text()} at m={args.m}: {table.span}"]
    if args.classify:
        lines.append(f"verdict: {verdict.value}" + (f" (step {step})" if step else ""))
    lines.append(f"values: {' '.join(str(v) for v in table.values)}")
    return {"seq": args.seq, "m": args.m}, result, lines


def _cmd_semigroup(args):
    sg = semigroup_of(_parse_ints(args.gens))
    result = {
        "generators": list(sg.generators),
        "gaps": list(sg.gaps),
        "frobenius": sg.frobenius,
    }
    lines = [
        f"semigroup generated by {', '.join(map(str, sg.generators))}",
        f"gaps ({len(sg.gaps)}): {' '.join(map(str, sg.gaps)) or '(none)'}",
        f"frobenius: {sg.frobenius}",
    ]
    return {"gens": args.gens}, result, lines


def _cmd_curve(args):
    seq = from_text(args.seq)
    inv = curve_invariants(seq)
    result = {
        "seq": list(seq.entries),
        "degree": inv.degree,
        "gaps_at_zero": inv.gaps_at_zero,
        "gaps_at_infinity": inv.gaps_at_infinity,
        "arithmetic_genus": inv.arithmetic_genus,
    }
    lines = [
        f"monomial curve of {seq.to_text()}",
        f"degree: {inv.degree}",
        f"gap counts: {inv.gaps_at_zero} at zero, {inv.gaps_at_infinity} at infinity",
        f"arithmetic genus: {inv.arithmetic_genus}",
    ]
    return {"seq": args.seq}, result, lines


def _cmd_hilbert(args):
    seq = from_text(args.seq)
    lead, const = hilbert_polynomial(seq)
    threshold = stabilization_threshold(seq, args.mcap)
    result = {
        "seq": list(seq.entries),
        "leading": lead,
        "constant": const,
        "m_cap": args.mcap,
        "threshold": threshold,
    }
    sign = "+" if const >= 0 else "-"
    lines = [f"eventual span line: {lead}*m {sign} {abs(const)}"]
    if threshold is None:
        lines.append(f"not stabilized up to m_cap={args.mcap}")
    else:
        lines.append(f"stabilizes from m={threshold}" +
                     (f" (scanned to {args.mcap})" if args.mcap else ""))
    return {"seq": args.seq, "mcap": args.mcap}, result, lines


def _cmd_ideal_dims(args):
    seq = from_text(args.seq)
    # Every weight is written out as text, and none exceeds m * a_n.
    printable(args.m * seq[-1], "the largest weight")
    dims = bigraded_dims(seq, args.m)
    result = {
        "seq": list(seq.entries),
        "m": args.m,
        "quotient_dim": dims.quotient_dim,
        "relation_dim": dims.relation_dim,
        "total": dims.total,
        "weight_counts": {str(w): c for w, c in sorted(dims.weight_counts.items())},
    }
    lines = [
        f"degree-{args.m} monomials: {dims.total}",
        f"distinct weights (quotient dim): {dims.quotient_dim}",
        f"equal-weight relations: {dims.relation_dim}",
    ]
    return {"seq": args.seq, "m": args.m}, result, lines


def _cmd_ideal_gendeg(args):
    seq = from_text(args.seq)
    scan = generation_scan(seq, args.mcap)
    result = {
        "seq": list(seq.entries),
        "m_cap": args.mcap,
        "generation_degree": scan.degree,
        "quadric_generated_by_degree": {str(m): flag for m, flag in scan.quadric.items()},
    }
    lines = [f"generated in degrees <= {scan.degree} (scanned to {args.mcap})"]
    return {"seq": args.seq, "mcap": args.mcap}, result, lines


def _cmd_game_trace(args):
    seq = from_text(args.seq)
    source = tuple(_parse_ints(args.source))
    target = tuple(_parse_ints(args.target))
    outcome = move_trace(source, target, seq)
    joined = not isinstance(outcome, NonEquivalent)
    result = {
        "seq": list(seq.entries),
        "from": list(source),
        "to": list(target),
        "equivalent": joined,
        "moves": [[list(src), list(dst)] for src, dst in outcome] if joined else None,
        "components": None if joined else [outcome.source_component, outcome.target_component],
    }
    if joined:
        lines = [f"joinable in {len(outcome)} move(s)"]
        lines.extend(f"  ({i},{j}) -> ({k},{l})" for (i, j), (k, l) in outcome)
    else:
        lines = [
            "not joinable by moves",
            f"component ids: {outcome.source_component} vs {outcome.target_component}",
        ]
    return {"seq": args.seq, "from": args.source, "to": args.target}, result, lines


def _cmd_jets_rank(args):
    system = _load_sections(args.sections_file)
    seq = system.adapted_orders
    dim = sym_power_dim(system, args.m)
    result = {"m": args.m, "adapted": list(seq.entries), "dim": dim}
    lines = [f"adapted orders: {seq.to_text()}", f"degree-{args.m} product rank: {dim}"]
    return {"sections_file": args.sections_file, "m": args.m}, result, lines


def _cmd_jets_maximal(args):
    system = _load_sections(args.sections_file)
    seq = system.adapted_orders
    dim = sym_power_dim(system, args.m)
    target = span(seq, args.m)
    result = {
        "m": args.m,
        "adapted": list(seq.entries),
        "dim": dim,
        "span": target,
        "maximal": dim == target,
    }
    lines = [
        f"adapted orders: {seq.to_text()}",
        f"dim {dim} vs span {target}: {'maximal' if dim == target else 'not maximal'}",
    ]
    return {"sections_file": args.sections_file, "m": args.m}, result, lines


def _cmd_jets_profile(args):
    system = _load_sections(args.sections_file)
    profile = filtration_profile(system, args.m)
    result = {
        "m": args.m,
        "kernel_dim": profile.kernel_dim,
        "per_weight": {str(w): d for w, d in sorted(profile.dims.items())},
    }
    lines = [f"degree-{args.m} relation space: dim {profile.kernel_dim}"]
    lines.extend(f"  weight {w}: {d}" for w, d in sorted(profile.dims.items()))
    return {"sections_file": args.sections_file, "m": args.m}, result, lines


def _cmd_jets_estimate(args):
    if args.mhi <= args.mlo:
        args.parser.error(f"argument --mhi: expected an integer above --mlo ({args.mlo}), "
                          f"got {args.mhi}")
    system = _load_sections(args.sections_file)
    deg, genus = degree_genus_estimate(system, args.mlo, args.mhi)
    result = {"m_lo": args.mlo, "m_hi": args.mhi, "degree": deg, "arithmetic_genus": genus}
    lines = [f"fitted degree {deg}, arithmetic genus {genus} on m in [{args.mlo}; {args.mhi}]"]
    return {"sections_file": args.sections_file, "mlo": args.mlo, "mhi": args.mhi}, result, lines


def _cmd_bounds_hypersurfaces(args):
    result = {
        "n": args.n,
        "m": args.m,
        "max_hypersurfaces": max_hypersurfaces(args.n, args.m),
        "next_hypersurface_bound": next_hypersurface_bound(args.n, args.m) if args.n >= 2 else None,
        "quadric_bound": quadric_bound(args.n - 1) if args.m == 2 and args.n >= 2 else None,
    }
    lines = [f"max independent degree-{args.m} hypersurfaces in P^{args.n}: {result['max_hypersurfaces']}"]
    if result["next_hypersurface_bound"] is not None:
        lines.append(f"next admissible count: {result['next_hypersurface_bound']}")
    return {"n": args.n, "m": args.m}, result, lines


def _cmd_bounds_pluecker(args):
    budget = pluecker_budget(args.n, args.d, args.g)
    weights = _parse_ints(args.weights) if args.weights else None
    result = {"n": args.n, "d": args.d, "g": args.g, "budget": budget}
    lines = [f"total inflection weight: {budget}"]
    if weights is not None:
        ok = check_weight_budget(args.n, args.d, args.g, weights)
        result["weights_sum"] = sum(weights)
        result["matches"] = ok
        lines.append(f"supplied weights sum to {sum(weights)}: {'matches' if ok else 'MISMATCH'}")
    return {"n": args.n, "d": args.d, "g": args.g, "weights": args.weights}, result, lines


def _cmd_verify(args):
    if args.out:
        # Fail before the sweeps; append mode leaves an existing report as is.
        open(args.out, "a", encoding="utf-8").close()
    cfg = SweepConfig(
        max_entry=args.max_entry,
        random_trials=args.trials,
        seed=args.seed,
        falsify_oracle=args.falsify_oracle,
    )
    if args.suite == "all":
        reports = run_all(cfg)
    else:
        reports = [run_suite(args.suite, cfg)]
    result = [r.to_dict() for r in reports]
    if args.out:
        # Written before anything is printed: a path that cannot be written
        # is a domain error (exit 1) with nothing on stdout.
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result if args.suite == "all" else result[0], fh, indent=2, sort_keys=True)
            fh.write("\n")
    lines = []
    for r in reports:
        status = "pass" if r.passed else f"FAIL ({len(r.failures)} failures)"
        lines.append(f"{r.suite}: {status}, {r.checked} checked, {r.seconds:.2f}s")
    failed = any(not r.passed for r in reports)
    return {"suite": args.suite, "seed": args.seed}, result, lines, failed


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: it depends on no argument, and parse_args
    # leaves it unchanged.
    parser = argparse.ArgumentParser(
        prog="spanlab",
        description="Exact invariants of vanishing sequences and their monomial curves.")
    parser.add_argument("--version", action="version", version=f"spanlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def group(name, help):
        return sub.add_parser(name, help=help).add_subparsers(dest="subcommand", required=True)

    def command(where, name, handler, help):
        # Every leaf: --json, its handler, and itself as args.parser, which
        # a handler's cross-option check reports its usage error through.
        p = where.add_parser(name, help=help)
        p.add_argument("--json", action="store_true", help="emit the JSON envelope")
        p.set_defaults(handler=handler, parser=p)
        return p

    p = command(sub, "span", _cmd_span, "m-fold sumset size and classification")
    p.add_argument("--seq", type=_int_list, required=True, help="comma-separated entries, e.g. 0,1,2,4")
    p.add_argument("--m", type=_int_at_least(1), required=True)
    p.add_argument("--classify", action="store_true", help="show the difference-shape verdict")

    p = command(sub, "semigroup", _cmd_semigroup, "gaps of a numerical semigroup")
    p.add_argument("--gens", type=_int_list, required=True, help="comma-separated generators, e.g. 3,5")

    p = command(sub, "curve", _cmd_curve, "degree and genus of the monomial curve")
    p.add_argument("--seq", type=_int_list, required=True)

    p = command(sub, "hilbert", _cmd_hilbert, "eventual span line and stabilization threshold")
    p.add_argument("--seq", type=_int_list, required=True)
    p.add_argument("--mcap", type=_int_at_least(2), default=None)

    ideal = group("ideal", "weighted relation ideal data")
    p = command(ideal, "dims", _cmd_ideal_dims, "per-weight dimension tally at one degree")
    p.add_argument("--seq", type=_int_list, required=True)
    p.add_argument("--m", type=_int_at_least(0), required=True)
    p = command(ideal, "gendeg", _cmd_ideal_gendeg, "smallest generating degree observed up to a cap")
    p.add_argument("--seq", type=_int_list, required=True)
    p.add_argument("--mcap", type=_int_at_least(2), default=8)

    game = group("game", "the piece-moving game")
    p = command(game, "trace", _cmd_game_trace, "shortest move sequence between two positions")
    p.add_argument("--seq", type=_int_list, required=True)
    p.add_argument("--from", dest="source", type=_int_list, required=True, help="exponent tuple, e.g. 2,0,1")
    p.add_argument("--to", dest="target", type=_int_list, required=True)

    jets = group("jets", "exact ranks of polynomial jet systems")
    for name, handler, help, extra in (
        ("rank", _cmd_jets_rank, "rank of the degree-m products", (("m", 0),)),
        ("maximal", _cmd_jets_maximal, "whether the degree-m rank equals the span", (("m", 1),)),
        ("profile", _cmd_jets_profile, "per-weight dimensions of the degree-m relations", (("m", 0),)),
        ("estimate", _cmd_jets_estimate, "degree and genus fitted on [mlo; mhi]", (("mlo", 1), ("mhi", 2))),
    ):
        p = command(jets, name, handler, help)
        p.add_argument("--sections-file", required=True,
                       help="JSON array of coefficient arrays; entries like \"3/4\" or integers")
        for field, low in extra:
            p.add_argument(f"--{field}", type=_int_at_least(low), required=True)

    bounds = group("bounds", "closed-form counting bounds")
    p = command(bounds, "hypersurfaces", _cmd_bounds_hypersurfaces,
                "most independent degree-m hypersurfaces through a curve in P^n")
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--m", type=_int_at_least(2), required=True)
    p = command(bounds, "pluecker", _cmd_bounds_pluecker, "total inflection weight of a linear system")
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--d", type=_int_at_least(1), required=True)
    p.add_argument("--g", type=_int_at_least(0), required=True)
    p.add_argument("--weights", type=_int_list, default=None, help="comma-separated point weights")

    p = command(sub, "verify", _cmd_verify, "run verification suites")
    p.add_argument("--suite", default="all", choices=("all",) + SUITE_IDS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_int_at_least(1), default=None)
    p.add_argument("--max-entry", type=_int_at_least(1), default=None)
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.add_argument("--falsify-oracle", action="store_true",
                   help="self-test: corrupt one expected value per suite")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        outcome = args.handler(args)
    except (SpanlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # (inputs, result, lines), and from verify whether a suite failed.
    inputs, result, lines, *failed = outcome
    if args.json:
        envelope = {
            "command": args.command if not getattr(args, "subcommand", None)
            else f"{args.command} {args.subcommand}",
            "inputs": inputs,
            "result": result,
            "version": __version__,
            "seconds": round(time.perf_counter() - start, 4),
        }
        print(json.dumps(envelope, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return 3 if any(failed) else 0


if __name__ == "__main__":
    raise SystemExit(main())
