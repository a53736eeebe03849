"""Run one workload of spanlab's benchmark, check its outputs, print its metrics.

    python3 perfbench/run.py --workload perturb --seed 0 --seconds 40 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it give the same numbers by name and unit, plus the environment.
``--trace 0`` reports the end-to-end metrics (tracing off); ``--trace 1``
runs one untraced and one traced pass and reports the per-layer metrics.
``--self-test corrupt|falsify`` breaks one expected value, or runs the
program's ``falsify_oracle`` mode, to show that the checks catch it.

Exit codes: 0 all outputs correct, 1 some output check failed, 2 the
benchmark could not run (for example, no spanlab source beside it).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from math import ceil
from pathlib import Path

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_out"
SETUP_RUNS = 6
# Pinned in this process and in every probe: spanlab's default of one sweep
# thread (the thread pool measured slower), and one BLAS thread so that
# importing numpy starts no thread pool beyond the core count.
PINNED_ENV = {"SPANLAB_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("success_ratio", "ratio"),
)
_LAYERS = ("linalg", "jets", "monomial_ideal", "span", "semigroup", "verify")
_CALLS = ("linalg.incremental_add", "linalg.clear_denominators", "linalg.kernel",
          "linalg.rank", "linalg.rank_at_least", "linalg.rank_mod_p",
          "jets.adapted_basis", "jets.filtration_profile", "jets.check_ideal_propagation",
          "jets.sym_power_dim", "monomial_ideal.equivalence_report",
          "monomial_ideal.generation_degree", "monomial_ideal.move_trace",
          "semigroup.semigroup_of", "cli.main")
_SELF = ("linalg.incremental_add", "linalg.clear_denominators", "linalg.kernel",
         "linalg.rank", "linalg.rank_mod_p", "jets.adapted_basis",
         "jets.filtration_profile", "jets.check_ideal_propagation", "jets.sym_power_dim",
         "jets.system_build", "monomial_ideal.equivalence_report",
         "monomial_ideal.generation_degree", "monomial_ideal.move_trace",
         "monomial_ideal.bigraded_dims", "semigroup.semigroup_of", "cli.main")
PER_LAYER = (
    [(f"{layer}.self_s", "s", "lower") for layer in _LAYERS]
    + [(f"{name}.calls", "count", "lower") for name in _CALLS]
    + [(f"{name}.self_s", "s", "lower") for name in _SELF]
    + [(f"{name}.calls", "count", "lower") for _, _, name in tracer.COUNTED]
    + [("linalg.modp_accept_ratio", "ratio", "higher"),
       ("linalg.cells_in", "cells", "lower"),
       ("jets.adapted_basis.per_system", "calls/system", "lower")]
    + [(f"verify.{suite}.s", "s", "lower") for suite in workloads.SUITE_CHECKED]
    + [("trace.wall_s", "s", "lower"), ("trace.untraced_wall_s", "s", "lower"),
       ("trace.overhead_ratio", "ratio", "lower")]
)


class SetupFailed(Exception):
    pass


def child_env() -> dict:
    return {**os.environ, **PINNED_ENV}


def setup_times(workload: str, seed: int, runs: int, warm_up=False) -> list[float]:
    """Times from starting a fresh interpreter to spanlab.cli imported and
    the workload's inputs built.  With ``warm_up``, one untimed run first
    writes the bytecode cache, which users pay once, not on every start."""
    cmd = [sys.executable, str(BENCH / "probe.py"), workload, str(seed)]
    times = []
    for i in range(runs + warm_up):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.communicate(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise SetupFailed(f"set-up probe exited {proc.returncode} before it was ready")
        if i or not warm_up:
            times.append(elapsed)
    return times


def tail_latency(values) -> float:
    """Nearest-rank 99th percentile when there are at least 1000 samples, so
    that ten lie beyond it; otherwise (the sweeps' few passes) the median."""
    n = len(values)
    if n < 1000:
        return statistics.median(values)
    return sorted(values)[ceil(0.99 * n) - 1]


def measure(work, seconds: float):
    """Run passes while the next one should still end within the budget."""
    deadline = time.perf_counter() + seconds
    results = []
    while True:
        start = time.perf_counter()
        results.append(work.run_pass(len(results)))
        now = time.perf_counter()
        if now + (now - start) > deadline:
            return results


def end_to_end(results, setup_s: float) -> dict:
    latencies = [x for r in results for x in r.latencies]
    attempted = sum(r.attempted for r in results)
    failed = sum(len(r.failures) for r in results)
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(r.wall_s for r in results),
        "query_p50_ms": statistics.median(latencies) * 1e3,
        "query_p99_ms": tail_latency(latencies) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_ratio": 1 - failed / attempted,
    }


def per_layer(tr: tracer.Tracer, traced_wall: float, untraced_wall: float) -> dict:
    agg = tr.aggregate()
    calls = {name: v[0] for name, v in agg.items()}
    self_s = {name: v[1] for name, v in agg.items()}
    out = {}
    for layer in _LAYERS:
        out[f"{layer}.self_s"] = sum(s for name, s in self_s.items()
                                     if name.startswith(layer + "."))
    out.update({f"{name}.calls": calls.get(name, 0) for name in _CALLS})
    out.update({f"{name}.self_s": self_s.get(name, 0.0) for name in _SELF})
    out.update({f"{name}.calls": tr.counts[name] for _, _, name in tracer.COUNTED})
    # rank_at_least accepts from the modular rank alone unless it had to
    # call the exact rank as well.
    certified = [kids for kids in tr.children_named("linalg.rank_at_least")
                 if "linalg.rank_mod_p" in kids]
    out["linalg.modp_accept_ratio"] = (
        sum("linalg.rank" not in kids for kids in certified) / len(certified)
        if certified else 0.0)
    out["linalg.cells_in"] = tr.counts["linalg.cells_in"]
    out["jets.adapted_basis.per_system"] = (
        calls.get("jets.adapted_basis", 0) / len(tr.systems) if tr.systems else 0.0)
    for suite in workloads.SUITE_CHECKED:
        out[f"verify.{suite}.s"] = agg.get(f"verify.{suite}", (0, 0.0, 0.0))[2]
    out["trace.wall_s"] = traced_wall
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.overhead_ratio"] = traced_wall / untraced_wall - 1
    return out


def traced_run(work, workload: str):
    """One untraced pass, then the same pass traced; spans go to .bench_out/."""
    base = work.run_pass(0)
    tr = tracer.Tracer()
    tr.install()
    try:
        result = work.run_pass(0, tr)
    finally:
        tr.uninstall()
    tr.write(TRACE_DIR / f"trace-{workload}.json.gz")
    return [base, result], per_layer(tr, result.wall_s, base.wall_s)


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "spanlab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "numpy": getattr(sys.modules.get("numpy"), "__version__", None),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        **PINNED_ENV,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", choices=workloads.SELF_TESTS, default=None)
    args = parser.parse_args(argv)

    if not (SRC / "spanlab" / "__init__.py").is_file():
        print(f"error: no spanlab package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(SRC))
    import spanlab.cli  # noqa: F401  (what every probe imports, so tracing finds cli.main)
    work = workloads.make(args.workload, args.seed, args.self_test)

    if args.trace:
        results, metrics = traced_run(work, args.workload)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        # Half the set-up probes run before the passes and half after, so
        # that their median spans more of the machine's slow and fast spells.
        try:
            setup = setup_times(args.workload, args.seed, SETUP_RUNS // 2, warm_up=True)
            results = measure(work, args.seconds)
            setup += setup_times(args.workload, args.seed, SETUP_RUNS - SETUP_RUNS // 2)
        except (SetupFailed, OSError, subprocess.SubprocessError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        metrics = end_to_end(results, statistics.median(setup))
        units = dict(END_TO_END)
    assert metrics.keys() == units.keys()

    attempted = sum(r.attempted for r in results)
    failures = [f for r in results for f in r.failures]
    samples = sum(len(r.latencies) for r in results)
    print(f"env: {json.dumps(environment(), sort_keys=True)}")
    print(f"{args.workload} seed {args.seed} trace {args.trace}: {len(results)} passes, "
          f"{samples} latency samples, {len(failures)} of {attempted} ops failed "
          f"(fail_ratio {len(failures) / attempted:.6g})")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
