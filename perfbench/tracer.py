"""Outside-in span tracer for spanlab's layers.

The tracer never edits spanlab's source.  ``install`` replaces each traced
function with a wrapper, both in the module that defines it and in every
``spanlab`` module that bound it by name (``from .jets import ...``), and
``uninstall`` puts the originals back.  A wrapper records one span: name,
start, end and the index of the enclosing span.  The hottest helpers get
wrappers that only count calls, because a span per call would cost more than
the helper itself.  Spans stay in memory until ``write`` dumps them.

A span's self time is its duration minus the durations of its direct child
spans.  A call counts once even when it nests inside a span of the same name
(``left_kernel_basis`` calling ``right_kernel_basis`` is one kernel call).
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, function, span name).  Several functions may share a span name.
SPANS = (
    ("spanlab._linalg", "clear_denominators", "linalg.clear_denominators"),
    ("spanlab._linalg", "rank", "linalg.rank"),
    ("spanlab._linalg", "right_kernel_basis", "linalg.kernel"),
    ("spanlab._linalg", "left_kernel_basis", "linalg.kernel"),
    ("spanlab._linalg", "rank_mod_p", "linalg.rank_mod_p"),
    ("spanlab._linalg", "rank_at_least", "linalg.rank_at_least"),
    ("spanlab.jets", "monomial_system", "jets.system_build"),
    ("spanlab.jets", "perturbed_system", "jets.system_build"),
    ("spanlab.jets", "reparametrized_system", "jets.system_build"),
    ("spanlab.jets", "adapted_basis", "jets.adapted_basis"),
    ("spanlab.jets", "sym_power_dim", "jets.sym_power_dim"),
    ("spanlab.jets", "is_m_maximal", "jets.is_m_maximal"),
    ("spanlab.jets", "filtration_profile", "jets.filtration_profile"),
    ("spanlab.jets", "check_ideal_propagation", "jets.check_ideal_propagation"),
    ("spanlab.jets", "degree_genus_estimate", "jets.degree_genus_estimate"),
    ("spanlab.monomial_ideal", "bigraded_dims", "monomial_ideal.bigraded_dims"),
    ("spanlab.monomial_ideal", "weight_class", "monomial_ideal.weight_class"),
    ("spanlab.monomial_ideal", "t_neighbors", "monomial_ideal.t_neighbors"),
    ("spanlab.monomial_ideal", "equivalence_report", "monomial_ideal.equivalence_report"),
    ("spanlab.monomial_ideal", "generation_degree", "monomial_ideal.generation_degree"),
    ("spanlab.monomial_ideal", "move_trace", "monomial_ideal.move_trace"),
    ("spanlab.monomial_ideal", "ap_move_strategy", "monomial_ideal.ap_move_strategy"),
    ("spanlab.span", "power_sumset", "span.power_sumset"),
    ("spanlab.span", "span", "span.span"),
    ("spanlab.span", "span_sequence", "span.span_sequence"),
    ("spanlab.span", "chain_values", "span.chain_values"),
    ("spanlab.span", "classify", "span.classify"),
    ("spanlab.semigroup", "semigroup_of", "semigroup.semigroup_of"),
    ("spanlab.semigroup", "curve_invariants", "semigroup.curve_invariants"),
    ("spanlab.semigroup", "hilbert_polynomial", "semigroup.hilbert_polynomial"),
    ("spanlab.semigroup", "stabilization_threshold", "semigroup.stabilization_threshold"),
    ("spanlab.cli", "main", "cli.main"),
)
# Called hundreds of thousands of times per pass: counted, not timed.
COUNTED = (
    ("spanlab.monomial_ideal", "exchange_degree", "monomial_ideal.exchange_degree"),
    ("spanlab.monomial_ideal", "apply_move", "monomial_ideal.apply_move"),
    ("spanlab.monomial_ideal", "weight", "monomial_ideal.weight"),
)
# Whole-matrix entry points of _linalg, for linalg.cells_in.
_MATRIX_SPANS = {"linalg.rank", "linalg.kernel", "linalg.rank_mod_p", "linalg.rank_at_least"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list[int]] = []  # [name id, start ns, end ns, parent index]
        self.counts: dict[str, int] = defaultdict(int)
        self.systems: dict[int, object] = {}  # distinct JetSystems seen by adapted_basis
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one suite."""
        rec = [self._name_id(name), 0, 0, self._stack[-1]]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()

    def _span_wrapper(self, name: str, fn):
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        note = self._note_input(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if note is not None:
                note(args)
            rec = [nid, 0, 0, stack[-1]]
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _from_outside_linalg(self) -> bool:
        parent = self._stack[-1]
        return parent < 0 or not self.names[self.spans[parent][0]].startswith("linalg.")

    def _note_input(self, name: str):
        """Per-call bookkeeping beyond the span itself, or None."""
        if name in _MATRIX_SPANS:
            def note(args):
                rows = args[0]
                if self._from_outside_linalg() and isinstance(rows, (list, tuple)) and rows:
                    self.counts["linalg.cells_in"] += len(rows) * len(rows[0])
            return note
        if name == "linalg.incremental_add":
            def note(args):
                if self._from_outside_linalg() and hasattr(args[1], "__len__"):
                    self.counts["linalg.cells_in"] += len(args[1])
            return note
        if name == "jets.adapted_basis":
            def note(args):
                self.systems.setdefault(id(args[0]), args[0])
            return note
        return None

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "spanlab" or n.startswith("spanlab."))]
        for table, make in ((SPANS, self._span_wrapper), (COUNTED, self._count_wrapper)):
            for module_name, attr, name in table:
                original = getattr(sys.modules.get(module_name), attr, None)
                if original is None:
                    print(f"tracer: {module_name}.{attr} not found; its metrics read 0",
                          file=sys.stderr)
                    continue
                wrapper = make(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, key, original))
                            setattr(module, key, wrapper)
        linalg = sys.modules["spanlab._linalg"]
        original = linalg.IncrementalRank.add
        self._patches.append((linalg.IncrementalRank, "add", original))
        linalg.IncrementalRank.add = self._span_wrapper("linalg.incremental_add", original)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def aggregate(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, self seconds, total seconds)."""
        child_ns = [0] * len(self.spans)
        for name_id, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        total_ns: dict[str, int] = defaultdict(int)
        for i, (name_id, start, end, parent) in enumerate(self.spans):
            name = self.names[name_id]
            self_ns[name] += end - start - child_ns[i]
            if parent < 0 or self.spans[parent][0] != name_id:
                calls[name] += 1
                total_ns[name] += end - start
        return {name: (calls[name], self_ns[name] / 1e9, total_ns[name] / 1e9)
                for name in self_ns}

    def children_named(self, parent_name: str) -> list[set[str]]:
        """For each span called parent_name, the names of its direct children."""
        pid = self._name_ids.get(parent_name)
        kids: dict[int, set[str]] = {i: set() for i, s in enumerate(self.spans) if s[0] == pid}
        for name_id, _, _, parent in self.spans:
            if parent in kids:
                kids[parent].add(self.names[name_id])
        return list(kids.values())

    def write(self, path):
        """Dump every span and counter as gzipped JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "counts": dict(self.counts)}, fh, separators=(",", ":"))
