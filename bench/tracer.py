"""Span tracer that wraps the package's layer boundaries from outside.

The package source is not changed.  For each traced function the tracer
finds every package module that binds the function object under some
name (the defining module and every ``from .x import f`` site) and rebinds
that name to a wrapper, so a call such as ``classify -> sheaf`` or
``sheaf -> exactlp`` opens a span whichever module makes it.  Layers are
the package modules; a span's self time is its duration minus the time of
its child spans, and a layer's self time is the sum over its spans.

Untraced helpers called across modules count toward the caller's self
time.  Spans are kept in memory and written out when the benchmark ends.
"""

from __future__ import annotations

import functools
import sys
import time
from fractions import Fraction

PACKAGE = "contextuality"
LAYERS = ("cli", "classify", "scenario", "sheaf", "polytope", "exactlp",
          "embedding", "quantum", "qsl")


def _lp_shape(args) -> tuple:
    try:
        rows = args[0]
        return len(rows), (len(rows[0]) if len(rows) else 0)
    except (IndexError, TypeError):
        return 0, 0


def _den_bits(values) -> int:
    best = 0
    for v in values or ():
        if isinstance(v, Fraction):
            best = max(best, v.denominator.bit_length())
    return best


def _observe_solve(args, kwargs, result) -> dict:
    m, n = _lp_shape(args)
    feasible = bool(getattr(result, "feasible", result))
    cert = getattr(result, "x", None) if feasible else getattr(result, "farkas", None)
    return {"m": m, "n": n, "feasible": feasible, "den_bits": _den_bits(cert)}


def _observe_box(args, kwargs, result) -> dict:
    m, n = _lp_shape(args)
    return {"m": m, "n": n, "feasible": result is not None,
            "den_bits": _den_bits(result)}


def _observe_rationalize(args, kwargs, result) -> dict:
    return {"passthrough": bool(args) and result is args[0]}


def _observe_section(args, kwargs, result) -> dict:
    try:
        rows, cols = result.matrix.shape
    except AttributeError:
        rows, cols = 0, 0
    return {"rows": rows, "columns": cols}


def _observe_count(args, kwargs, result) -> dict:
    try:
        return {"count": len(result)}
    except TypeError:
        return {"count": 0}


# (defining module, function, observer).  A name missing from the package
# is skipped, so the list can outlive refactors of any one module.
TARGETS = (
    ("classify", "classify", None),
    ("classify", "parse_document", None),
    ("classify", "report_to_json", None),
    ("classify", "classify_model", None),
    ("classify", "classify_quantum", None),
    ("classify", "classify_gpt", None),
    ("classify", "classify_prep_ensemble", None),
    ("classify", "prep_ensemble_from_json", None),
    ("classify", "bipartite_structure", None),
    ("scenario", "model_from_json", None),
    ("scenario", "from_quantum", None),
    ("scenario", "validate_no_disturbance", None),
    ("scenario", "rationalize_model", _observe_rationalize),
    ("scenario", "make_model", None),
    ("scenario", "make_scenario", None),
    ("sheaf", "solve_global_section", _observe_section),
    ("sheaf", "build_incidence_matrix", None),
    ("polytope", "membership_lp", None),
    ("polytope", "enumerate_ld_vertices", _observe_count),
    ("polytope", "rationalize_behaviour", None),
    ("polytope", "csw_inequality", None),
    ("polytope", "contextuality_to_bell", None),
    ("polytope", "singlet_behaviour", None),
    ("exactlp", "solve_eq_nonneg", _observe_solve),
    ("exactlp", "solve_eq_nonneg_pruned", _observe_solve),
    ("exactlp", "hulls_intersect", None),
    ("exactlp", "solve_box_eq", _observe_box),
    ("exactlp", "check_farkas", None),
    ("exactlp", "check_solution", None),
    ("exactlp", "enumerate_vertices", None),
    ("embedding", "embed_sharp", None),
    ("embedding", "embed_search", None),
    ("embedding", "prep_nc_check", None),
    ("embedding", "pusey_incomplete_check", None),
    ("embedding", "build_assignment_polytope", None),
    ("embedding", "six_ensemble_statistics", None),
    ("embedding", "gpt_from_json", None),
    ("embedding", "sharp_gpt_from_quantum", None),
    ("embedding", "induced_model", None),
    ("embedding", "qubit_prep_ensemble", None),
    ("embedding", "consistent_assignments", None),
    ("embedding", "_hull_pair_feasibility", None),
    ("embedding", "_equivalence_system", None),
    ("quantum", "kcbs_construction", None),
    ("quantum", "peres_mermin_square", None),
    ("quantum", "pvm_from_observable", None),
    ("quantum", "projective_context", None),
    ("quantum", "matrix_from_json", None),
    ("quantum", "random_density", None),
    ("quantum", "werner_state", None),
    ("quantum", "bloch_state", None),
    ("quantum", "eigen_projector", None),
    ("quantum", "validate_density", None),
    ("qsl", "qsl_compare", None),
    ("qsl", "run_program", None),
)

# Span record fields.
NAME, LAYER, PARENT, START, END, OP, INFO = range(7)


class Tracer:
    """Records spans as lists [name, layer, parent, start, end, op, info]."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op = -1
        self._patches: list = []

    def wrap(self, name: str, layer: str, fn, observe=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, layer, stack[-1] if stack else -1, 0.0, 0.0,
                      self.op, None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if observe is not None:
                record[INFO] = observe(args, kwargs, result)
                # Observation is tracer work: book it as a child span so it
                # is not charged to the caller's layer.
                spans.append(["trace.observe", "trace", record[PARENT],
                              record[END], clock(), self.op, None])
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every target at every binding site."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE
                                         or name.startswith(PACKAGE + "."))]
        for layer, fname, observe in TARGETS:
            home = sys.modules.get(f"{PACKAGE}.{layer}")
            fn = getattr(home, fname, None) if home is not None else None
            if not callable(fn):
                continue
            wrapper = self.wrap(f"{layer}.{fname}", layer, fn, observe)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()


def self_times(spans) -> dict:
    """Self seconds per layer: span durations minus their children's."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    out: dict = {}
    for i, rec in enumerate(spans):
        out[rec[LAYER]] = out.get(rec[LAYER], 0.0) + (rec[END] - rec[START]) - child[i]
    return out


def ancestors(spans, index: int):
    parent = spans[index][PARENT]
    while parent >= 0:
        yield spans[parent]
        parent = spans[parent][PARENT]
