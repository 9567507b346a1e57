"""Global-section feasibility: the joint-distribution test for empirical models.

An empirical model extends to a single joint distribution over all
measurements exactly when the linear system ``M x = v, x >= 0`` is feasible,
where rows of the Boolean incidence matrix ``M`` index (context, local
section) pairs, columns index global outcome assignments, and ``v`` stacks
the context tables.  ``M`` is column-sparse: each column holds exactly one 1
per context, at the row of the assignment's section there, and is computed
once per assignment.  Feasibility is decided with the exact rational solver,
so every verdict ships a certificate: feasible verdicts carry the weights of
a hidden-variable model, infeasible verdicts carry a separating functional
``y`` with ``y^T M <= 0`` and ``y^T v > 0``, both re-checked by direct
multiplication before they are returned.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .exactlp import (
    SparseColumns,
    TooLargeError,
    format_fraction,
    require_certificate,
    solve_eq_nonneg_pruned,
)
from .scenario import EmpiricalModel, MeasurementScenario, make_model, rationalize_model

# One column per global assignment: a 2**20-column section, such as a sharp
# GPT's induced model with 20 atoms, already peaks near 0.5 GB.
MAX_ASSIGNMENTS = 2 ** 20


class InvalidCertificate(ValueError):
    pass


def enumerate_local_sections(scenario: MeasurementScenario) -> list[tuple]:
    """All (context, joint outcome) pairs; contexts in declared order, outcomes lexicographic."""
    out = []
    for ctx in scenario.contexts:
        for sec in scenario.outcome_tuples(ctx):
            out.append((ctx, sec))
    return out


def global_assignment_count(scenario: MeasurementScenario) -> int:
    return prod(len(scenario.outcomes[m]) for m in scenario.measurements)


def enumerate_global_assignments(scenario: MeasurementScenario) -> list[tuple]:
    """All outcome assignments over every measurement, lexicographic in declared order."""
    return list(itertools.product(*(scenario.outcomes[m] for m in scenario.measurements)))


@dataclass(frozen=True)
class IncidenceMatrix:
    """Boolean section-vs-assignment matrix with its row and column labels.

    ``columns[j]`` lists the rows holding a 1 in column ``j``: the row of
    assignment ``j``'s section in each context, in context order.
    """

    scenario: MeasurementScenario
    rows: tuple
    assignments: tuple
    columns: tuple

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.assignments))

    def sparse(self) -> SparseColumns:
        """The matrix in the exact solver's column form."""
        ones = (1,) * len(self.scenario.contexts)
        return SparseColumns(len(self.rows), tuple((c, ones) for c in self.columns))


def build_incidence_matrix(scenario: MeasurementScenario) -> IncidenceMatrix:
    """Entry (i, j) is 1 iff global assignment j restricts to local section i.

    Column j holds one 1 per context, at the context's first row plus the
    lexicographic rank of j's section there.  The ranks of all assignments
    in one context are built measurement by measurement in the assignments'
    own lexicographic order, so no assignment is projected row by row.
    """
    q = global_assignment_count(scenario)
    if q > MAX_ASSIGNMENTS:
        raise TooLargeError(
            f"{q} global assignments exceed the supported {MAX_ASSIGNMENTS}")
    rows = enumerate_local_sections(scenario)
    assignments = enumerate_global_assignments(scenario)
    per_context = []
    offset = 0
    for ctx in scenario.contexts:
        stride, size = {}, 1
        for m in reversed(ctx):
            stride[m] = size
            size *= len(scenario.outcomes[m])
        ranks = [offset]
        for m in scenario.measurements:
            steps = [d * stride.get(m, 0) for d in range(len(scenario.outcomes[m]))]
            ranks = [r + t for r in ranks for t in steps]
        per_context.append(ranks)
        offset += size
    return IncidenceMatrix(scenario=scenario, rows=tuple(rows),
                           assignments=tuple(assignments),
                           columns=tuple(zip(*per_context)))


@dataclass(frozen=True)
class SectionFeasibility:
    """LP outcome plus the data needed to re-check it independently."""

    feasible: bool
    primal: tuple | None
    dual: tuple | None
    matrix: IncidenceMatrix
    model: EmpiricalModel

    @property
    def verdict(self) -> str:
        return "feasible" if self.feasible else "infeasible"

    def certificate(self) -> dict:
        cert: dict = {"kind": "global-section", "verdict": self.verdict}
        if self.primal is not None:
            cert["primal"] = [format_fraction(x) for x in self.primal]
        if self.dual is not None:
            cert["dual"] = [format_fraction(y) for y in self.dual]
        cert["rows"] = ["|".join([",".join(map(str, ctx)), ",".join(map(str, sec))])
                        for ctx, sec in self.matrix.rows]
        cert["rhs"] = [format_fraction(self.model.tables[ctx][sec])
                       for ctx, sec in self.matrix.rows]
        return cert


def solve_global_section(model: EmpiricalModel) -> SectionFeasibility:
    """Exact feasibility of the global-section system for a (rationalized) model.

    The model is first replaced by a nearby exactly-consistent rational model
    (`rationalize_model`), so the verdict is a statement about exact data;
    `model` of the result is that exact model.  This is the one place that
    rationalizes: callers hand over the parsed model as it is.  Raises
    `DisturbingModel` when the input marginals disagree beyond 1e-9, and
    `TooLargeError` when the scenario has more than `MAX_ASSIGNMENTS`
    global assignments.
    """
    rational = rationalize_model(model)
    matrix = build_incidence_matrix(model.scenario)
    v = [rational.tables[ctx][sec] for ctx, sec in matrix.rows]
    a = matrix.sparse()
    result = require_certificate(a, v, solve_eq_nonneg_pruned(a, v), "global-section")
    return SectionFeasibility(feasible=result.feasible, primal=result.x,
                              dual=result.farkas, matrix=matrix, model=rational)


@dataclass(frozen=True)
class HiddenVariableModel:
    """Finite hidden-variable model with deterministic factorising responses.

    Each hidden state assigns one outcome to every measurement; responses are
    Dirac deltas on the assigned outcomes, so joint responses factorise across
    the measurements of any context by construction.
    """

    scenario: MeasurementScenario
    assignments: tuple
    weights: tuple

    def response(self, assignment: dict, context) -> dict:
        """Joint response of one hidden state on a context: a Dirac table."""
        context = self.scenario.canonical_context(context)
        point = tuple(assignment[m] for m in context)
        return {sec: Fraction(1) if sec == point else Fraction(0)
                for sec in self.scenario.outcome_tuples(context)}

    def induced_model(self) -> EmpiricalModel:
        """Push the hidden-state mixture forward to context tables (exact)."""
        tables = {}
        for ctx in self.scenario.contexts:
            table = {sec: Fraction(0) for sec in self.scenario.outcome_tuples(ctx)}
            for lam, w in zip(self.assignments, self.weights):
                table[tuple(lam[m] for m in ctx)] += w
            tables[ctx] = table
        return make_model(self.scenario, tables)


def hv_model_from_section(weights, scenario: MeasurementScenario) -> HiddenVariableModel:
    """Hidden-variable model supported on the assignments a primal certificate selects."""
    assignments = enumerate_global_assignments(scenario)
    weights = [w if isinstance(w, Fraction) else Fraction(w) for w in weights]
    if len(weights) != len(assignments):
        raise InvalidCertificate(
            f"expected {len(assignments)} weights, got {len(weights)}")
    if any(w < 0 for w in weights):
        raise InvalidCertificate("negative weight in primal certificate")
    if sum(weights) != 1:
        raise InvalidCertificate(f"weights sum to {sum(weights)}, not 1")
    support = [(t, w) for t, w in zip(assignments, weights) if w > 0]
    lams = tuple(dict(zip(scenario.measurements, t)) for t, _ in support)
    return HiddenVariableModel(scenario=scenario, assignments=lams,
                               weights=tuple(w for _, w in support))
