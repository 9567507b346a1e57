"""Independent oracles shared by the solver and acceptance tests.

The numeric oracles recompute expected values from first principles (Born
rule plus a planar angle grid) without touching the package's solvers, so a
test agreeing with them is evidence rather than circularity.
`reference_solve_eq_nonneg` is the plain ``Fraction`` simplex the exact LP
kernel must match pivot for pivot, on listed columns by Bland's rule and on
the section source by the largest score and the same phase-1 costs, once
`orient_rows` has made the right-hand side nonnegative as the kernel requires;
`reference_incidence_rows` the dense row-by-row incidence matrix the
implicit global-section matrix must equal, and `reference_argmax` the column-by-column scan its
elimination oracle must agree with.  `reference_section_plan` builds a
scenario's section plan (elimination gathers, decode strides, lookup
positions, row basis, costs and restricted row maps) pass by pass, as the
package built it before its one-pass plan.
`reference_solve_box_eq` is the dense box LP the package once built for
stage 3 of its rationalizers, and `reference_solve_box` its retry loop
around the rounded floats, on that simplex.
`reference_membership_lp` (the dense-vertex local-polytope LP over its own
vertex list `ld_vertex_boxes`) and `reference_hulls_intersect` run on that
reference simplex, and `brute_force_lift_maximum` scans all 4^n strategy
pairs of a two-party lift, so none of them shares code with the package's
solvers.  `enumerate_vertices` lists the vertices of ``{x >= 0 : A x = b}``
by row-reducing every candidate basis in ``Fraction`` arithmetic; the
assignment-polytope scan, which decides hull intersections by LP without
vertices, is checked against it.  `cycle_margin` is the n-cycle
noncontextuality inequality (Araújo et al., PRL 110, 040403, 2013) read
off the correlators alone.  `reference_consistent_assignments` enumerates
a sharp GPT's 0/1 atom assignments by backtracking over its contexts, and
`reference_sharp_mixture` is the per-state mixture LP over them on
`reference_solve_eq_nonneg`: the sharp embedding route the package now
reads off the global-section LP, kept as an independent second route.
`brute_force_facets` lists the facets of a cone from every
(dim - 1)-subset of its generators, against the package's double
description.  `exactly_consistent` sums an exact model's tables and
overlap marginals entry by entry in ``Fraction`` arithmetic, and
`worst_marginal_gap` finds the largest gap between two such marginals,
against the package's integer checks by position.  `reference_born_tables` and
`reference_sharp_atoms` are the per-context product loops that once built
a quantum document's Born tables and sharp atoms one matrix product at a
time, against the package's one batched pass.  `gpt_from_data` rebuilds
a tomographically minimal GPT from an effects-by-states table by an SVD
factorization, for tests that need a GPT given only its statistics.
`hv_model_from_section` reads a section's primal certificate as a
`HiddenVariableModel` of deterministic responses, whose pushed-forward
tables must give back the model.  `enumerate_global_assignments` lists a
scenario's global assignments, which the package never lists.
`reference_rational_literal` and `reference_model_from_json` read exact
documents as the package once did, ``Fraction(str)`` per literal and one
entry, token scan and table at a time, against its one integer pass;
`behaviour_to_json` and `behaviour_from_json` write and read the two-party
behaviour documents of the tests, `behaviour_table` and `correlator` read a
`make_behaviour` model by its labels, and `pr_box_model` is the
Popescu-Rohrlich box as such a model.  `reference_bipartite_structure`
finds a complete two-party layout by two-colouring the co-occurrence
graph, against the package's neighbour read-off.  The last sections hold
helpers that only tests use: sequential-measurement statistics and their
flip-error bounds, unitarity and partial-trace checks, Haar-random
unitaries, `shared_atom_gpt`, whose first sharp context has no atom of
its own, the reduction of a state-independent set to a state-dependent
one, and the replay of one shot of the two-bit simulator from its
randomness word.  `require` fails a test by a raise, so a check written
with it also runs under ``python -O``.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from typing import NamedTuple, Sequence

import numpy as np
import pytest

from contextuality.embedding import (
    RANK_TOL,
    Gpt,
    GptError,
    InconsistentUnit,
    make_gpt,
    sharp_gpt_from_quantum,
)
from contextuality.exactlp import Feasibility, TooLargeError
from contextuality.polytope import make_behaviour
from contextuality.qsl import _GATE_FUNCS, QslProgram, qsl_measure, qsl_prepare
from contextuality.quantum import (
    EQUALITY_TOL,
    _as_matrix,
    eigen_projector,
    projective_context,
    sup_norm,
)
from contextuality.record import Record
from contextuality.scenario import (
    EmpiricalModel,
    MeasurementScenario,
    make_model,
    make_scenario,
    rational_literal,
)


def require(condition, message: str) -> None:
    """Fail with ``message``: a raise, so it also checks under ``python -O``."""
    if not condition:
        pytest.fail(message)


PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def correlator_grid(angles_a, angles_b, alpha=1.0):
    """Born-rule correlator matrix E[i, j], computed from first principles."""
    w = alpha * np.array([[0, 0, 0, 0], [0, 0.5, -0.5, 0],
                          [0, -0.5, 0.5, 0], [0, 0, 0, 0]], dtype=complex) \
        + (1 - alpha) / 4 * np.eye(4)
    e = np.empty((len(angles_a), len(angles_b)))
    for i, ta in enumerate(angles_a):
        oa = np.cos(ta) * PAULI_Z + np.sin(ta) * PAULI_X
        for j, tb in enumerate(angles_b):
            ob = np.cos(tb) * PAULI_Z + np.sin(tb) * PAULI_X
            e[i, j] = np.trace(w @ np.kron(oa, ob)).real
    return e


def grid_scan_max(alpha=1.0):
    """Two-stage maximisation of the two-setting functional over planar angles."""
    def stage(angles_a, angles_b):
        e = correlator_grid(angles_a, angles_b, alpha)
        s = (np.abs(e[:, None, :, None] - e[:, None, None, :])
             + np.abs(e[None, :, :, None] + e[None, :, None, :]))
        best = np.unravel_index(np.argmax(s), s.shape)
        return s[best], best

    coarse_a = np.linspace(0, 2 * np.pi, 40, endpoint=False)
    coarse_b = np.linspace(0, 2 * np.pi, 40, endpoint=False)
    val, (i1, i2, j1, j2) = stage(coarse_a, coarse_b)
    step = 2 * np.pi / 40
    fine = max(
        stage(np.concatenate([np.linspace(coarse_a[i] - step, coarse_a[i] + step, 41)
                              for i in (i1, i2)]),
              np.concatenate([np.linspace(coarse_b[j] - step, coarse_b[j] + step, 41)
                              for j in (j1, j2)]))[0],
        val)
    return fine


def orient_rows(a_rows, b) -> tuple[list, list]:
    """``A x = b`` with each row of negative ``b_i`` negated, so that ``b >= 0``,
    as the exact LP kernel requires."""
    rows = [[-v for v in row] if bi < 0 else list(row) for row, bi in zip(a_rows, b)]
    return rows, [abs(bi) for bi in b]


def reference_solve_eq_nonneg(a_rows: Sequence[Sequence[Fraction]],
                              b: Sequence[Fraction],
                              largest: bool = False,
                              costs: Sequence[int] | None = None,
                              start: Sequence[int] = ()) -> Feasibility:
    """The plain ``Fraction`` simplex that ``solve_eq_nonneg`` runs in integers.

    Dense revised phase-1 simplex with an explicit rational B^-1, Bland's
    entering column (or, with ``largest``, the column of largest
    ``y^T a_j``, ties to the smallest ``j``) and the lexicographic ratio
    test.  The columns ``start`` are offered first, in order: each enters
    when ``y^T a_j > 0`` and is passed over otherwise.  Artificial ``i``
    costs ``costs[i]`` in the phase-1 objective, 1 when ``costs`` is
    None.  The package's integer-preserving kernel
    must return equal ``Feasibility`` objects, on `SparseColumns` against
    Bland's rule and on the section source against the largest score and
    the row costs: the same pivots give the same solution or Farkas vector.
    """
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    if m == 0:
        return Feasibility(True, x=tuple(Fraction(0) for _ in range(n)))
    cost = [1] * m if costs is None else list(costs)
    sign = [1] * m
    cols: list[list[Fraction]] = [[Fraction(0)] * m for _ in range(n)]
    rhs: list[Fraction] = []
    for i, row in enumerate(a_rows):
        bi = Fraction(b[i])
        if bi < 0:
            sign[i] = -1
            bi = -bi
        rhs.append(bi)
        for j in range(n):
            v = Fraction(row[j])
            cols[j][i] = -v if sign[i] < 0 else v

    # Artificial variable i (column id n+i) starts basic in row i; B^-1 = I.
    binv = [[Fraction(int(i == k)) for k in range(m)] for i in range(m)]
    basis = list(range(n, n + m))
    in_basis = [False] * n
    xb = rhs[:]

    def dual() -> list[Fraction]:
        # y = c_B B^-1: each row still holding artificial k - n, times its cost.
        return [sum(cost[basis[k] - n] * binv[k][i] for k in range(m) if basis[k] >= n)
                for i in range(m)]

    offered = list(reversed(start))
    while True:
        y = dual()
        enter, top = -1, 0
        while offered and enter < 0:
            j = offered.pop()
            if sum(y[i] * cols[j][i] for i in range(m)) > 0:
                enter = j
        for j in range(n if enter < 0 else 0):
            # Bland's first improving column, or the largest score.
            if in_basis[j]:
                continue
            score = sum(y[i] * cols[j][i] for i in range(m))
            if score > top:
                enter, top = j, score
                if not largest:
                    break
        if enter < 0:
            break
        d = [sum(binv[i][k] * cols[enter][k] for k in range(m)) for i in range(m)]
        # Lexicographic ratio test: the smallest (x_i, B^-1 row i read from
        # its last entry back) / d_i over d_i > 0.
        leave = -1
        best: list | None = None
        for i in range(m):
            if d[i] > 0:
                key = [xb[i] / d[i]] + [v / d[i] for v in reversed(binv[i])]
                if best is None or key < best:
                    best = key
                    leave = i
        if leave < 0:
            raise ArithmeticError("phase-1 simplex unbounded; inputs inconsistent")
        piv = d[leave]
        binv[leave] = [v / piv for v in binv[leave]]
        xb[leave] /= piv
        for i in range(m):
            if i != leave and d[i] != 0:
                f = d[i]
                lrow = binv[leave]
                binv[i] = [binv[i][k] - f * lrow[k] for k in range(m)]
                xb[i] -= f * xb[leave]
        if basis[leave] < n:
            in_basis[basis[leave]] = False
        basis[leave] = enter
        in_basis[enter] = True

    residual = sum(xb[i] for i in range(m) if basis[i] >= n)
    if residual == 0:
        x = [Fraction(0)] * n
        for i in range(m):
            if basis[i] < n:
                x[basis[i]] = xb[i]
        return Feasibility(True, x=tuple(x))
    y = dual()
    farkas = tuple(y[i] * sign[i] for i in range(m))
    return Feasibility(False, farkas=farkas)


def reference_solve_box_eq(a_rows: Sequence[Sequence[Fraction]],
                           b: Sequence[Fraction],
                           lower: Sequence[Fraction],
                           upper: Sequence[Fraction]) -> list[Fraction] | None:
    """One x with A x = b and lower <= x <= upper, or None, on dense rows.

    The box is solved as x = lower + u with slacks u + t = upper - lower:
    column j is A's column j over row m + j, and slack column n + j is
    e_{m+j}, solved by `reference_solve_eq_nonneg`, whose row orientation
    takes a negative shifted right-hand side.
    """
    m, n = len(a_rows), len(lower)
    if any(upper[j] < lower[j] for j in range(n)):
        return None
    rows = [[Fraction(v) for v in row] + [Fraction(0)] * n for row in a_rows]
    rows += [[Fraction(int(k in (j, n + j))) for k in range(2 * n)] for j in range(n)]
    rhs = [Fraction(b[i]) - sum(Fraction(a_rows[i][j]) * lower[j] for j in range(n))
           for i in range(m)]
    rhs += [Fraction(upper[j]) - Fraction(lower[j]) for j in range(n)]
    res = reference_solve_eq_nonneg(rows, rhs)
    if not res.feasible:
        return None
    return [Fraction(lower[j]) + res.x[j] for j in range(n)]


def reference_solve_box(values: Sequence[float], centres: Sequence[Fraction],
                        rows, rhs, slack: Fraction) -> list[Fraction] | None:
    """`scenario._solve_box`'s retry policy on dense rows and `reference_solve_box_eq`.

    ``rows`` lists each 0/1 row's column indices, which become a dense row
    of ``Fraction`` 0s and 1s.  Each of the 10 attempts doubles the
    half-width; values at or below 1e-9 are pinned to 0 for the first 5
    attempts and centred on ``Fraction.limit_denominator(10 ** 6)`` after that.
    """
    dense = [[Fraction(int(k in set(row))) for k in range(len(values))] for row in rows]
    for attempt in range(10):
        s = slack * 2 ** attempt
        lower, upper = [], []
        for f, c in zip(values, centres):
            if f <= 1e-9:
                if attempt < 5:
                    lower.append(Fraction(0))
                    upper.append(Fraction(0))
                    continue
                c = Fraction(f).limit_denominator(10 ** 6)
            lower.append(max(Fraction(0), c - s))
            upper.append(min(Fraction(1), c + s))
        sol = reference_solve_box_eq(dense, rhs, lower, upper)
        if sol is not None:
            return sol
    return None


def reference_incidence_rows(scenario) -> list[tuple[int, ...]]:
    """Dense 0/1 global-section incidence matrix, projected row by row.

    Row (context, section) in declared context order with sections
    lexicographic; column j is the j-th global assignment, lexicographic in
    declared measurement order.  Entry (i, j) is 1 iff assignment j restricts
    to section i.  This is the construction the column-sparse
    `build_incidence_matrix` replaced.
    """
    rows = [(ctx, sec) for ctx in scenario.contexts
            for sec in itertools.product(*(scenario.outcomes[m] for m in ctx))]
    assignments = list(itertools.product(
        *(scenario.outcomes[m] for m in scenario.measurements)))
    pos = {m: i for i, m in enumerate(scenario.measurements)}
    return [tuple(1 if tuple(t[pos[m]] for m in ctx) == sec else 0
                  for t in assignments)
            for ctx, sec in rows]


def reference_argmax(scenario, y: Sequence, keep=None, outside=()) -> tuple | None:
    """Largest ``y^T a_s`` over every global assignment, and its first maximizer.

    Scores each column of `reference_incidence_rows` in turn; the columns
    run lexicographically in declared order, so the first maximizer is the
    lexicographically smallest one.  With ``keep``, ``y`` has one entry per
    row ``keep[k]``: the rows ``outside`` score 0, and an assignment
    through any other row has no column.  None when no column is left.
    """
    rows = reference_incidence_rows(scenario)
    if keep is None:
        keep = range(len(rows))
    weight = dict(zip(keep, y))
    dead = [row for i, row in enumerate(rows) if i not in weight and i not in outside]
    assignments = itertools.product(*(scenario.outcomes[m] for m in scenario.measurements))
    best = None
    for j, t in enumerate(assignments):
        if any(row[j] for row in dead):
            continue
        score = sum(yi for i, yi in weight.items() if rows[i][j])
        if best is None or score > best[0]:
            best = (score, t)
    return best


def _index_map(union: tuple, scope: tuple, size: list) -> list | None:
    """Where each entry of a table over ``union`` reads a table over ``scope``.

    A table over a scope of measurement positions is mixed-radix in
    ascending position order, the last position varying fastest.  None
    when the two scopes are equal.
    """
    if scope == union:
        return None
    stride, step = {}, 1
    for u in reversed(scope):
        stride[u] = step
        step *= size[u]
    idx = [0]
    for u in union:
        s = stride.get(u, 0)
        idx = [r + d * s for r in idx for d in range(size[u])]
    return idx


class _ReferenceSectionPlan:
    """A scenario's section plan built pass by pass, as the package once built it.

    The elimination's steps come from `_index_map` per bucket part, the
    buffer gathers (``compiled``) map those indices through each table's
    range, ``lookup`` is one dict per context from outcome indices to
    buffer positions, ``basis`` and ``costs`` are derived from the
    sections' outcome tuples, and `restrict` builds the restricted row map
    from per-context section tuples.  ``maximize`` runs the elimination
    over these gathers entry by entry.
    """

    def __init__(self, scenario: MeasurementScenario):
        self.scenario = scenario
        pos = {m: i for i, m in enumerate(scenario.measurements)}
        self.size = size = [len(scenario.outcomes[m]) for m in scenario.measurements]
        scopes = [tuple(pos[m] for m in ctx) for ctx in scenario.contexts]
        self.scopes = tuple(scopes)
        bucket: list[list[int]] = [[] for _ in size]
        for f, scope in enumerate(scopes):
            bucket[scope[-1]].append(f)
        self.elimination = []
        self.message_tables: list[int] = []
        for v in reversed(range(len(size))):
            union = tuple(sorted({u for f in bucket[v] for u in scopes[f]}))
            msg = len(scopes)
            scopes.append(union[:-1])
            (bucket[union[-2]] if len(union) > 1 else self.message_tables).append(msg)
            self.elimination.append((v, union, [(f, _index_map(union, scopes[f], size))
                                                for f in bucket[v]], msg))
        self.decode: list = [None] * len(size)
        for v, union, _, _ in self.elimination:
            strides, step = [], 1
            for u in reversed(union):
                strides.append(step)
                step *= size[u]
            self.decode[v] = (union[:-1], tuple(reversed(strides))[:-1])
        # ``compiled``: the gathers on a buffer of every section, then the messages.
        end, tables = 0, []
        for scope in self.scopes:
            start, end = end, end + math.prod(size[u] for u in scope)
            tables.append(range(start, end))
        self.sections = tables[:]
        rows = end
        self.steps = []
        for v, union, parts, _ in self.elimination:
            start, end = end, end + math.prod(size[u] for u in union[:-1])
            gathers = [tuple(tables[f] if idx is None else map(tables[f].__getitem__, idx))
                       for f, idx in parts]
            self.steps.append((v, gathers[0], gathers[1:], size[v], start, end))
            tables.append(range(start, end))
        self.constants = [tables[t][0] for t in self.message_tables]
        self.room = [0] * (end - rows)
        # ``lookup``: per context, its outcome-index getter and a dict to buffer positions.
        self.lookup, end = [], 0
        for scope in self.scopes:
            keys = (itertools.product(*(range(size[u]) for u in scope)) if len(scope) > 1
                    else range(size[scope[0]]))
            at = dict(zip(keys, itertools.count(end)))
            self.lookup.append((scope, at))
            end += len(at)
        self.rows = [(ctx, sec) for ctx in scenario.contexts
                     for sec in scenario.outcome_tuples(ctx)]
        last = {m: outs[-1] for m, outs in scenario.outcomes.items()}
        self.costs = tuple(1 + sum(o == last[m] for m, o in zip(ctx, sec))
                           for ctx, sec in self.rows)
        # ``basis``: N(s) as a bit mask, kept unless inside an earlier context.
        bit = {m: 1 << i for i, m in enumerate(scenario.measurements)}
        bits = {m: [bit[m]] * (len(scenario.outcomes[m]) - 1) + [0] for m in bit}
        covered: set = set()
        self.basis = []
        for ctx, secs in zip(scenario.contexts, self.sections):
            self.basis += [i for i, n in zip(secs, map(sum, itertools.product(*map(bits.get, ctx))))
                           if n not in covered]
            whole = sub = sum(map(bit.get, ctx))
            while sub:
                covered.add(sub)
                sub = (sub - 1) & whole
            covered.add(0)

    def restrict(self, keep: Sequence[int], outside=()) -> tuple:
        """(row map, costs, gather) of the matrix on the rows ``keep``.

        The row map gives each full row's row in the restricted system,
        None when forbidden and -1 when outside; the gather lists, per
        full row, its slot in ``[*y, low, 0]``.
        """
        new = dict.fromkeys(outside, -1)
        new.update((i, k) for k, i in enumerate(keep))
        flat = [new.get(r) for secs in self.sections for r in secs]
        slot = {None: len(keep), -1: len(keep) + 1}
        return flat, tuple(self.costs[i] for i in keep), [slot.get(r, r) for r in flat]

    def maximize(self, tables: list, combine) -> tuple:
        """(largest total, outcome indices the decoding picks), entry by entry."""
        buf = [*tables, *self.room]
        kept = [None] * len(self.size)
        for v, first, rest, k, start, end in self.steps:
            f = [buf[i] for i in first]
            for part in rest:
                f = [combine(a, buf[i]) for a, i in zip(f, part)]
            buf[start:end] = [max(f[j:j + k]) for j in range(0, len(f), k)]
            kept[v] = f
        digits: list[int] = []
        for f, k, (prev, strides) in zip(kept, self.size, self.decode):
            base = sum(digits[u] * s for u, s in zip(prev, strides))
            seg = f[base:base + k]
            digits.append(seg.index(max(seg)))
        total = buf[self.constants[0]]
        for i in self.constants[1:]:
            total = combine(total, buf[i])
        return total, digits


def reference_section_plan(scenario: MeasurementScenario) -> _ReferenceSectionPlan:
    """The section plan of `_ReferenceSectionPlan`, for comparison with `sheaf`'s."""
    return _ReferenceSectionPlan(scenario)


def ld_vertex_boxes(nX: int, nY: int, nA: int, nB: int) -> list[dict]:
    """Deterministic boxes p(a, b | x, y) = [a = f(x)] [b = g(y)].

    One box per strategy pair (f, g), in lexicographic (f, g) order, each a
    dict over every coordinate (a, b, x, y), zeros included.
    """
    boxes = []
    for f in itertools.product(range(nA), repeat=nX):
        for g in itertools.product(range(nB), repeat=nY):
            boxes.append({(a, b, x, y): Fraction(int(a == f[x] and b == g[y]))
                          for x in range(nX) for y in range(nY)
                          for a in range(nA) for b in range(nB)})
    return boxes


def pr_component_box(nX: int, nY: int, nA: int, nB: int) -> dict:
    """No-signaling box with Popescu-Rohrlich correlations on settings {0,1}^2.

    Outcomes 0 and 1 are equiprobable and equal, except that they differ
    when both settings are at least 1; higher outcomes never occur.
    """
    p = {(a, b, x, y): Fraction(0) for x in range(nX) for y in range(nY)
         for a in range(nA) for b in range(nB)}
    for x in range(nX):
        for y in range(nY):
            for a in range(2):
                p[(a, a ^ (min(x, 1) & min(y, 1)), x, y)] = Fraction(1, 2)
    return p


def random_box(rng, shape, pr_weight: Fraction) -> dict:
    """Seeded mixture of `ld_vertex_boxes` plus `pr_component_box` at weight pr_weight."""
    vertices = ld_vertex_boxes(*shape)
    raw = [int(k) for k in rng.integers(0, 3, size=len(vertices))]
    raw[int(rng.integers(0, len(vertices)))] += 1
    pr = pr_component_box(*shape)
    return {c: (1 - pr_weight) * sum(w * v[c] for w, v in zip(raw, vertices)) / sum(raw)
               + pr_weight * pr[c] for c in pr}


class ReferenceMembership(NamedTuple):
    inside: bool
    weights: tuple | None
    coefficients: dict | None
    bound: Fraction | None


def reference_membership_lp(p: dict, nX: int, nY: int, nA: int,
                            nB: int) -> ReferenceMembership:
    """Dense-vertex LP: is the box p a convex mixture of `ld_vertex_boxes`?

    One row per coordinate plus a normalisation row, one column per vertex,
    solved by `reference_solve_eq_nonneg`.  Outside, the Farkas vector on the
    coordinate rows is a separating functional whose bound is its maximum
    over the vertices.
    """
    boxes = ld_vertex_boxes(nX, nY, nA, nB)
    coords = list(boxes[0])
    rows = [[v[c] for v in boxes] for c in coords] + [[Fraction(1)] * len(boxes)]
    rhs = [Fraction(p[c]) for c in coords] + [Fraction(1)]
    res = reference_solve_eq_nonneg(rows, rhs)
    if res.feasible:
        return ReferenceMembership(True, res.x, None, None)
    coeffs = dict(zip(coords, res.farkas))
    bound = max(sum(coeffs[c] * v[c] for c in coords) for v in boxes)
    return ReferenceMembership(False, None, coeffs, bound)


def reference_hulls_intersect(points_a: Sequence[Sequence[Fraction]],
                              points_b: Sequence[Sequence[Fraction]]) -> bool:
    """Whether conv(points_a) and conv(points_b) share a point, by `reference_solve_eq_nonneg`."""
    rows = [[Fraction(p[k]) for p in points_a] + [-Fraction(p[k]) for p in points_b]
            for k in range(len(points_a[0]))]
    rows.append([Fraction(1)] * len(points_a) + [Fraction(0)] * len(points_b))
    rows.append([Fraction(0)] * len(points_a) + [Fraction(1)] * len(points_b))
    rhs = [Fraction(0)] * (len(rows) - 2) + [Fraction(1), Fraction(1)]
    return reference_solve_eq_nonneg(rows, rhs).feasible


def row_reduce(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """In-place Gauss-Jordan; returns (reduced rows, pivot column indices)."""
    pivots: list[int] = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c]
        rows[r] = [v / inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * p for a, p in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def exact_rank(a_rows: Sequence[Sequence[Fraction]]) -> int:
    rows = [[Fraction(v) for v in row] for row in a_rows]
    if not rows:
        return 0
    _, pivots = row_reduce(rows)
    return len(pivots)


def solve_exact(a_rows: Sequence[Sequence[Fraction]],
                b: Sequence[Fraction],
                col_subset: Sequence[int]) -> list[Fraction] | None:
    """Solve A[:, cols] z = b exactly; None if inconsistent or underdetermined."""
    aug = [[Fraction(a_rows[i][j]) for j in col_subset] + [Fraction(b[i])]
           for i in range(len(a_rows))]
    reduced, pivots = row_reduce(aug)
    k = len(col_subset)
    if k in pivots:  # pivot in the RHS column: inconsistent
        return None
    if len(pivots) < k:  # rank-deficient choice of columns
        return None
    z = [Fraction(0)] * k
    for r, c in enumerate(pivots):
        z[c] = reduced[r][k]
    return z


def enumerate_vertices(a_rows: Sequence[Sequence[Fraction]],
                       b: Sequence[Fraction],
                       *,
                       max_vertices: int = 10_000,
                       max_bases: int = 2_000_000) -> list[tuple[Fraction, ...]]:
    """All vertices of ``{x >= 0 : A x = b}`` via basic feasible solutions.

    Raises TooLargeError beyond the documented caps.  Returns [] when the
    polytope is empty.
    """
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    aug = [[Fraction(v) for v in row] + [Fraction(b[i])]
           for i, row in enumerate(a_rows)]
    reduced, pivots = row_reduce(aug)
    if n in pivots:
        return []  # inconsistent system
    r = len(pivots)
    if r == 0:
        if any(v != 0 for v in b):
            return []
        return [tuple(Fraction(0) for _ in range(n))]
    # Work on the independent rows of the reduced system.
    rows = [reduced[i][:n] for i in range(r)]
    rhs = [reduced[i][n] for i in range(r)]

    if comb(n, r) > max_bases:
        raise TooLargeError(f"vertex enumeration over C({n},{r}) bases exceeds {max_bases}")

    seen: set[tuple[Fraction, ...]] = set()
    out: list[tuple[Fraction, ...]] = []
    for cols in itertools.combinations(range(n), r):
        z = solve_exact(rows, rhs, cols)
        if z is None or any(v < 0 for v in z):
            continue
        x = [Fraction(0)] * n
        for c, v in zip(cols, z):
            x[c] = v
        tx = tuple(x)
        if tx not in seen:
            seen.add(tx)
            out.append(tx)
            if len(out) > max_vertices:
                raise TooLargeError(f"more than {max_vertices} vertices")
    return out


def brute_force_lift_maximum(weights: dict, edges) -> Fraction:
    """Largest value of the two-party lift over all 4^n deterministic strategy pairs.

    Value = sum_l w_l a_l b_l - sum over edges (i, j) of
    max(w_i, w_j)/2 (a_i b_j + a_j b_i), with 0/1 answers a, b per vertex.
    """
    labels = list(weights)
    best = None
    for bits_a in itertools.product((0, 1), repeat=len(labels)):
        a = dict(zip(labels, bits_a))
        for bits_b in itertools.product((0, 1), repeat=len(labels)):
            b = dict(zip(labels, bits_b))
            value = sum((Fraction(weights[l]) * a[l] * b[l] for l in labels), Fraction(0))
            for i, j in edges:
                value -= (max(Fraction(weights[i]), Fraction(weights[j])) / 2
                          * (a[i] * b[j] + a[j] * b[i]))
            best = value if best is None or value > best else best
    return best


def cycle_margin(correlators: Sequence[float]) -> float:
    """How far an n-cycle's correlators exceed the noncontextual bound.

    The scenario with contexts {A_j, A_(j+1)} of +-1 observables has a
    global section iff sum_j s_j E_j <= n - 2 for every sign vector s with
    an odd number of -1 entries.  Returns the largest left side minus n - 2,
    so the scenario is contextual iff the margin is positive.
    """
    n = len(correlators)
    best = max(sum(s * e for s, e in zip(signs, correlators))
               for signs in itertools.product((1, -1), repeat=n)
               if signs.count(-1) % 2 == 1)
    return best - (n - 2)


def reference_consistent_assignments(sharp_contexts
                                     ) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """All 0/1 atom assignments firing exactly one atom per sharp context.

    Backtracks over the contexts in declared order, choosing the atom each
    one fires; an atom shared between contexts keeps one value.  Returns
    the sorted atom indices and the assignments as 0/1 tuples over them.
    """
    atoms = tuple(sorted({i for ctx in sharp_contexts for i in ctx}))
    position = {i: k for k, i in enumerate(atoms)}
    assignments: list[tuple[int, ...]] = []
    values: dict[int, int] = {}

    def backtrack(depth: int) -> None:
        if depth == len(sharp_contexts):
            full = [0] * len(atoms)
            for atom, value in values.items():
                full[position[atom]] = value
            assignments.append(tuple(full))
            return
        ctx = sharp_contexts[depth]
        for fired in ctx:
            want = {other: int(other == fired) for other in ctx}
            if any(values.get(k, v) != v for k, v in want.items()):
                continue
            staged = [k for k in want if k not in values]
            values.update((k, want[k]) for k in staged)
            backtrack(depth + 1)
            for k in staged:
                del values[k]

    backtrack(0)
    return atoms, assignments


def atom_values(model) -> dict:
    """Atom index -> probability that atom ``E{i}`` fires, read off the
    one-hot entries of a sharp GPT's induced model."""
    values = {}
    for ctx, table in model.tables.items():
        for outcome, value in table.items():
            if sum(outcome) == 1:
                values[int(ctx[outcome.index(1)][1:])] = Fraction(value)
    return values


def reference_sharp_mixture(sharp_contexts, values: dict) -> Feasibility:
    """Is one state's atom statistics a mixture of consistent assignments?

    One row per atom ("atom fired", right side ``values[atom]``) and a last
    row of ones, one column per `reference_consistent_assignments` entry,
    solved by `reference_solve_eq_nonneg`.
    """
    atoms, assignments = reference_consistent_assignments(sharp_contexts)
    rows = [[Fraction(a[pos]) for a in assignments] for pos in range(len(atoms))]
    rows.append([Fraction(1)] * len(assignments))
    return reference_solve_eq_nonneg(rows, [values[i] for i in atoms] + [Fraction(1)])


def brute_force_facets(generators) -> tuple | None:
    """Facet normals of cone(generators), one (d-1)-subset at a time.

    Each subset of d - 1 generators of rank d - 1 has a one-dimensional
    nullspace; its primitive integer normal n (or -n) is a facet when it is
    nonnegative on every generator.  Returns the sorted distinct normals,
    or None when the generators span fewer than d dimensions.  It shares
    nothing with the package's double-description method.
    """
    gens = [[Fraction(v) for v in g] for g in generators]
    d = len(gens[0])
    if exact_rank(gens) < d:
        return None
    facets = set()
    for subset in itertools.combinations(gens, d - 1):
        reduced, pivots = row_reduce([list(g) for g in subset])
        if len(pivots) != d - 1:
            continue
        free = next(c for c in range(d) if c not in pivots)
        normal = [Fraction(0)] * d
        normal[free] = Fraction(1)
        for row, c in zip(reduced, pivots):
            normal[c] = -row[free]
        dots = [sum(a * b for a, b in zip(normal, g)) for g in gens]
        if min(dots) < 0 < max(dots):
            continue
        if min(dots) < 0:
            normal = [-v for v in normal]
        scale = lcm(*(v.denominator for v in normal))
        ints = [int(v * scale) for v in normal]
        facets.add(tuple(v // gcd(*ints) for v in ints))
    return tuple(sorted(facets))


def exactly_consistent(scenario, tables) -> bool:
    """Every table sums to exactly 1 and agrees exactly with every other on their overlap.

    ``tables`` maps each context of ``scenario`` to its exact table.  Summed
    here, entry by entry in ``Fraction`` arithmetic, with no package helper.
    """
    if any(sum(t.values(), Fraction(0)) != 1 for t in tables.values()):
        return False
    for ca, cb in itertools.combinations(scenario.contexts, 2):
        shared = [m for m in ca if m in cb]
        margins = []
        for c in (ca, cb):
            margin = {}
            for outc, v in tables[c].items():
                key = tuple(outc[c.index(m)] for m in shared)
                margin[key] = margin.get(key, Fraction(0)) + v
            margins.append(margin)
        if shared and margins[0] != margins[1]:
            return False
    return True


def worst_marginal_gap(scenario, tables) -> tuple:
    """The largest gap between two tables' marginals on their overlap, and the first pair at it.

    Context pairs come in `itertools.combinations` order, and each marginal
    is summed entry by entry in ``Fraction`` arithmetic, with no package
    helper: (gap, (ca, cb, overlap)), or (0, None) when every marginal
    agrees.
    """
    worst, pair = Fraction(0), None
    for ca, cb in itertools.combinations(scenario.contexts, 2):
        shared = tuple(m for m in ca if m in cb)
        if not shared:
            continue
        margins = []
        for c in (ca, cb):
            margin = {}
            for outc, v in tables[c].items():
                key = tuple(outc[c.index(m)] for m in shared)
                margin[key] = margin.get(key, Fraction(0)) + v
            margins.append(margin)
        gap = max(abs(margins[0].get(k, 0) - margins[1].get(k, 0))
                  for k in margins[0].keys() | margins[1].keys())
        if gap > worst:
            worst, pair = gap, (ca, cb, shared)
    return worst, pair


def reference_born_tables(state, contexts, sharing=None) -> dict:
    """Born tables of commuting projective contexts, one product at a time.

    Keyed by each context's scenario labels in document order, with
    outcome tuples in the same order; a product starts from the identity
    and multiplies the picked projectors in the context's order.
    """
    sharing = sharing or {}
    state = np.asarray(state, dtype=complex)
    tables = {}
    for members in contexts:
        table = {}
        for picks in itertools.product(*(range(len(m.outcomes)) for m in members)):
            op = np.eye(state.shape[0], dtype=complex)
            for m, k in zip(members, picks):
                op = op @ m.projectors[k]
            p = float(np.trace(state @ op).real)
            table[tuple(m.outcomes[k] for m, k in zip(members, picks))] = max(0.0, p)
        tables[tuple(sharing.get(m.label, m.label) for m in members)] = table
    return tables


def reference_sharp_atoms(contexts, tol: float = 1e-10) -> tuple[list, tuple]:
    """Atoms and sharp contexts of commuting projective contexts, one product at a time.

    Each product's Hermitian part is dropped when its sup norm is at most
    ``tol`` and otherwise joins the first atom within ``tol`` of it, or is
    appended as a new atom.  Returns the atoms and each context's atom
    indices in product order.
    """
    atoms: list = []
    sharp_contexts = []
    for members in contexts:
        dim = members[0].projectors[0].shape[0]
        indices = []
        for combo in itertools.product(*(m.projectors for m in members)):
            prod = np.eye(dim, dtype=complex)
            for p in combo:
                prod = prod @ p
            prod = (prod + prod.conj().T) / 2
            if np.max(np.abs(prod)) <= tol:
                continue
            known = [k for k, a in enumerate(atoms) if np.max(np.abs(a - prod)) <= tol]
            if not known:
                atoms.append(prod)
            indices.append(known[0] if known else len(atoms) - 1)
        sharp_contexts.append(tuple(indices))
    return atoms, tuple(sharp_contexts)


def reference_exact_born(state, atoms, max_den: int = 10 ** 6, bits: int = 20,
                         tol: float = 1e-12) -> list | None:
    """tr(rho~ A) for each atom, one ``Fraction`` entry at a time, or None.

    Each real and imaginary part of an atom is taken as the nearest
    multiple of 2**-bits, and None is returned unless every one lies within
    ``tol`` of its float.  rho~ rounds each entry on and above the diagonal
    of ``state`` to the nearest multiple of 1/max_den (half to even) and
    mirrors it below; its first largest diagonal entry is then set to 1
    minus the others.  Complex products are (re, im) pairs of Fractions.
    """
    state = np.asarray(state, dtype=complex)
    dim = state.shape[0]
    snapped = []
    for atom in atoms:
        entries = {}
        for i, j in itertools.product(range(dim), repeat=2):
            pair = []
            for x in (float(atom[i, j].real), float(atom[i, j].imag)):
                near = Fraction(round(x * 2 ** bits), 2 ** bits)
                if abs(Fraction(x) - near) > Fraction(tol):
                    return None
                pair.append(near)
            entries[i, j] = tuple(pair)
        snapped.append(entries)
    rho = {}
    for i in range(dim):
        for j in range(i, dim):
            re = Fraction(round(float(state[i, j].real) * max_den), max_den)
            im = Fraction(round(float(state[i, j].imag) * max_den), max_den) if i != j else 0
            rho[i, j], rho[j, i] = (re, im), (re, -im)
    diagonal = [rho[i, i][0] for i in range(dim)]
    top = diagonal.index(max(diagonal))
    rho[top, top] = (1 - sum(d for i, d in enumerate(diagonal) if i != top), 0)
    values = []
    for entries in snapped:
        total = Fraction(0)
        for i, j in itertools.product(range(dim), repeat=2):
            (a, b), (c, d) = rho[i, j], entries[j, i]
            total += a * c - b * d
        values.append(total)
    return values


MERGE_TOL = 1e-10


def gpt_from_data(prob_matrix, *, unit_row: int | None = None) -> Gpt:
    """Reconstruct a GPT from an effects-by-states probability table.

    Duplicate rows/columns (identical statistics within `MERGE_TOL`) are
    merged first; the table is then factored at numerical rank `RANK_TOL`
    so the result is tomographically minimal.  A row of all ones is used as
    the unit if present, otherwise one is appended.
    """
    table = np.asarray(prob_matrix, dtype=float)
    if table.ndim != 2 or table.size == 0:
        raise GptError("probability table must be a nonempty 2-D array")
    if np.min(table) < -1e-10 or np.max(table) > 1.0 + 1e-10:
        raise GptError("probability table entries must lie in [0, 1]")
    if unit_row is not None:
        if not 0 <= unit_row < table.shape[0]:
            raise GptError(f"unit row index {unit_row} out of range")
        if np.max(np.abs(table[unit_row] - 1.0)) > 1e-10:
            raise InconsistentUnit(
                f"declared unit row {unit_row} is not identically 1")

    # Merge operationally equivalent columns (states), keeping the first.
    kept_cols: list[int] = []
    for j in range(table.shape[1]):
        if not any(np.max(np.abs(table[:, j] - table[:, k])) <= MERGE_TOL
                   for k in kept_cols):
            kept_cols.append(j)
    table = table[:, kept_cols]

    # Merge operationally equivalent rows (effects), keeping the first.
    kept_rows: list[int] = []
    for i in range(table.shape[0]):
        if not any(np.max(np.abs(table[i] - table[k])) <= MERGE_TOL
                   for k in kept_rows):
            kept_rows.append(i)
    if unit_row is not None:
        unit_row = min(k for k in kept_rows
                       if np.max(np.abs(table[k] - table[unit_row])) <= MERGE_TOL)
        unit_row = kept_rows.index(unit_row)
    table = table[kept_rows]

    if unit_row is None:
        ones = [i for i in range(table.shape[0])
                if np.max(np.abs(table[i] - 1.0)) <= 1e-10]
        if ones:
            unit_row = ones[0]
        else:
            table = np.vstack([table, np.ones(table.shape[1])])
            unit_row = table.shape[0] - 1

    u_mat, svals, vt_mat = np.linalg.svd(table, full_matrices=False)
    rank = int(np.sum(svals > RANK_TOL * max(1.0, float(svals[0]))))
    effect_rows = u_mat[:, :rank] * svals[:rank]
    state_cols = vt_mat[:rank, :]
    residual = float(np.max(np.abs(effect_rows @ state_cols - table)))
    if residual > 1e-7:
        raise GptError(f"rank-{rank} factorization residual {residual} too large")
    states = [state_cols[:, j] for j in range(state_cols.shape[1])]
    effects = [effect_rows[i] for i in range(effect_rows.shape[0])]
    return make_gpt(states, effects, effect_rows[unit_row], tol=1e-9)


class InvalidCertificate(ValueError):
    pass


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


def hv_model_from_section(support, scenario: MeasurementScenario) -> HiddenVariableModel:
    """Hidden-variable model on the (assignment, weight) pairs of a primal certificate."""
    meas = scenario.measurements
    lams, weights = [], []
    for s, w in support:
        s = tuple(s)
        if len(s) != len(meas) or any(o not in scenario.outcomes[m]
                                      for m, o in zip(meas, s)):
            raise InvalidCertificate(f"{list(s)} is not a global assignment")
        w = w if isinstance(w, Fraction) else Fraction(w)
        if w < 0:
            raise InvalidCertificate("negative weight in primal certificate")
        if w:
            lams.append(dict(zip(meas, s)))
            weights.append(w)
    if len({tuple(lam.values()) for lam in lams}) != len(lams):
        raise InvalidCertificate("an assignment appears twice in the primal certificate")
    if sum(weights) != 1:
        raise InvalidCertificate(f"weights sum to {sum(weights)}, not 1")
    return HiddenVariableModel(scenario=scenario, assignments=tuple(lams),
                               weights=tuple(weights))


def enumerate_global_assignments(scenario: MeasurementScenario):
    """Every outcome assignment, lexicographic in declared order."""
    return itertools.product(*(scenario.outcomes[m] for m in scenario.measurements))


def reference_bipartite_structure(sc: MeasurementScenario) -> tuple | None:
    """A complete two-party layout found by two-colouring the co-occurrence graph.

    Every context must pair two measurements, the graph must be
    two-colourable with both colours used, every cross pair must be a
    context, and each side's measurements must share an outcome count.  The
    side holding the first declared measurement comes first.  None otherwise.
    """
    if not sc.contexts or any(len(c) != 2 for c in sc.contexts):
        return None
    neighbours: dict = {m: set() for m in sc.measurements}
    for a, b in sc.contexts:
        neighbours[a].add(b)
        neighbours[b].add(a)
    colour: dict = {}
    for start in sc.measurements:
        if start in colour:
            continue
        colour[start] = 0
        queue = [start]
        while queue:
            m = queue.pop()
            for nb in neighbours[m]:
                if nb not in colour:
                    colour[nb] = 1 - colour[m]
                    queue.append(nb)
                elif colour[nb] == colour[m]:
                    return None
    side_a = tuple(m for m in sc.measurements if colour[m] == 0)
    side_b = tuple(m for m in sc.measurements if colour[m] == 1)
    if not side_a or not side_b or len(sc.contexts) != len(side_a) * len(side_b):
        return None
    pairs = {frozenset(c) for c in sc.contexts}
    if any(frozenset((a, b)) not in pairs for a in side_a for b in side_b):
        return None
    if len({len(sc.outcomes[m]) for m in side_a}) != 1 or \
            len({len(sc.outcomes[m]) for m in side_b}) != 1:
        return None
    return side_a, side_b


def pr_box_model() -> EmpiricalModel:
    """Extremal no-signaling box: outcomes agree except on the (0, 1) setting pair.

    The anticorrelated pair is placed where `chsh_value` subtracts, so this
    box attains the algebraic maximum 4 of the implemented functional.
    """
    h = Fraction(1, 2)
    p = {}
    for x in range(2):
        for y in range(2):
            if x == 0 and y == 1:
                p[(0, 1, x, y)] = h
                p[(1, 0, x, y)] = h
            else:
                p[(0, 0, x, y)] = h
                p[(1, 1, x, y)] = h
    return make_behaviour(2, 2, 2, 2, p)


def behaviour_table(model: EmpiricalModel) -> dict:
    """The entries p(a, b | x, y) of a `make_behaviour` model, read off its (A_x, B_y) labels."""
    return {(a, b, int(ma[1:]), int(mb[1:])): v
            for (ma, mb), table in model.tables.items() for (a, b), v in table.items()}


def correlator(model: EmpiricalModel, x: int, y: int):
    """E(x, y) of a dichotomic `make_behaviour` model: outcome index 0 is +1, index 1 is -1."""
    return sum((1 - 2 * a) * (1 - 2 * b) * v
               for (a, b), v in model.tables[f"A{x}", f"B{y}"].items())


def behaviour_to_json(model: EmpiricalModel) -> dict:
    """The document `behaviour_from_json` reads: exact entries as strings, others as floats."""
    def enc(v):
        if isinstance(v, Fraction):
            return f"{v.numerator}/{v.denominator}" if v.denominator != 1 else str(v.numerator)
        return float(v)
    sc = model.scenario
    sides = [[m for m in sc.measurements if m[0] == party] for party in "AB"]
    return {"nX": len(sides[0]), "nY": len(sides[1]),
            "nA": len(sc.outcomes[sides[0][0]]), "nB": len(sc.outcomes[sides[1][0]]),
            "p": {f"{a},{b}|{x},{y}": enc(v)
                  for (a, b, x, y), v in behaviour_table(model).items()}}


def behaviour_from_json(doc: dict) -> EmpiricalModel:
    """A two-party model {"nX", "nY", "nA", "nB", "p": {"a,b|x,y": value}}.

    Exact entries go through the package's `rational_literal`, floats stay
    floats; `make_behaviour` checks the shape and the sums.
    """
    try:
        nX, nY, nA, nB = (int(doc[k]) for k in ("nX", "nY", "nA", "nB"))
        raw = doc["p"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"missing or malformed behaviour field: {exc}") from exc
    p = {}
    for key, val in raw.items():
        try:
            outs, setts = key.split("|")
            a, b = (int(t) for t in outs.split(","))
            x, y = (int(t) for t in setts.split(","))
        except ValueError as exc:
            raise ValueError(f"bad behaviour key {key!r}") from exc
        if isinstance(val, bool):
            raise ValueError(f"probability entries must be numbers, got {val!r}")
        if isinstance(val, float):
            p[(a, b, x, y)] = val
        elif isinstance(val, (int, str)):
            p[(a, b, x, y)] = rational_literal(val, "probability entry")
        else:
            raise ValueError(f"unsupported probability entry {val!r}")
    return make_behaviour(nX, nY, nA, nB, p)


REFERENCE_MAX_DIGITS = 1000


def reference_rational_literal(value, what: str = "literal") -> Fraction:
    """An exact literal read by ``Fraction(value)`` behind the package's digit bound.

    Ints and strings only.  A string with more than 1000 digits, or with a
    decimal exponent beyond 1000 in size, is refused before it is read, and
    so is an exponent that is no integer.  Refusals are `ValueError`s
    worded as `scenario.rational_literal` words them.
    """
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"{what} must be an integer or an exact string, got {value!r}")
    bad = ValueError(f"bad {what} {value!r}")
    if isinstance(value, str):
        oversized = sum(c.isdigit() for c in value) > REFERENCE_MAX_DIGITS
        exponent = re.search(r"[eE]([-+]?[\d_]+)", value)
        if not oversized and exponent:
            try:
                oversized = abs(int(exponent.group(1))) > REFERENCE_MAX_DIGITS
            except ValueError as exc:
                raise bad from exc
        if oversized:
            shown = value if len(value) <= 24 else value[:24] + "..."
            raise ValueError(f"{what} {shown!r} exceeds {REFERENCE_MAX_DIGITS} "
                             "digits or a decimal exponent of that size")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise bad from exc


def reference_model_from_json(doc: dict) -> dict:
    """The tables of an empirical document read one entry, token and table at a time.

    The document's measurements and contexts must be well formed.  Each
    outcome token is the first declared outcome whose `str` it is, found by
    a scan; each entry is a float or goes through
    `reference_rational_literal`; each table is permuted into canonical
    order, filled with zeros, checked for signs and summed on its own, in
    ``Fraction`` arithmetic for an exact model.  Refusals are `ValueError`s
    worded as `scenario.model_from_json` words them, two tables for one
    context included.  The tables are returned by canonical context.
    """
    sc = make_scenario([(m["label"], tuple(m["outcomes"])) for m in doc["measurements"]],
                       doc["contexts"])
    order = list(sc.measurements)
    read = []
    for key, table in doc["tables"].items():
        if not isinstance(table, dict):
            raise ValueError(f"table {key!r} must map outcome keys to probabilities")
        labels = tuple(key.split(","))
        for lab in labels:
            if lab not in order:
                raise ValueError(f"unknown measurement {lab!r}")
        entries = {}
        for okey, val in table.items():
            tokens = okey.split(",")
            if len(tokens) != len(labels):
                raise ValueError(f"outcome key {okey!r} has wrong arity for {key!r}")
            outc = []
            for token, m in zip(tokens, labels):
                match = [o for o in sc.outcomes[m] if str(o) == token]
                if not match:
                    raise ValueError(f"outcome token {token!r} not among declared "
                                     f"outcomes {sc.outcomes[m]}")
                outc.append(match[0])
            entries[tuple(outc)] = (val if isinstance(val, float)
                                    else reference_rational_literal(val, "probability entry"))
        read.append((key, labels, entries))

    given: dict = {}
    for key, labels, entries in read:
        canon = tuple(sorted(labels, key=order.index))
        if canon not in sc.contexts:
            raise ValueError(f"{labels} is not a declared context")
        if canon in given:
            raise ValueError(f"tables {given[canon][0]!r} and {key!r} are both context {canon}")
        given[canon] = key, {tuple(o[labels.index(m)] for m in canon): v
                             for o, v in entries.items()}
    missing = [c for c in sc.contexts if c not in given]
    if missing:
        raise ValueError(f"no table supplied for contexts {missing}")
    floats = any(isinstance(v, float) for _, t in given.values() for v in t.values())
    tables = {}
    for canon, (_, entries) in given.items():
        full = {}
        for outc in itertools.product(*(sc.outcomes[m] for m in canon)):
            v = entries.get(outc, 0.0 if floats else Fraction(0))
            if floats:
                v = float(v)
                if not math.isfinite(v):
                    raise ValueError(f"probability {v} in context {canon} is not finite")
                if v < -1e-12:
                    raise ValueError(f"negative probability {v} in context {canon}")
                v = max(0.0, v)
            elif v < 0:
                raise ValueError(f"negative probability {v} in context {canon}")
            full[outc] = v
        total = sum(full.values(), 0.0 if floats else Fraction(0))
        if abs(total - 1.0) > 1e-9 if floats else total != 1:
            raise ValueError(f"context {canon} table sums to {total}, not 1")
        tables[canon] = full
    return tables


# ---------------------------------------------------------------------------
# Sequential-measurement statistics (diagnostic only)
# ---------------------------------------------------------------------------

class SequentialStats(Record):
    """Outcome statistics for sequences over two +-1 observables A and B.

    `p_a`, `p_b`: single-measurement distributions over {+1, -1}.
    `p_ab`: joint distribution over outcome pairs of the sequence A then B.
    `p_bab`: joint distribution over the first and third outcomes of the
    sequence B, A, B (middle outcome discarded).
    `hv_ab`: optional joint counterfactual distribution assigning both
    single-shot values at once; defaults to `p_ab`.
    `flip_joint`: optional joint distribution of the single-shot B outcome
    and the second outcome of the A-then-B sequence; defaults to `p_bab`.
    """

    p_a: dict
    p_b: dict
    p_ab: dict
    p_bab: dict
    hv_ab: dict | None = None
    flip_joint: dict | None = None

    def __post_init__(self):
        for name in ("p_a", "p_b", "p_ab", "p_bab", "hv_ab", "flip_joint"):
            dist = getattr(self, name)
            if dist is None:
                continue
            vals = list(dist.values())
            if any(float(v) < -1e-12 or float(v) > 1 + 1e-12 for v in vals):
                raise ValueError(f"{name} has entries outside [0, 1]")
            if abs(sum(float(v) for v in vals) - 1.0) > 1e-9:
                raise ValueError(f"{name} is not normalised")


def _pair_correlator(dist: dict) -> float:
    return sum(a * b * float(p) for (a, b), p in dist.items())


class FlipErrorReport(Record):
    corr_joint: float
    corr_sequential: float
    lhs: float
    p_flip: float
    p_err: float
    chain_holds: bool


def flip_error_bounds(stats: SequentialStats, tol: float = 1e-12) -> FlipErrorReport:
    """Disagreement bounds linking joint, sequential, and repeated statistics.

    Checks the two-step chain: the gap between the joint correlator and the
    sequential correlator is at most twice the flip probability of B across
    an intervening A, which in turn is at most twice the error probability
    read off the B,A,B sequence.  Diagnostic only; never feeds verdicts.
    """
    hv = stats.hv_ab if stats.hv_ab is not None else stats.p_ab
    flip = stats.flip_joint if stats.flip_joint is not None else stats.p_bab
    corr_joint = _pair_correlator(hv)
    corr_seq = _pair_correlator(stats.p_ab)
    lhs = abs(corr_joint - corr_seq)
    p_flip = float(flip.get((1, -1), 0)) + float(flip.get((-1, 1), 0))
    p_err = float(stats.p_bab.get((1, -1), 0)) + float(stats.p_bab.get((-1, 1), 0))
    chain = (lhs <= 2 * p_flip + tol) and (2 * p_flip <= 2 * p_err + tol)
    return FlipErrorReport(corr_joint=corr_joint, corr_sequential=corr_seq,
                           lhs=lhs, p_flip=p_flip, p_err=p_err, chain_holds=chain)


def sequential_stats_from_quantum(state, obs_a, obs_b) -> SequentialStats:
    """Statistics of projective sequences of two +-1 observables under state-update.

    Post-measurement states follow the projection postulate; the middle
    outcome of the B,A,B sequence is summed out.
    """
    rho = np.asarray(state, dtype=complex)
    if rho.ndim == 2 and rho.shape[1] == 1:
        rho = rho @ rho.conj().T
    proj_a = {s: eigen_projector(obs_a, s) for s in (1, -1)}
    proj_b = {s: eigen_projector(obs_b, s) for s in (1, -1)}

    def prob(op, sigma):
        return max(0.0, float(np.trace(sigma @ op).real))

    p_a = {s: prob(proj_a[s], rho) for s in (1, -1)}
    p_b = {s: prob(proj_b[s], rho) for s in (1, -1)}
    p_ab = {}
    for a in (1, -1):
        for b in (1, -1):
            p_ab[(a, b)] = prob(proj_b[b] @ proj_a[a] @ rho @ proj_a[a], np.eye(len(rho)))
    p_bab = {}
    for b1 in (1, -1):
        for b3 in (1, -1):
            total = 0.0
            for a in (1, -1):
                chain = proj_a[a] @ proj_b[b1] @ rho @ proj_b[b1] @ proj_a[a]
                total += prob(proj_b[b3] @ chain, np.eye(len(rho)))
            p_bab[(b1, b3)] = total
    return SequentialStats(p_a=p_a, p_b=p_b, p_ab=p_ab, p_bab=p_bab)


# ---------------------------------------------------------------------------
# Matrix helpers
# ---------------------------------------------------------------------------

def is_unitary(a, tol: float = EQUALITY_TOL) -> bool:
    m = _as_matrix(a)
    if m.shape[0] != m.shape[1]:
        return False
    return sup_norm(m @ m.conj().T - np.eye(m.shape[0])) <= tol


def partial_trace(rho, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Trace out one factor of a bipartite state; keep in {0, 1}."""
    d0, d1 = dims
    m = _as_matrix(rho)
    if m.shape != (d0 * d1, d0 * d1):
        raise ValueError(f"state shape {m.shape} does not match dims {dims}")
    t = m.reshape(d0, d1, d0, d1)
    if keep == 0:
        return np.einsum("ijkj->ik", t)
    if keep == 1:
        return np.einsum("ijil->jl", t)
    raise ValueError("keep must be 0 or 1")


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def shared_atom_gpt(state):
    """A 4-dimensional GPT whose first sharp context has no exclusive atom.

    Its contexts are {A, B}, {A, P2, P3} and {B, P0, P1}, with A = P0 + P1
    and B = P2 + P3 for one random basis P0..P3: A and B both lie in two
    contexts, so the atoms of {A, B} cannot be pinned by their context.
    """
    u = random_unitary(4, np.random.default_rng(41))
    p = [np.outer(u[:, k], u[:, k].conj()) for k in range(4)]
    a, b = p[0] + p[1], p[2] + p[3]
    contexts = [[projective_context("AB", [a, b])],
                [projective_context("A23", [a, p[2], p[3]])],
                [projective_context("B01", [b, p[0], p[1]])]]
    return sharp_gpt_from_quantum([state], contexts)


# ---------------------------------------------------------------------------
# State-independent to state-dependent reduction
# ---------------------------------------------------------------------------

def sic_to_sdc_reduction(observables, chosen, eigenvalue):
    """Use one observable of a set as a preparation and drop it from the set.

    `observables` maps labels to Hermitian matrices.  Returns (reduced
    observables, post-measurement state), where the state is the normalised
    projection onto the chosen observable's eigenspace at `eigenvalue`.
    Raises `ValueError` when the eigenvalue is not in the spectrum.
    """
    observables = dict(observables)
    if chosen not in observables:
        raise ValueError(f"{chosen!r} is not among the observables")
    proj = eigen_projector(observables[chosen], eigenvalue)
    rank = float(np.trace(proj).real)
    post_state = proj / rank
    reduced = {l: m for l, m in observables.items() if l != chosen}
    return reduced, post_state


# ---------------------------------------------------------------------------
# Shot replay of the two-bit simulator
# ---------------------------------------------------------------------------

class _WordBits:
    """Feeds successive bits of one shot word through the `rng` interface."""

    def __init__(self, word: int):
        self._word = int(word)
        self._pos = 0

    def integers(self, low: int, high: int) -> int:
        if (low, high) != (0, 2):
            raise ValueError(f"a shot word feeds bits, not integers in [{low}, {high})")
        bit = (self._word >> self._pos) & 1
        self._pos += 1
        return bit


def _run_single(program: QslProgram, word: int) -> int:
    """Replay one shot from its randomness word via the scalar operations."""
    bits = _WordBits(word)
    basis, value = program.preparation
    state = qsl_prepare(basis, value, bits)
    for gate in program.gates:
        state = _GATE_FUNCS[gate](state)
    outcome, _ = qsl_measure(state, program.measurement, bits)
    return outcome
