"""Independent oracles shared by the solver and acceptance tests.

The numeric oracles recompute expected values from first principles (Born
rule plus a planar angle grid) without touching the package's solvers, so a
test agreeing with them is evidence rather than circularity.
`reference_solve_eq_nonneg` is the plain ``Fraction`` simplex the exact LP
kernel must match pivot for pivot, on listed columns by Bland's rule and on
the section source by the largest score and the same phase-1 costs,
`reference_incidence_rows` the dense row-by-row incidence matrix the
implicit global-section matrix must equal, and `reference_argmax` the column-by-column scan its
elimination oracle must agree with.
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
overlap marginals entry by entry in ``Fraction`` arithmetic, against the
package's integer checks.  `reference_born_tables` and
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
`behaviour_from_json` reads the two-party behaviour documents the tests
write.
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

from contextuality.embedding import RANK_TOL, Gpt, GptError, InconsistentUnit, make_gpt
from contextuality.exactlp import Feasibility, TooLargeError
from contextuality.polytope import Behaviour, ShapeMismatch, make_behaviour
from contextuality.scenario import (
    EmpiricalModel,
    MeasurementScenario,
    SchemaError,
    make_model,
    make_scenario,
    rational_literal,
)

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


def reference_solve_eq_nonneg(a_rows: Sequence[Sequence[Fraction]],
                              b: Sequence[Fraction],
                              largest: bool = False,
                              costs: Sequence[int] | None = None) -> Feasibility:
    """The plain ``Fraction`` simplex that ``solve_eq_nonneg`` runs in integers.

    Dense revised phase-1 simplex with an explicit rational B^-1, Bland's
    entering column (or, with ``largest``, the column of largest
    ``y^T a_j``, ties to the smallest ``j``) and the lexicographic ratio
    test.  Artificial ``i`` costs ``costs[i]`` in the phase-1 objective,
    1 when ``costs`` is None.  The package's integer-preserving kernel
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

    while True:
        y = dual()
        enter, top = -1, 0
        for j in range(n):  # Bland's first improving column, or the largest score
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


def behaviour_from_json(doc: dict) -> Behaviour:
    """A two-party behaviour {"nX", "nY", "nA", "nB", "p": {"a,b|x,y": value}}.

    Exact entries go through the package's `rational_literal`, floats stay
    floats; `make_behaviour` checks the shape and the sums.
    """
    try:
        nX, nY, nA, nB = (int(doc[k]) for k in ("nX", "nY", "nA", "nB"))
        raw = doc["p"]
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"missing or malformed behaviour field: {exc}") from exc
    p = {}
    for key, val in raw.items():
        try:
            outs, setts = key.split("|")
            a, b = (int(t) for t in outs.split(","))
            x, y = (int(t) for t in setts.split(","))
        except ValueError as exc:
            raise SchemaError(f"bad behaviour key {key!r}") from exc
        if isinstance(val, bool):
            raise SchemaError(f"probability entries must be numbers, got {val!r}")
        if isinstance(val, float):
            p[(a, b, x, y)] = val
        elif isinstance(val, (int, str)):
            p[(a, b, x, y)] = rational_literal(val, "probability entry")
        else:
            raise SchemaError(f"unsupported probability entry {val!r}")
    try:
        return make_behaviour(nX, nY, nA, nB, p)
    except (ValueError, ShapeMismatch) as exc:
        raise SchemaError(str(exc)) from exc


REFERENCE_MAX_DIGITS = 1000


def reference_rational_literal(value, what: str = "literal") -> Fraction:
    """An exact literal read by ``Fraction(value)`` behind the package's digit bound.

    Ints and strings only.  A string with more than 1000 digits, or with a
    decimal exponent beyond 1000 in size, is refused before it is read, and
    so is an exponent that is no integer.  Refusals are `SchemaError`s
    worded as `scenario.rational_literal` words them.
    """
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise SchemaError(f"{what} must be an integer or an exact string, got {value!r}")
    bad = SchemaError(f"bad {what} {value!r}")
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
            raise SchemaError(f"{what} {shown!r} exceeds {REFERENCE_MAX_DIGITS} "
                              "digits or a decimal exponent of that size")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise bad from exc


def reference_model_from_json(doc: dict) -> EmpiricalModel:
    """The tables of an empirical document read one entry, token and table at a time.

    The document's measurements and contexts must be well formed.  Each
    outcome token is the first declared outcome whose `str` it is, found by
    a scan; each entry is a float or goes through
    `reference_rational_literal`; each table is permuted into canonical
    order, filled with zeros, checked for signs and summed on its own, in
    ``Fraction`` arithmetic for an exact model.  Refusals are `SchemaError`s
    worded as `scenario.model_from_json` words them, two tables for one
    context included.
    """
    sc = make_scenario([(m["label"], tuple(m["outcomes"])) for m in doc["measurements"]],
                       doc["contexts"])
    order = list(sc.measurements)
    read = []
    for key, table in doc["tables"].items():
        if not isinstance(table, dict):
            raise SchemaError(f"table {key!r} must map outcome keys to probabilities")
        labels = tuple(key.split(","))
        for lab in labels:
            if lab not in order:
                raise SchemaError(f"unknown measurement {lab!r}")
        entries = {}
        for okey, val in table.items():
            tokens = okey.split(",")
            if len(tokens) != len(labels):
                raise SchemaError(f"outcome key {okey!r} has wrong arity for {key!r}")
            outc = []
            for token, m in zip(tokens, labels):
                match = [o for o in sc.outcomes[m] if str(o) == token]
                if not match:
                    raise SchemaError(f"outcome token {token!r} not among declared "
                                      f"outcomes {sc.outcomes[m]}")
                outc.append(match[0])
            entries[tuple(outc)] = (val if isinstance(val, float)
                                    else reference_rational_literal(val, "probability entry"))
        read.append((key, labels, entries))

    given: dict = {}
    for key, labels, entries in read:
        canon = tuple(sorted(labels, key=order.index))
        if canon not in sc.contexts:
            raise SchemaError(f"{labels} is not a declared context")
        if canon in given:
            raise SchemaError(f"tables {given[canon][0]!r} and {key!r} are both context {canon}")
        given[canon] = key, {tuple(o[labels.index(m)] for m in canon): v
                             for o, v in entries.items()}
    missing = [c for c in sc.contexts if c not in given]
    if missing:
        raise SchemaError(f"no table supplied for contexts {missing}")
    floats = any(isinstance(v, float) for _, t in given.values() for v in t.values())
    tables = {}
    for canon, (_, entries) in given.items():
        full = {}
        for outc in itertools.product(*(sc.outcomes[m] for m in canon)):
            v = entries.get(outc, 0.0 if floats else Fraction(0))
            if floats:
                v = float(v)
                if not math.isfinite(v):
                    raise SchemaError(f"probability {v} in context {canon} is not finite")
                if v < -1e-12:
                    raise SchemaError(f"negative probability {v} in context {canon}")
                v = max(0.0, v)
            elif v < 0:
                raise SchemaError(f"negative probability {v} in context {canon}")
            full[outc] = v
        total = sum(full.values(), 0.0 if floats else Fraction(0))
        if abs(total - 1.0) > 1e-9 if floats else total != 1:
            raise SchemaError(f"context {canon} table sums to {total}, not 1")
        tables[canon] = full
    return EmpiricalModel(scenario=sc, tables=tables)
