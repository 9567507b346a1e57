"""Independent oracles shared by the solver and acceptance tests.

The numeric oracles recompute expected values from first principles (Born
rule plus a planar angle grid) without touching the package's solvers, so a
test agreeing with them is evidence rather than circularity.
`reference_solve_eq_nonneg` is the plain ``Fraction`` simplex the exact LP
kernel must match pivot for pivot, and `reference_incidence_rows` the dense
row-by-row incidence matrix the column-sparse global-section LP must equal.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

import numpy as np

from contextuality.exactlp import Feasibility

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
                              b: Sequence[Fraction]) -> Feasibility:
    """The ``Fraction`` Bland simplex that ``solve_eq_nonneg`` replaced, kept verbatim.

    Dense revised phase-1 simplex with an explicit rational B^-1.  The
    package's integer-preserving kernel must return equal ``Feasibility``
    objects: the same pivots give the same solution or Farkas vector.
    """
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    if m == 0:
        return Feasibility(True, x=tuple(Fraction(0) for _ in range(n)))
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
        # y = c_B B^-1 with c_B = 1 exactly on rows still holding an artificial.
        return [sum(binv[k][i] for k in range(m) if basis[k] >= n)
                for i in range(m)]

    while True:
        y = dual()
        enter = -1
        for j in range(n):  # Bland: smallest structural index with negative reduced cost
            if in_basis[j]:
                continue
            if sum(y[i] * cols[j][i] for i in range(m)) > 0:
                enter = j
                break
        if enter < 0:
            break
        d = [sum(binv[i][k] * cols[enter][k] for k in range(m)) for i in range(m)]
        leave = -1
        best: Fraction | None = None
        for i in range(m):
            if d[i] > 0:
                ratio = xb[i] / d[i]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
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
