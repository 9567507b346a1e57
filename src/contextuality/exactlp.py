"""Exact rational feasibility LPs with machine-checkable certificates.

Every verdict this package emits reduces to feasibility of a linear system
``{A x = b, x >= 0}`` over the rationals.  ``A`` is given by column as a
`SparseColumns` (row indices and values of each column's nonzeros); callers
holding dense rows convert with `columns_from_rows`.  Feasible instances
return an exact nonnegative solution, infeasible instances return a Farkas
certificate ``y`` with ``y^T A <= 0`` componentwise and ``y^T b > 0``;
`check_solution` and `check_farkas` re-verify either by direct
multiplication on the same columns, and `require_certificate` raises
`CertificateError` when a re-check fails.

The solver is a revised phase-1 simplex with Bland's rule, run without
``Fraction`` arithmetic.  Rows with ``b_i < 0`` are negated.  Each column
``a_j`` is multiplied by ``s_j``, the lcm of its denominators, and ``b`` by
``L``, the lcm of its denominators, so the whole system is integral.  The
inverse of the integer basis matrix is kept as ``N / D`` with ``N`` an
integer matrix and ``D`` its determinant; a pivot updates ``N`` and the basic
values by integer-preserving (Bareiss) steps whose divisions are exact.
Zero entries are skipped when pricing and when forming ``N a_j``.

The scaling cannot change a single pivot.  Scaling column ``j`` by
``s_j > 0`` scales its reduced cost by ``s_j``, so the entering column
(the first one with positive ``y^T a_j``) is the same.  The phase-1 dual
``y = c_B B^-1`` does not move, because ``c_B`` is nonzero only on the
unscaled artificial columns.  In one ratio test every ratio ``x_i / d_i``
is multiplied by the same positive factor ``L / s_enter``, so the minimum
and its ties, broken by the smallest basic index, fall on the same row.
The pivots are therefore those of the plain rational simplex.  Mapping
back returns the same rationals: a basic ``x_j`` is ``s_j X_i / (D L)``,
where ``X = N (L b)`` is the integer basic vector, and ``y`` is the sum of
the rows of ``N`` that hold an artificial, divided by ``D``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence


class TooLargeError(ValueError):
    """Input exceeds a documented size cap; the package's one size refusal.

    The caps are the global-section column count, the heuristic embedding
    search's dimension, the assignment-polytope and Pusey-scan sizes, and
    the graph sizes of the exclusivity bounds.  `classify` maps it to an
    undecided verdict with a note; the other subcommands exit 2.
    """


class CertificateError(AssertionError):
    """A certificate failed its re-check by direct arithmetic."""


def to_fraction(value) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to Fraction; floats are rejected."""
    if isinstance(value, float):
        raise TypeError(f"exact LP input must be rational, got float {value!r}")
    return Fraction(value)


def format_fraction(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


@dataclass(frozen=True)
class Feasibility:
    """Outcome of an exact feasibility solve.

    ``x`` is a nonnegative rational solution when ``feasible``; otherwise
    ``farkas`` holds y with y^T A <= 0 and y^T b > 0.
    """

    feasible: bool
    x: tuple[Fraction, ...] | None = None
    farkas: tuple[Fraction, ...] | None = None


def _rational(v):
    """Ints and Fractions unchanged, any other rational as a Fraction."""
    return v if type(v) is int or type(v) is Fraction else Fraction(v)


def _clear(values) -> tuple[list[int], int]:
    """Integers ``t`` and a scale ``s > 0`` with ``values[k] == t[k] / s``."""
    values = [_rational(v) for v in values]
    if all(type(v) is int for v in values):
        return values, 1
    s = lcm(*(v.denominator for v in values))
    return [v.numerator * (s // v.denominator) for v in values], s


@dataclass(frozen=True)
class SparseColumns:
    """An ``m x n`` matrix stored by column, the one input format of the LPs.

    ``cols[j]`` is ``(rows, values)``: the ascending row indices of column
    ``j``'s nonzero entries and those entries, zeros omitted.  The solvers
    and the re-checks read it; `columns_from_rows` converts dense rows.
    """

    m: int
    cols: tuple

    @property
    def n(self) -> int:
        return len(self.cols)


def columns_from_rows(a_rows: Sequence[Sequence[Fraction]]) -> SparseColumns:
    """The nonzero entries of a dense row list, by column."""
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    idx: list[list[int]] = [[] for _ in range(n)]
    vals: list[list] = [[] for _ in range(n)]
    for i, row in enumerate(a_rows):
        for j, v in enumerate(row):
            if v:
                idx[j].append(i)
                vals[j].append(v)
    return SparseColumns(m, tuple(zip(map(tuple, idx), map(tuple, vals))))


def check_farkas(a: SparseColumns, b: Sequence[Fraction],
                 y: Sequence[Fraction]) -> bool:
    """Re-verify a Farkas certificate by direct multiplication."""
    m = a.m
    if len(b) != m or len(y) != m:
        return False
    # Column j is checked as (Y / s) . (s_j a_j) with Y = s y and s_j a_j
    # integral; the positive scales keep every sign.
    ys, _ = _clear(y)
    for idx, vals in a.cols:
        ints, _ = _clear(vals)
        if sum(ys[i] * v for i, v in zip(idx, ints)) > 0:
            return False
    return sum(y[i] * b[i] for i in range(m) if ys[i]) > 0


def check_solution(a: SparseColumns, b: Sequence[Fraction],
                   x: Sequence[Fraction]) -> bool:
    """Re-verify a primal solution: A x = b exactly and x >= 0."""
    m = a.m
    if len(b) != m or len(x) != a.n:
        return False
    if any(v < 0 for v in x):
        return False
    # x_j a_j = (x_j / s_j) (s_j a_j) with s_j a_j integral; the weights
    # x_j / s_j share one scale, so every row sum is an integer.
    support = [j for j, v in enumerate(x) if v]
    cleared = [_clear(a.cols[j][1]) for j in support]
    weights, scale = _clear([Fraction(_rational(x[j]), s)
                             for j, (_, s) in zip(support, cleared)])
    totals = [0] * m
    for j, w, (ints, _) in zip(support, weights, cleared):
        for i, v in zip(a.cols[j][0], ints):
            totals[i] += w * v
    return all(t == bi * scale for t, bi in zip(totals, b))


def require_certificate(a: SparseColumns, b: Sequence[Fraction],
                        result: Feasibility,
                        what: str = "certificate") -> Feasibility:
    """Re-check ``result`` against ``A x = b``; raise `CertificateError` on failure.

    A plain raise, not an ``assert``, so the check also runs under ``python -O``.
    """
    if result.feasible:
        if not check_solution(a, b, result.x):
            raise CertificateError(f"{what} primal failed re-verification")
    elif not check_farkas(a, b, result.farkas):
        raise CertificateError(f"{what} dual failed re-verification")
    return result


def solve_eq_nonneg(a: SparseColumns, b: Sequence[Fraction]) -> Feasibility:
    """Decide ``{A x = b, x >= 0}`` exactly (revised phase-1 simplex, Bland's rule).

    Artificial column ``n + i`` starts basic in row ``i``.  Each round prices
    the structural columns in index order and enters the first with positive
    ``y^T a_j``; the leaving row has the smallest ratio ``x_i / d_i`` over
    ``d_i > 0``, ties going to the smallest basic index.  The arithmetic is
    integer-preserving on the scaled system (module docstring), so the pivots
    and the returned rationals are those of the plain ``Fraction`` simplex.
    """
    m, n = a.m, a.n
    if m == 0:
        return Feasibility(True, x=tuple(Fraction(0) for _ in range(n)))
    sign = [1] * m
    rhs: list[Fraction] = []
    for i in range(m):
        bi = Fraction(b[i])
        if bi < 0:
            sign[i] = -1
            bi = -bi
        rhs.append(bi)
    flip = -1 in sign
    # Column j scaled by s_j to integers.
    cols: list[tuple[Sequence[int], list[int]]] = []
    col_scale: list[int] = []
    for idx, vals in a.cols:
        if flip:
            vals = [-_rational(v) if sign[i] < 0 else v for i, v in zip(idx, vals)]
        ints, s = _clear(vals)
        cols.append((idx, ints))
        col_scale.append(s)
    xb, rhs_scale = _clear(rhs)

    # B^-1 = binv / det with binv integral; the artificial basis is I.
    binv = [[int(i == k) for k in range(m)] for i in range(m)]
    det = 1
    basis = list(range(n, n + m))
    in_basis = [False] * n

    def dual() -> list[int]:
        # det * y, y = c_B B^-1 with c_B = 1 exactly on rows holding an artificial.
        rows = [binv[k] for k in range(m) if basis[k] >= n]
        return [sum(col) for col in zip(*rows)] if rows else [0] * m

    while True:
        y = dual()
        enter = -1
        for j in range(n):  # Bland: smallest structural index with negative reduced cost
            if in_basis[j]:
                continue
            idx, vals = cols[j]
            if sum(y[i] * v for i, v in zip(idx, vals)) > 0:
                enter = j
                break
        if enter < 0:
            break
        idx, vals = cols[enter]
        d = [sum(row[k] * v for k, v in zip(idx, vals)) for row in binv]
        leave = -1
        for i in range(m):
            if d[i] > 0:
                if leave < 0:
                    leave = i
                    continue
                lhs, rhs_best = xb[i] * d[leave], xb[leave] * d[i]
                if lhs < rhs_best or (lhs == rhs_best and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            raise ArithmeticError("phase-1 simplex unbounded; inputs inconsistent")
        piv = d[leave]
        lrow, lx = binv[leave], xb[leave]
        for i in range(m):
            f = d[i]
            if i == leave or (f == 0 and piv == det):
                continue
            if f:
                binv[i] = [(v * piv - f * w) // det for v, w in zip(binv[i], lrow)]
                xb[i] = (xb[i] * piv - f * lx) // det
            else:
                binv[i] = [v * piv // det for v in binv[i]]
                xb[i] = xb[i] * piv // det
        det = piv
        if basis[leave] < n:
            in_basis[basis[leave]] = False
        basis[leave] = enter
        in_basis[enter] = True

    residual = sum(xb[i] for i in range(m) if basis[i] >= n)
    if residual == 0:
        x = [Fraction(0)] * n
        for i in range(m):
            j = basis[i]
            if j < n:
                x[j] = Fraction(xb[i] * col_scale[j], det * rhs_scale)
        return Feasibility(True, x=tuple(x))
    y = dual()
    farkas = tuple(Fraction(y[i] * sign[i], det) for i in range(m))
    return Feasibility(False, farkas=farkas)


def solve_eq_nonneg_pruned(a: SparseColumns,
                           b: Sequence[Fraction]) -> Feasibility:
    """``solve_eq_nonneg`` for entrywise-nonnegative A.

    Rows with b_i = 0 force every column they touch to zero, so those columns
    and rows are eliminated before the simplex runs and the certificate is
    lifted back to the full system afterwards.
    """
    m, n = a.m, a.n
    for i in range(m):
        if b[i] < 0:
            # nonnegative row can never produce a negative total
            y = [Fraction(0)] * m
            y[i] = Fraction(-1)
            return Feasibility(False, farkas=tuple(y))
    zero = [b[i] == 0 for i in range(m)]
    if not any(zero):
        return solve_eq_nonneg(a, b)
    live_rows = [i for i in range(m) if not zero[i]]
    if not live_rows:
        return Feasibility(True, x=tuple(Fraction(0) for _ in range(n)))
    new_row = {i: k for k, i in enumerate(live_rows)}
    live_cols: list[int] = []
    dead_cols: list[int] = []
    sub: list[tuple] = []
    for j, (idx, vals) in enumerate(a.cols):
        if any(zero[i] for i in idx):
            dead_cols.append(j)
        else:
            live_cols.append(j)
            sub.append((tuple(new_row[i] for i in idx), vals))
    res = solve_eq_nonneg(SparseColumns(len(live_rows), tuple(sub)),
                          [b[i] for i in live_rows])

    if res.feasible:
        x = [Fraction(0)] * n
        for pos, j in enumerate(live_cols):
            x[j] = res.x[pos]
        return Feasibility(True, x=tuple(x))

    y = [Fraction(0)] * m
    for pos, i in enumerate(live_rows):
        y[i] = res.farkas[pos]
    # Dropped columns may still have y^T A_j > 0; push them down through the
    # zero rows they touch (which contribute nothing to y^T b).  Sums run
    # over integer weights w_i = scale * y_i, zero off the live rows.
    w, scale = _clear(y)
    shift = Fraction(0)
    for j in dead_cols:
        idx, vals = a.cols[j]
        t = sum(w[i] * v for i, v in zip(idx, vals))
        if t > 0:
            c = sum(v for i, v in zip(idx, vals) if zero[i])
            shift = max(shift, Fraction(t, scale * c))
    if shift > 0:
        for i in range(m):
            if zero[i]:
                y[i] = -shift
    return Feasibility(False, farkas=tuple(y))


def solve_box_eq(a_rows: Sequence[Sequence[Fraction]],
                 b: Sequence[Fraction],
                 lower: Sequence[Fraction],
                 upper: Sequence[Fraction]) -> list[Fraction] | None:
    """One x with A x = b and lower <= x <= upper, or None if there is none."""
    m = len(a_rows)
    n = len(lower)
    if any(upper[j] < lower[j] for j in range(n)):
        return None
    # substitute x = lower + s, add slack t with s + t = upper - lower:
    # column j is A's column j over row m + j, slack column n + j is e_{m+j};
    # the shifted right-hand side b - A lower subtracts nonzero terms only
    rhs = [Fraction(bi) for bi in b]
    cols = []
    for j in range(n):
        idx = [i for i in range(m) if a_rows[i][j]]
        vals = [Fraction(a_rows[i][j]) for i in idx]
        if lower[j]:
            for i, v in zip(idx, vals):
                rhs[i] -= v * lower[j]
        cols.append((tuple(idx) + (m + j,), tuple(vals) + (1,)))
    rhs += [Fraction(upper[j]) - Fraction(lower[j]) for j in range(n)]
    cols += [((m + j,), (1,)) for j in range(n)]
    res = solve_eq_nonneg(SparseColumns(m + n, tuple(cols)), rhs)
    if not res.feasible:
        return None
    return [Fraction(lower[j]) + res.x[j] for j in range(n)]
