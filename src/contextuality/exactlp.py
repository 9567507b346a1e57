"""Exact rational feasibility LPs with machine-checkable certificates.

Every verdict this package emits reduces to feasibility of a linear system
``{A x = b, x >= 0}`` over the rationals.  Feasible instances return an exact
nonnegative solution, infeasible instances return a Farkas certificate ``y``
with ``y^T A <= 0`` componentwise and ``y^T b > 0``; `check_solution` and
`check_farkas` re-verify either by direct multiplication, and
`require_certificate` raises `CertificateError` when a re-check fails.

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
from itertools import combinations
from math import lcm
from typing import Sequence


class TooLargeError(ValueError):
    """Instance exceeds the documented desk-scale guards."""


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
    s = lcm(*(v.denominator for v in values))
    return [v.numerator * (s // v.denominator) for v in values], s


def check_farkas(a_rows: Sequence[Sequence[Fraction]], b: Sequence[Fraction],
                 y: Sequence[Fraction]) -> bool:
    """Re-verify a Farkas certificate by direct multiplication."""
    m = len(b)
    if len(y) != m:
        return False
    n = len(a_rows[0]) if m else 0
    # Row i enters as (y_i / r_i) * (r_i A_i) with r_i A_i integral; one
    # common positive scale of the weights keeps every sign.
    support = [i for i in range(m) if y[i]]
    weights, int_rows = [], []
    for i in support:
        cols = [j for j, v in enumerate(a_rows[i]) if v]
        vals, r = _clear([a_rows[i][j] for j in cols])
        weights.append(Fraction(y[i]) / r)
        int_rows.append(zip(cols, vals))
    weights, _ = _clear(weights)
    totals = [0] * n
    for w, row in zip(weights, int_rows):
        for j, v in row:
            totals[j] += w * v
    if any(t > 0 for t in totals):
        return False
    return sum(y[i] * b[i] for i in support) > 0


def check_solution(a_rows: Sequence[Sequence[Fraction]], b: Sequence[Fraction],
                   x: Sequence[Fraction]) -> bool:
    """Re-verify a primal solution: A x = b exactly and x >= 0."""
    if any(v < 0 for v in x):
        return False
    xs, scale = _clear(x)
    support = [j for j, v in enumerate(xs) if v]
    for row, target in zip(a_rows, b):
        coeffs, r = _clear([row[j] for j in support])
        if sum(c * xs[j] for c, j in zip(coeffs, support)) != target * r * scale:
            return False
    return True


def require_certificate(a_rows: Sequence[Sequence[Fraction]],
                        b: Sequence[Fraction], result: Feasibility,
                        what: str = "certificate") -> Feasibility:
    """Re-check ``result`` against ``A x = b``; raise `CertificateError` on failure.

    A plain raise, not an ``assert``, so the check also runs under ``python -O``.
    """
    if result.feasible:
        if not check_solution(a_rows, b, result.x):
            raise CertificateError(f"{what} primal failed re-verification")
    elif not check_farkas(a_rows, b, result.farkas):
        raise CertificateError(f"{what} dual failed re-verification")
    return result


def solve_eq_nonneg(a_rows: Sequence[Sequence[Fraction]],
                    b: Sequence[Fraction]) -> Feasibility:
    """Decide ``{A x = b, x >= 0}`` exactly (revised phase-1 simplex, Bland's rule).

    Artificial column ``n + i`` starts basic in row ``i``.  Each round prices
    the structural columns in index order and enters the first with positive
    ``y^T a_j``; the leaving row has the smallest ratio ``x_i / d_i`` over
    ``d_i > 0``, ties going to the smallest basic index.  The arithmetic is
    integer-preserving on the scaled system (module docstring), so the pivots
    and the returned rationals are those of the plain ``Fraction`` simplex.
    """
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    if m == 0:
        return Feasibility(True, x=tuple(Fraction(0) for _ in range(n)))
    sign = [1] * m
    rhs: list[Fraction] = []
    nonzeros: list[list] = [[] for _ in range(n)]
    for i, row in enumerate(a_rows):
        bi = Fraction(b[i])
        if bi < 0:
            sign[i] = -1
            bi = -bi
        rhs.append(bi)
        for j, v in enumerate(row):
            if v:
                nonzeros[j].append((i, -_rational(v) if sign[i] < 0 else v))
    # Column j scaled by s_j to integers, stored as (row indices, values).
    cols: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    col_scale: list[int] = []
    for entries in nonzeros:
        vals, s = _clear(v for _, v in entries)
        cols.append((tuple(i for i, _ in entries), tuple(vals)))
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


def solve_eq_nonneg_pruned(a_rows: Sequence[Sequence[Fraction]],
                           b: Sequence[Fraction]) -> Feasibility:
    """``solve_eq_nonneg`` for entrywise-nonnegative A.

    Rows with b_i = 0 force every column they touch to zero, so those columns
    and rows are eliminated before the simplex runs and the certificate is
    lifted back to the full system afterwards.
    """
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    for i in range(m):
        if b[i] < 0:
            # nonnegative row can never produce a negative total
            y = [Fraction(0)] * m
            y[i] = Fraction(-1)
            return Feasibility(False, farkas=tuple(y))
    zero_rows = [i for i in range(m) if b[i] == 0]
    zero_set = set(zero_rows)
    dead_set = {j for i in zero_rows for j, v in enumerate(a_rows[i]) if v}
    dead_cols = sorted(dead_set)
    live_rows = [i for i in range(m) if i not in zero_set]
    live_cols = [j for j in range(n) if j not in dead_set]
    if not live_rows:
        return Feasibility(True, x=tuple(Fraction(0) for _ in range(n)))

    sub = [[a_rows[i][j] for j in live_cols] for i in live_rows]
    sub_b = [b[i] for i in live_rows]
    res = solve_eq_nonneg(sub, sub_b)

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
    # over the nonzero y_i, cleared to integers w_i = scale * y_i.
    support = [i for i in live_rows if y[i]]
    weights, scale = _clear([y[i] for i in support])
    shift = Fraction(0)
    for j in dead_cols:
        t = sum(w * a_rows[i][j] for w, i in zip(weights, support))
        if t > 0:
            c = sum(a_rows[i][j] for i in zero_rows)
            shift = max(shift, Fraction(t, scale * c))
    if shift > 0:
        for i in zero_rows:
            y[i] = -shift
    return Feasibility(False, farkas=tuple(y))


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

    from math import comb
    if comb(n, r) > max_bases:
        raise TooLargeError(f"vertex enumeration over C({n},{r}) bases exceeds {max_bases}")

    seen: set[tuple[Fraction, ...]] = set()
    out: list[tuple[Fraction, ...]] = []
    for cols in combinations(range(n), r):
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


def hulls_intersect(points_a: Sequence[Sequence[Fraction]],
                    points_b: Sequence[Sequence[Fraction]]) -> bool:
    """Exact test whether conv(points_a) and conv(points_b) share a point."""
    if not points_a or not points_b:
        return False
    dim = len(points_a[0])
    na, nb = len(points_a), len(points_b)
    rows: list[list[Fraction]] = []
    b: list[Fraction] = []
    for k in range(dim):
        rows.append([Fraction(p[k]) for p in points_a]
                    + [-Fraction(p[k]) for p in points_b])
        b.append(Fraction(0))
    rows.append([Fraction(1)] * na + [Fraction(0)] * nb)
    b.append(Fraction(1))
    rows.append([Fraction(0)] * na + [Fraction(1)] * nb)
    b.append(Fraction(1))
    return solve_eq_nonneg(rows, b).feasible


def solve_box_eq(a_rows: Sequence[Sequence[Fraction]],
                 b: Sequence[Fraction],
                 lower: Sequence[Fraction],
                 upper: Sequence[Fraction]) -> list[Fraction] | None:
    """One x with A x = b and lower <= x <= upper, or None if there is none."""
    m = len(a_rows)
    n = len(lower)
    if any(upper[j] < lower[j] for j in range(n)):
        return None
    # substitute x = lower + s, add slack t with s + t = upper - lower
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for i in range(m):
        row = [Fraction(a_rows[i][j]) for j in range(n)] + [Fraction(0)] * n
        rows.append(row)
        rhs.append(Fraction(b[i]) - sum(a_rows[i][j] * lower[j] for j in range(n)))
    for j in range(n):
        row = [Fraction(0)] * (2 * n)
        row[j] = Fraction(1)
        row[n + j] = Fraction(1)
        rows.append(row)
        rhs.append(Fraction(upper[j]) - Fraction(lower[j]))
    res = solve_eq_nonneg(rows, rhs)
    if not res.feasible:
        return None
    return [Fraction(lower[j]) + res.x[j] for j in range(n)]
