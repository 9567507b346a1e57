"""Exact rational feasibility LPs with machine-checkable certificates.

Every verdict this package emits reduces to feasibility of a linear system
``{A x = b, x >= 0}`` over the rationals.  ``A`` is a *column source*: an
object with ``m`` rows that prices and hands out its columns one at a time,
so a source with exponentially many columns never lists them.  It has:

- ``price(y)``: the key of a column with ``y^T a > 0``, or None when every
  column has ``y^T a <= 0``, for an integer vector ``y``;
- ``column(key)``: ``(rows, values, s)`` with ``values`` the integers
  ``s a_i`` on the nonzero rows of that column and ``s > 0``;
- ``primal(pairs)``: a solution built from ``(key, value)`` pairs, the
  nonzero variables; ``support(x)`` reads the pairs back, or gives None
  when ``x`` does not fit the source;
- ``costs``: ``m`` positive integers, the phase-1 cost of each row's
  artificial.

`SparseColumns` lists its columns (row indices and values of each column's
nonzeros; `columns_from_rows` converts dense rows), prices them by
Bland's rule, the first column with positive ``y^T a_j``, and costs every
artificial 1.  The global-section matrix of `sheaf.IncidenceMatrix`
prices by the largest ``y^T a_s`` over all global assignments, found by
max-sum elimination, and weighs each row's artificial by its section.
Feasible instances return an exact nonnegative solution, infeasible
instances return a Farkas certificate ``y`` with ``y^T A <= 0``
componentwise and ``y^T b > 0``; `check_solution` and `check_farkas`
re-verify either, the primal by direct multiplication and the dual by the
source's own pricing, and `require_certificate` raises `CertificateError`
when a re-check fails.

The solver is a revised phase-1 simplex run without ``Fraction``
arithmetic.  Rows with ``b_i < 0`` are negated.  Each column ``a_j`` comes
multiplied by ``s_j``, the lcm of its denominators, and ``b`` by ``L``,
the lcm of its denominators, so the whole system is integral.  The inverse
of the integer basis matrix is kept as ``N / D`` with ``N`` an integer
matrix and ``D > 0``; a pivot on ``p = (N a_j)_r`` updates ``N`` and the
basic values by integer-preserving (Bareiss) steps whose divisions are
exact, row ``i`` becoming ``(p N_i - d_i N_r) / D``.  When ``p = D`` no
row rescales: each row with ``d_i != 0`` is updated in place, as
``N_i - d_i N_r / D`` term by term, and only where the leaving row ``N_r``
is nonzero.  Phase 1 minimizes ``c^T x_art``, the artificials weighted by
the source's positive costs ``c``.  Its dual ``D y = c_B N``, the sum of
the rows of ``N`` that hold an artificial each times its cost, starts at
``c`` and is not summed from those rows but kept current, in ``O(m)`` per
pivot: it becomes ``(p D y - C N_r) / D`` with ``C = p c_r [r held one] +
(sum of c_k d_k over the rows k still holding one)``.  A 0/1 column, as every
section column is, gets its reduced cost and ``N a_j`` by summing
entries, with no products.  Zero entries are skipped when pricing and
when forming ``N a_j``.  None of this changes a pivot or a returned
rational: the integers are the ones the full Bareiss step would compute.

A caller may offer start columns, keys it expects in a solution, such as
the section solver's greedy assignments: before any pricing each enters
in turn when its reduced cost under the current dual is positive, and is
passed over otherwise (a crash start, Bixby 1992).  They pivot by the
same ratio test as priced columns, so the argument below holds for them.

The leaving row is chosen by the lexicographic ratio test (Dantzig, Orden
and Wolfe 1955): among rows with ``d_i > 0``, where ``d = B^-1 a_enter``,
the lexicographically smallest row ``(x_i, (B^-1)_i) / d_i``, with the row
of ``B^-1`` read from its last entry back.  No two rows tie, since
``B^-1`` has full rank.  The start ``B = I``, ``x = b >= 0`` makes every
row of ``[x_B | B^-1]`` lexicographically positive in that order, each
pivot keeps it so, and the phase-1 row ``c_B [x_B | B^-1]`` then falls
strictly in lexicographic order at every pivot with a positive reduced
cost: a pivot on row ``r`` subtracts ``(y^T a_j / d_r) [x_r | (B^-1)_r]``,
a positive multiple of a lexicographically positive row, whatever the
positive costs.  No basis repeats, so the simplex ends after finitely
many pivots whichever improving column the source prices in, Bland's
first or the section oracle's largest, and whichever start columns
enter; a priced column that does not improve is refused with
``ArithmeticError``.  Reading ``B^-1`` backwards sends a tie
between rows that still hold their own artificials to the lowest row, as
Bland's smallest-index tie-break would.

Since every cost is positive, the phase-1 optimum ``c_B x_B`` is 0
exactly when the system is feasible.  When it stops above 0 with no
column priced in, ``y = c_B B^-1`` is a Farkas vector: ``y^T a_j <= 0``
for every column, which is what pricing found, and ``y^T b = c_B B^-1 b
= c_B x_B > 0``.  The costs steer which column improves most and hence
the pivots; they do not touch the verdict or the certificate's checks.

The scaling cannot change a single pivot.  Scaling column ``j`` by
``s_j > 0`` scales its reduced cost by ``s_j``, so its sign is the same,
and the section source's 0/1 columns are not scaled at all.  The phase-1
dual ``y = c_B B^-1`` does not move, because ``c_B`` is nonzero only on the
unscaled artificial columns.  In one ratio test every row
``(x_i, (B^-1)_i) / d_i`` of the scaled system is the unscaled one with its
first entry times ``L / s_enter`` and the rest times ``1 / s_enter``, so
the lexicographic minimum falls on the same row.  The pivots are therefore
those of the plain rational simplex.  Mapping back returns the same
rationals: a basic ``x_j`` is ``s_j X_i / (D L)``, where ``X = N (L b)``
is the integer basic vector, and ``y`` is ``c_B N / D``, the sum over the
rows that hold an artificial of that row of ``N`` times its cost,
divided by ``D``.  The loop stops once no
artificial carries weight: later pivots would all be degenerate and move
no variable.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import itemgetter, mul
from typing import Sequence

from .record import Record


class TooLargeError(ValueError):
    """Input exceeds a documented size cap; the package's one size refusal.

    The caps are the global-section column count, the embedding LP's
    column count, the assignment-polytope and Pusey-scan sizes, and
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


def nearest_fraction(x: float, max_den: int) -> tuple[int, int]:
    """``Fraction(x).limit_denominator(max_den)`` as coprime (numerator, denominator).

    The same continued-fraction rule, run on the integers of
    ``x.as_integer_ratio()`` with no `Fraction` built: the last convergent
    of ``x`` with denominator at most ``max_den``, or the semiconvergent
    with the largest such denominator when it lies strictly nearer.
    """
    n, d = x.as_integer_ratio()
    if d <= max_den:
        return n, d
    den = d
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > max_den:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (max_den - q0) // q1
    # p1/q1 lies d/(q1 den) from x and 1/(q1 (q0 + k q1)) from the
    # semiconvergent, which lies on the other side of x.
    if 2 * d * (q0 + k * q1) <= den:
        return p1, q1
    return p0 + k * p1, q0 + k * q1


def format_fraction(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


class Feasibility(Record):
    """Outcome of an exact feasibility solve.

    ``x`` is a nonnegative rational solution when ``feasible``, in the
    column source's `primal` form; otherwise ``farkas`` holds y with
    y^T A <= 0 and y^T b > 0.
    """

    feasible: bool
    x: tuple | None = None
    farkas: tuple[Fraction, ...] | None = None


def _rational(v):
    """Ints and Fractions unchanged, any other rational as a Fraction."""
    return v if type(v) is int or type(v) is Fraction else Fraction(v)


def clear_denominators(values) -> tuple[list[int], int]:
    """Integers ``t`` and a scale ``s > 0`` with ``values[k] == t[k] / s``."""
    values = [_rational(v) for v in values]
    if all(type(v) is int for v in values):
        return values, 1
    s = lcm(*(v.denominator for v in values))
    return [v.numerator * (s // v.denominator) for v in values], s


class SparseColumns(Record):
    """An ``m x n`` matrix stored by column: the listed column source.

    ``cols[j]`` is ``(rows, values)``: the ascending row indices of column
    ``j``'s nonzero entries and those entries, zeros omitted.  Keys are the
    column indices, pricing is Bland's rule, every phase-1 cost is 1 and
    the primal is dense.
    """

    m: int
    cols: tuple

    @property
    def n(self) -> int:
        return len(self.cols)

    @property
    def costs(self) -> tuple:
        return (1,) * self.m

    @cached_property
    def _integral(self) -> list:
        return [(idx, *clear_denominators(vals)) for idx, vals in self.cols]

    def price(self, y: Sequence[int]) -> int | None:
        """Bland's rule: the first column with ``y^T a_j > 0``."""
        for j, (idx, ints, _) in enumerate(self._integral):
            if sum(map(mul, map(y.__getitem__, idx), ints)) > 0:
                return j
        return None

    def column(self, j: int) -> tuple:
        return self._integral[j]

    def select(self, keep: Sequence[int]) -> SparseColumns:
        """The columns ``keep``, in order, sharing this matrix's integral columns."""
        sub = SparseColumns(self.m, tuple(self.cols[j] for j in keep))
        ints = self._integral
        # Filled in where `cached_property` keeps its value.
        sub.__dict__["_integral"] = [ints[j] for j in keep]
        return sub

    def primal(self, pairs) -> tuple:
        x = [Fraction(0)] * self.n
        for j, v in pairs:
            x[j] = v
        return tuple(x)

    def support(self, x) -> list | None:
        return list(enumerate(x)) if len(x) == self.n else None


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


def _farkas_fault(a, b: Sequence[Fraction], y: Sequence[Fraction]) -> str | None:
    """Why ``y`` is no Farkas certificate for ``A x = b``, or None if it is one."""
    if len(b) != a.m or len(y) != a.m:
        return "has the wrong length"
    # The source prices Y = s y, integral, against its own columns, and
    # y^T b has the sign of Y^T B for B = t b integral; the positive scales
    # keep every sign.
    ys = clear_denominators(y)[0]
    key = a.price(ys)
    if key is not None:
        return f"scores column {key!r} above 0"
    if sum(map(mul, ys, clear_denominators(b)[0])) <= 0:
        return "has y^T b <= 0"
    return None


def check_farkas(a, b: Sequence[Fraction], y: Sequence[Fraction]) -> bool:
    """Re-verify a Farkas certificate: no column prices above 0, and y^T b > 0."""
    return _farkas_fault(a, b, y) is None


def check_solution(a, b: Sequence[Fraction], x) -> bool:
    """Re-verify a primal solution: A x = b exactly and x >= 0."""
    pairs = a.support(x)
    if pairs is None or len(b) != a.m:
        return False
    if any(v < 0 for _, v in pairs):
        return False
    # x_j a_j = (x_j / s_j) (s_j a_j) with s_j a_j integral.  Over the lcm
    # L of the denominators of the weights x_j / s_j every row sum is an
    # integer t_i, and A x = b holds when t_i q_i = p_i L for b_i = p_i / q_i.
    cols = [(a.column(j), _rational(v)) for j, v in pairs if v]
    scale = lcm(*(v.denominator * s for (_, _, s), v in cols))
    totals = [0] * a.m
    for (idx, ints, s), v in cols:
        w = v.numerator * (scale // (v.denominator * s))
        for i, n in zip(idx, ints):
            totals[i] += w * n
    return all(t * bi.denominator == bi.numerator * scale
               for t, bi in zip(totals, map(_rational, b)))


def require_certificate(a, b: Sequence[Fraction], result: Feasibility,
                        what: str = "certificate") -> Feasibility:
    """Re-check ``result`` against ``A x = b``; raise `CertificateError` on failure.

    A plain raise, not an ``assert``, so the check also runs under ``python -O``.
    """
    if result.feasible:
        if not check_solution(a, b, result.x):
            raise CertificateError(f"{what} primal failed re-verification")
    elif not check_farkas(a, b, result.farkas):
        fault = _farkas_fault(a, b, result.farkas)
        raise CertificateError(f"{what} dual failed re-verification"
                               + (f": it {fault}" if fault else ""))
    return result


def solve_eq_nonneg(a, b: Sequence[Fraction], start=()) -> Feasibility:
    """Decide ``{A x = b, x >= 0}`` exactly (revised phase-1 simplex).

    Artificial ``i`` starts basic in row ``i`` with the phase-1 cost
    ``a.costs[i]``, so the dual starts at the costs.  The column keys
    ``start`` are offered first, in order, without pricing: each enters
    when its reduced cost under the current dual is positive and is passed
    over otherwise.  Then each round the column source prices the dual and
    hands over the entering column.  The leaving row is always the
    lexicographic minimum of the ratio test.  The
    arithmetic is integer-preserving on the scaled system (module
    docstring), so the pivots and the returned rationals are those of the
    plain ``Fraction`` simplex with the same rules and costs.  Raises
    ``ValueError`` unless ``b`` has one entry per row and the costs are
    one positive integer per row.
    """
    m = a.m
    if len(b) != m:
        raise ValueError(f"right-hand side has {len(b)} entries for {m} rows")
    cost = list(a.costs)
    if len(cost) != m:
        raise ValueError(f"{len(cost)} phase-1 costs for {m} rows")
    for i, c in enumerate(cost):
        if type(c) is not int or c <= 0:
            raise ValueError(f"phase-1 cost {c!r} of row {i} is not a positive integer")
    if m == 0:
        return Feasibility(True, x=a.primal(()))
    sign = [1] * m
    rhs: list[Fraction] = []
    for i in range(m):
        bi = _rational(b[i])
        if bi.numerator < 0:
            sign[i] = -1
            bi = -bi
        rhs.append(bi)
    flip = -1 in sign
    xb, rhs_scale = clear_denominators(rhs)

    # B^-1 = binv / det with binv integral; the artificial basis is I.
    # basis[i] is the key of the column basic in row i and scale[i] its s;
    # arts lists the rows still holding their artificial.  y is det times
    # the dual c_B B^-1, c_B = cost on the rows in arts and 0 elsewhere:
    # the cost-weighted sum of those rows of binv, kept current by each pivot.
    binv = [[0] * m for _ in range(m)]
    for i, row in enumerate(binv):
        row[i] = 1
    det = 1
    basis: list = [None] * m
    scale = [1] * m
    arts = list(range(m))
    y = cost[:]

    offered = list(reversed(start))
    while any(xb[i] for i in arts):
        crash = bool(offered)
        if crash:
            enter = offered.pop()
        else:
            enter = a.price([v * s for v, s in zip(y, sign)] if flip else y)
            if enter is None:
                break
        idx, vals, s = a.column(enter)
        if flip:
            vals = [-v if sign[i] < 0 else v for i, v in zip(idx, vals)]
        # A 0/1 column: every product is a plain read.
        get = itemgetter(*idx) if len(idx) > 1 and vals.count(1) == len(idx) else None
        score = sum(get(y)) if get else sum(map(mul, map(y.__getitem__, idx), vals))
        if score <= 0:
            if crash:
                continue
            # A source that prices a non-improving column could cycle.
            raise ArithmeticError(f"column {enter!r} priced in does not improve")
        if get:
            d = [sum(get(row)) for row in binv]
        else:
            d = [sum(map(mul, map(row.__getitem__, idx), vals)) for row in binv]
        leave = -1
        for i in range(m):
            if d[i] <= 0:
                continue
            if leave < 0:
                leave = i
                continue
            # (x_i, binv_i) / d_i against the incumbent's, entry by entry.
            dl, di = d[leave], d[i]
            lhs, rhs_best = xb[i] * dl, xb[leave] * di
            if lhs == rhs_best:
                for u, w in zip(reversed(binv[i]), reversed(binv[leave])):
                    lhs, rhs_best = u * dl, w * di
                    if lhs != rhs_best:
                        break
            if lhs < rhs_best:
                leave = i
        if leave < 0:
            raise ArithmeticError("phase-1 simplex unbounded; inputs inconsistent")
        piv = d[leave]
        lrow, lx = binv[leave], xb[leave]
        held = basis[leave] is None
        if held:
            arts.remove(leave)
        # The new y sums cost_k (piv binv_k - d_k lrow) / det over the rows
        # k left in arts; the leaving row drops out of the sum if it was in it.
        c = piv * cost[leave] * held + sum(cost[k] * d[k] for k in arts)
        y = [(v * piv - c * w) // det for v, w in zip(y, lrow)]
        if piv == det:
            # No row rescales: (v det - f w) / det = v - f w / det, exact
            # term by term, and only where the leaving row is nonzero.
            nz = [(k, w) for k, w in enumerate(lrow) if w]
            for i, f in enumerate(d):
                if f and i != leave:
                    row = binv[i]
                    for k, w in nz:
                        row[k] -= f * w // det
                    xb[i] -= f * lx // det
        else:
            for i, f in enumerate(d):
                if i == leave:
                    continue
                if f:
                    binv[i] = [(v * piv - f * w) // det for v, w in zip(binv[i], lrow)]
                    xb[i] = (xb[i] * piv - f * lx) // det
                else:
                    binv[i] = [v * piv // det for v in binv[i]]
                    xb[i] = xb[i] * piv // det
        det = piv
        basis[leave] = enter
        scale[leave] = s

    if not any(xb[i] for i in arts):
        return Feasibility(True, x=a.primal(
            (basis[i], Fraction(xb[i] * scale[i], det * rhs_scale))
            for i in range(m) if basis[i] is not None and xb[i]))
    farkas = tuple(Fraction(y[i] * sign[i], det) for i in range(m))
    return Feasibility(False, farkas=farkas)


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
