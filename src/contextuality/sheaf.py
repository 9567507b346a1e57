"""Global-section feasibility: the joint-distribution test for empirical models.

An empirical model extends to a single joint distribution over all
measurements exactly when the linear system ``M x = v, x >= 0`` is feasible,
where rows of the Boolean incidence matrix ``M`` index (context, local
section) pairs, columns index global outcome assignments, and ``v`` stacks
the context tables.  Each column holds exactly one 1 per context, at the row
of the assignment's section there, so for a dual ``y`` the column of
assignment ``s`` scores ``y^T a_s = sum_c y[c, s|_c]``, a sum of one term
per context.  `IncidenceMatrix` therefore never lists its columns: it is a
column source for the exact solver whose pricing oracle finds the largest
score, and the lexicographically smallest assignment attaining it, by
max-sum variable elimination over the measurements ("bucket elimination",
Dechter 1999).

Before any LP, `IncidenceMatrix.greedy` decomposes ``v`` by bottlenecks.
It keeps ``v`` as one integer residual over every row.  Each step takes
the assignment whose smallest residual entry is largest, found by the
same elimination over (max, min) in place of (max, +) (the generalized
distributive law, Aji and McEliece 2000) and decoded as pricing decodes.
It subtracts that entry from the assignment's row in every context and
records the assignment with that weight.  Each step zeroes an entry, so
there are at most as many steps as rows.  When the residual reaches 0 the
recorded pairs are the primal and no LP runs.  Otherwise `section_lp`
decides, started from the greedy's assignments (a crash start, Bixby
1992): each enters, before any pricing, when it improves the phase-1
objective.  A ``no`` comes only from the LP's Farkas vector.

Most rows are linear combinations of others (normalization, and the
marginals that overlapping contexts share), so the LP is solved on a row
basis chosen in closed form, the Collins-Gisin basis of
`IncidenceMatrix.basis`: as many rows as Collins-Gisin coordinates, one
per coordinate.  An exactly consistent ``v`` satisfies every row once it
satisfies the basis rows.  Rows with ``v_i = 0`` are left out of the
solved system as well and their sections are forbidden to the oracle,
since no assignment through them can carry weight; the other rows outside
the basis leave the system and are priced as 0.  Phase 1 weighs the
artificial of row ``(c, s)`` by ``|c| + 1 - |N(s)|``, with N(s) the
measurements of ``c`` whose outcome in ``s`` is not their last outcome, the
set `IncidenceMatrix.basis` keys its rows by.  Most basis rows have large
N(s); weighing them lightly keeps the largest-score pricing from first
bringing in the assignments through many of them, which makes phase 1
long (the noisy 20-cycle takes 74 pricing rounds, 414 with unit costs).
Any positive costs leave the verdict and the certificate's checks as
they are (`exactlp`).  Feasibility is decided in exact rational
arithmetic, so every verdict ships a certificate:
feasible verdicts carry the (assignment, weight) pairs of a hidden-variable
model, infeasible verdicts carry a separating functional ``y`` with
``y^T M <= 0`` and ``y^T v > 0``, lifted to every row: 0 on the rows left
out of the basis, and minus the largest score on the zero rows when some
assignment through them scores above 0.  The certificate lists every row
and its rhs, and both kinds are re-checked on the full matrix before they
are returned, the primal by multiplication and the dual by the oracle's
maximum.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property, reduce
from math import prod
from operator import add, getitem, itemgetter, mul
from typing import Sequence

from .exactlp import (
    Feasibility,
    TooLargeError,
    clear_denominators,
    format_fraction,
    require_certificate,
    solve_eq_nonneg,
)
from .record import Record
from .scenario import EmpiricalModel, MeasurementScenario, rationalize_model

# The elimination's tables grow with the measurements that share contexts,
# up to one entry per global assignment on a context-dense scenario, so the
# assignment count stays capped.
MAX_ASSIGNMENTS = 2 ** 20

# `IncidenceMatrix.sections` entry of a section with no row in the system.
OUTSIDE = -1


def global_assignment_count(scenario: MeasurementScenario) -> int:
    return prod(len(scenario.outcomes[m]) for m in scenario.measurements)


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


class _Elimination:
    """Max-sum or max-min elimination of a scenario's measurements, last declared first.

    The bucket of measurement ``v`` holds the contexts whose last
    measurement is ``v`` and the messages of earlier eliminations that
    reach it.  Eliminating ``v`` combines the bucket (by sum, or by
    minimum) into one table over the union of its scopes, all at positions
    ``<= v``, and maximizes ``v`` out; the message goes to the bucket of
    the union's next-to-last measurement.  Decoding then fixes the
    measurements in declared order, each to its smallest outcome that
    maximizes its bucket's table given the earlier ones.  Under sum this
    yields the lexicographically smallest maximizer; under minimum it
    yields a maximizer, since the bucket's table bounds the total, but an
    outcome below the table's largest entry may reach the total too.

    ``steps`` lists each elimination as ``(v, union, parts, message)``;
    a part ``(f, idx)`` reads context ``f``'s table, or for ``f`` at least
    the context count a message, at ``idx`` (None: the same scope).
    ``decode[v]`` lists the positions before ``v`` in its union and their
    strides in the union table's rank.  ``scopes[c]`` lists context
    ``c``'s positions.
    """

    def __init__(self, scenario: MeasurementScenario):
        pos = {m: i for i, m in enumerate(scenario.measurements)}
        self.size = size = [len(scenario.outcomes[m]) for m in scenario.measurements]
        self.outcomes = [scenario.outcomes[m] for m in scenario.measurements]
        self.index = [{o: d for d, o in enumerate(outs)} for outs in self.outcomes]
        self.ones = (1,) * len(scenario.contexts)
        scopes = [tuple(pos[m] for m in ctx) for ctx in scenario.contexts]
        self.scopes = tuple(scopes)
        bucket: list[list[int]] = [[] for _ in size]
        for f, scope in enumerate(scopes):
            bucket[scope[-1]].append(f)
        self.steps = []
        self.constants: list[int] = []
        for v in reversed(range(len(size))):
            union = tuple(sorted({u for f in bucket[v] for u in scopes[f]}))
            msg = len(scopes)
            scopes.append(union[:-1])
            (bucket[union[-2]] if len(union) > 1 else self.constants).append(msg)
            self.steps.append((v, union, [(f, _index_map(union, scopes[f], size))
                                          for f in bucket[v]], msg))
        self.decode: list = [None] * len(size)
        for v, union, _, _ in self.steps:
            strides, step = [], 1
            for u in reversed(union):
                strides.append(step)
                step *= size[u]
            self.decode[v] = (union[:-1], tuple(reversed(strides))[:-1])

    @cached_property
    def compiled(self) -> tuple:
        """The gathers of `maximize` on a buffer of every section, then the messages.

        The buffer holds each context's table in turn, in lexicographic
        section order, which is the row order of the full incidence
        matrix; the messages follow.  Returns ``(steps, constants, room)``:
        each elimination as ``(v, first, rest, k, start, end)``, where the
        gathers ``first`` and ``rest`` read the parts of the bucket's
        table, ``k`` is the outcome count of ``v`` and the message goes to
        ``buf[start:end]``; the slots of the one-entry messages; and zeros
        for the message room.  Built once per scenario, so every matrix of
        the scenario, and both semirings, share it.
        """
        size, end = self.size, 0
        tables: list = []
        for scope in self.scopes:
            start, end = end, end + prod(size[u] for u in scope)
            tables.append(range(start, end))
        sections = end
        steps = []
        for v, union, parts, _ in self.steps:
            start, end = end, end + prod(size[u] for u in union[:-1])
            first, *rest = [itemgetter(*(tables[f] if idx is None
                                         else map(tables[f].__getitem__, idx)))
                            for f, idx in parts]
            steps.append((v, first, rest, size[v], start, end))
            tables.append(range(start, end))
        return steps, [tables[t][0] for t in self.constants], [0] * (end - sections)

    @cached_property
    def lookup(self) -> list:
        """Per context, where its section of an assignment sits in the buffer.

        Each entry pairs the getter of the context's outcome digits from an
        assignment's with a dict from those digits (a bare digit for a
        one-measurement context) to the position in the buffer of
        `compiled`.  Built once per scenario and shared like `compiled`.
        """
        size, lookup, end = self.size, [], 0
        for scope in self.scopes:
            keys = (itertools.product(*(range(size[u]) for u in scope)) if len(scope) > 1
                    else range(size[scope[0]]))
            at = dict(zip(keys, itertools.count(end)))
            lookup.append((itemgetter(*scope), at))
            end += len(at)
        return lookup

    def maximize(self, tables: list, combine=add) -> tuple:
        """(largest total, outcome indices of the maximizer the decoding picks).

        ``tables`` holds every section's entry in the order of `compiled`.
        ``combine``, ``add`` or ``min``, joins the entries an assignment
        reads, one per context: ``add`` gives the largest sum (max-sum),
        ``min`` the largest smallest entry (max-min).  Both distribute over ``max``, so one
        elimination serves either (the generalized distributive law, Aji
        and McEliece 2000).
        """
        steps, constants, room = self.compiled
        buf = [*tables, *room]
        kept = [None] * len(self.size)
        for v, first, rest, k, start, end in steps:
            f = first(buf)
            for part in rest:
                if combine is add:
                    f = list(map(add, f, part(buf)))
                else:
                    # Comprehensions beat map(min, ...) and map(max, ...)
                    # of two lists up to threefold.
                    f = [a if a < b else b for a, b in zip(f, part(buf))]
            buf[start:end] = ([a if a > b else b for a, b in zip(f[::2], f[1::2])] if k == 2
                              else map(max, *(f[d::k] for d in range(k))))
            kept[v] = f
        digits: list[int] = []
        at = digits.__getitem__
        for f, k, (prev, strides) in zip(kept, self.size, self.decode):
            base = sum(map(mul, map(at, prev), strides))
            if k == 2:
                digits.append(0 if f[base] >= f[base + 1] else 1)
            else:
                seg = f[base:base + k]
                digits.append(seg.index(max(seg)))
        return reduce(combine, map(buf.__getitem__, constants)), digits


class IncidenceMatrix:
    """The section-vs-assignment 0/1 matrix as an implicit column source.

    Row ``i`` is the local section ``rows[i]``.  The column of a global
    assignment ``s``, a tuple of outcomes in declared measurement order,
    holds a 1 at the row of ``s``'s section in each context; ``shape``
    counts every assignment.  ``sections[c][r]`` says what becomes of
    context ``c``'s section of lexicographic rank ``r``: its row; None
    when the section is forbidden, so that an assignment through it has no
    column; or `OUTSIDE` when the section has no row in this system, so
    that it is priced as 0 and has no entry in a column.  ``plan`` is the
    scenario's elimination, shared by every matrix of one scenario.

    `basis` picks the rows of the Collins-Gisin row basis, on which
    `solve_global_section` solves; `restrict` builds the matrix on chosen
    rows.  `costs` weighs each row's phase-1 artificial by its section.
    """

    def __init__(self, scenario: MeasurementScenario, rows: tuple,
                 sections: tuple, plan: _Elimination):
        self.scenario, self.rows, self.sections, self.plan = scenario, rows, sections, plan
        self.m = len(rows)
        self._forbids = any(None in secs for secs in sections)
        self._outside = any(OUTSIDE in secs for secs in sections)
        self._columns: dict = {}

    @cached_property
    def _gather(self):
        # The getter of the plan's section entries from [*y, low, 0]: y at
        # a section's row, low at a forbidden section, 0 at one outside the
        # system.  None when the entries are y itself, on the full matrix.
        slot = {None: self.m, OUTSIDE: self.m + 1}
        flat = [slot.get(r, r) for r in self._flat]
        return None if flat == list(range(self.m)) else itemgetter(*flat)

    @cached_property
    def _flat(self) -> list:
        # ``sections`` in the order of the plan's buffer.
        return [r for secs in self.sections for r in secs]

    @cached_property
    def costs(self) -> tuple:
        """The phase-1 cost of row ``(c, s)``'s artificial: ``|c| + 1 - |N(s)|``.

        N(s) holds the measurements of ``c`` whose outcome in ``s`` is not
        their last outcome, as in `basis`, so the cost runs from 1, on a
        section with no last outcome, to ``|c| + 1`` on the all-last one.
        """
        last = {m: outs[-1] for m, outs in self.scenario.outcomes.items()}
        return tuple(1 + sum(o == last[m] for m, o in zip(ctx, sec))
                     for ctx, sec in self.rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.m, global_assignment_count(self.scenario))

    def basis(self) -> list[int]:
        """The rows of the Collins-Gisin row basis, ascending.

        Row ``(c, s)`` is kept unless N(s), the measurements of ``c`` whose
        outcome in ``s`` is not their last outcome, lies inside an earlier
        context.  As a function of the assignment, the row is the product
        over ``c`` of ``[x_m = s_m]``, with ``[x_m = last]`` written as
        ``1 - sum_{o != last} [x_m = o]``.  Expanded, it is the coordinate
        ``prod_{m in N(s)} [x_m = s_m]`` plus coordinates over strict
        supersets of N(s) inside ``c`` (Collins and Gisin, J. Phys. A 37,
        1775, 2004).  Each coordinate over a set S is the leading term of
        exactly one kept row, that of the first context containing S, and
        the coordinates are linearly independent.  Taken by decreasing
        |N(s)|, the kept rows are unitriangular in the coordinates, so they
        are independent and span every row: there are
        ``sum_S prod_{m in S} (k_m - 1)`` of them, over the sets S inside
        some context.  Computed on a matrix over all sections.
        """
        # A set of measurements is a bit mask over the declared positions;
        # N(s) sums, over the context, the bit of each outcome not last.
        sc = self.scenario
        bit = {m: 1 << i for i, m in enumerate(sc.measurements)}
        bits = {m: [bit[m]] * (len(sc.outcomes[m]) - 1) + [0] for m in bit}
        covered: set = set()
        keep = []
        for ctx, secs in zip(sc.contexts, self.sections):
            # Sections run in lexicographic order, as does the product.
            keep += [i for i, n in zip(secs, map(sum, itertools.product(*map(bits.get, ctx))))
                     if n not in covered]
            whole = sub = sum(map(bit.get, ctx))
            while sub:
                covered.add(sub)
                sub = (sub - 1) & whole
            covered.add(0)
        return keep

    def restrict(self, keep: list[int], outside=()) -> IncidenceMatrix:
        """The same scenario's matrix on the rows ``keep``.

        The rows ``outside`` leave the system, the others are forbidden.
        """
        new = dict.fromkeys(outside, OUTSIDE)
        new.update((i, k) for k, i in enumerate(keep))
        return IncidenceMatrix(self.scenario, tuple(self.rows[i] for i in keep),
                               tuple(tuple(new.get(r) for r in secs)
                                     for secs in self.sections), self.plan)

    def _best(self, y: Sequence[int]) -> tuple:
        """(largest y^T a_s, outcome indices of the smallest s attaining it)."""
        # A forbidden section scores below any assignment with a column,
        # whose score is at least -sum |y|; a section outside scores 0.
        if self._gather is None:
            return self.plan.maximize(y)
        low = -1 - sum(map(abs, y)) if self._forbids else 0
        return self.plan.maximize(self._gather([*y, low, 0]))

    def _assignment(self, digits) -> tuple:
        s = tuple(map(getitem, self.plan.outcomes, digits))
        if s not in self._columns:
            flat = self._flat
            idx = tuple(flat[at[get(digits)]] for get, at in self.plan.lookup)
            if self._outside:
                idx = tuple(r for r in idx if r != OUTSIDE)
                self._columns[s] = (idx, (1,) * len(idx), 1)
            else:
                self._columns[s] = (idx, self.plan.ones, 1)
        return s

    def maximum(self, y) -> tuple:
        """The largest ``y^T a_s`` and the lexicographically smallest ``s`` attaining it."""
        ints, scale = clear_denominators(y)
        score, digits = self._best(ints)
        return Fraction(score, scale), self._assignment(digits)

    def price(self, y: Sequence[int]):
        """The best assignment if it scores above 0, else None."""
        score, digits = self._best(y)
        return self._assignment(digits) if score > 0 else None

    def column(self, s) -> tuple:
        if s not in self._columns:
            index = self.plan.index
            if len(s) != len(index):
                raise ValueError(f"{len(s)} outcomes for {len(index)} measurements")
            self._assignment([ix[o] for ix, o in zip(index, s)])
        return self._columns[s]

    def greedy(self, residual: list[int], scale: int) -> tuple[list, bool]:
        """Greedy bottleneck decomposition of ``v`` on a matrix of every section.

        ``residual`` starts as the integers ``scale v`` (as
        `clear_denominators` forms them) and is used up in place.  Each
        step takes the assignment whose smallest residual entry, over its
        section in every context, is largest, by the max-min elimination
        with the pricing oracle's decoding; it subtracts that entry from
        each of those rows and records the assignment with the entry over
        ``scale`` as its weight.  The steps stop when no assignment has a
        positive smallest entry, or when the residual runs out.  Each step
        zeroes a positive entry, so there are at most ``m`` of them.
        Returns the (assignment, weight) pairs, distinct assignments in the
        order taken, and whether the residual reached 0, when the pairs
        solve ``M x = v`` with ``x >= 0``.
        """
        # Every context's table sums to 1 and each step takes t from one
        # entry of each, so every context's residual sums to ``left``.
        left = sum(residual[i] for i in self.sections[0])
        pairs = []
        while left > 0:
            t, digits = self.plan.maximize(residual, min)
            if t <= 0:
                break
            s = self._assignment(digits)
            for i in self._columns[s][0]:
                residual[i] -= t
            left -= t
            pairs.append((s, Fraction(t, scale)))
        return pairs, not any(residual)

    def primal(self, pairs) -> tuple:
        """The (assignment, weight) pairs, lexicographic in the assignments."""
        index = self.plan.index
        return tuple(sorted(pairs, key=lambda p: [ix[o] for ix, o in zip(index, p[0])]))

    def support(self, x) -> list | None:
        try:
            pairs = [(tuple(s), w) for s, w in x]
            if any(None in self.column(s)[0] for s, _ in pairs):
                return None
        except (TypeError, ValueError, KeyError):
            return None
        return pairs


def build_incidence_matrix(scenario: MeasurementScenario) -> IncidenceMatrix:
    """The column source over all local sections, within the assignment cap.

    Rows run over the contexts in declared order, each context's sections
    in lexicographic order.
    """
    q = global_assignment_count(scenario)
    if q > MAX_ASSIGNMENTS:
        raise TooLargeError(
            f"{q} global assignments exceed the supported {MAX_ASSIGNMENTS}")
    rows, sections = [], []
    for ctx in scenario.contexts:
        secs = scenario.outcome_tuples(ctx)
        sections.append(tuple(range(len(rows), len(rows) + len(secs))))
        rows += [(ctx, sec) for sec in secs]
    return IncidenceMatrix(scenario, tuple(rows), tuple(sections),
                           _Elimination(scenario))


class SectionFeasibility(Record):
    """LP outcome plus the data needed to re-check it independently.

    ``primal`` is the (assignment, weight) pairs of the positive weights,
    lexicographic in the assignments; ``dual`` has one entry per row.
    """

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
            cert["primal"] = [[",".join(map(str, s)), format_fraction(w)]
                              for s, w in self.primal]
        if self.dual is not None:
            cert["dual"] = [format_fraction(y) for y in self.dual]
        cert["rows"] = ["|".join([",".join(map(str, ctx)), ",".join(map(str, sec))])
                        for ctx, sec in self.matrix.rows]
        cert["rhs"] = [format_fraction(self.model.tables[ctx][sec])
                       for ctx, sec in self.matrix.rows]
        return cert


def section_lp(matrix: IncidenceMatrix, v: list, start=()) -> Feasibility:
    """The section LP of ``M x = v`` on its basis rows, with a certificate over every row.

    ``matrix`` lists every section (`build_incidence_matrix`).  The LP runs
    on the basis rows with a nonzero right-hand side, the other nonzero
    rows outside the system and the zero rows forbidden; the assignments
    ``start`` are offered as its first columns.  A Farkas vector is lifted
    to every row.
    """
    basis = matrix.basis()
    live = [i for i in basis if v[i]]
    kept = set(basis)
    outside = [i for i, vi in enumerate(v) if vi and i not in kept]
    result = solve_eq_nonneg(matrix.restrict(live, outside), [v[i] for i in live],
                             start=start)
    if result.feasible:
        return result
    y = [Fraction(0)] * len(v)
    for i, yi in zip(live, result.farkas):
        y[i] = yi
    # An assignment through a row with v_i = 0 had no column in the
    # solved system.  Such rows add nothing to y^T v, so setting them to
    # minus the largest score brings every such assignment to <= 0.
    if not all(v):
        top = matrix.maximum(y)[0]
        if top > 0:
            y = [yi if vi else -top for yi, vi in zip(y, v)]
    return Feasibility(False, farkas=tuple(y))


def solve_global_section(model: EmpiricalModel) -> SectionFeasibility:
    """Exact feasibility of the global-section system for a (rationalized) model.

    The model is first replaced by a nearby exactly-consistent rational model
    (`rationalize_model`), so the verdict is a statement about exact data;
    `model` of the result is that exact model.  This is the one place that
    rationalizes: callers hand over the parsed model as it is.  The greedy
    decomposition (`IncidenceMatrix.greedy`) runs first; when it leaves a
    residual, `section_lp` decides, started from the greedy's assignments.
    The result's certificate covers every row and is re-checked on the full
    matrix whichever stage found it.  Raises `DisturbingModel` when the
    input marginals disagree beyond 1e-9, and `TooLargeError` when the
    scenario has more than `MAX_ASSIGNMENTS` global assignments.
    """
    rational = rationalize_model(model)
    matrix = build_incidence_matrix(model.scenario)
    v = [rational.tables[ctx][sec] for ctx, sec in matrix.rows]
    ints, scale = rational.integer_tables
    pairs, whole = matrix.greedy([ints[ctx][sec] for ctx, sec in matrix.rows], scale)
    if whole:
        result = Feasibility(True, x=matrix.primal(pairs))
    else:
        result = section_lp(matrix, v, [s for s, _ in pairs])
    require_certificate(matrix, v, result, "global-section")
    return SectionFeasibility(feasible=result.feasible, primal=result.x,
                              dual=result.farkas, matrix=matrix, model=rational)
