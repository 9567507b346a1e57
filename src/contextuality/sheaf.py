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
Dechter 1999).  Its plan, `_Plan`, is laid out once per scenario, in one
pass over a buffer of every context's sections: from each context's base
and outcome strides it reads the elimination's gathers and decoding
strides and where an assignment's sections sit; the row basis and phase-1
costs below are laid out when the section LP first asks for them.  Every
matrix of the scenario shares the plan.

First, `odd_cycle_dual` looks for a violated odd-cycle inequality: on the
graph of the two-outcome measurements, joined where they share a context
and weighted by P(equal) and P(different), a closed walk with an odd
number of "equal" arcs whose weights sum below 1 (Barahona and Mahjoub
1986).  Such a walk is a small integer Farkas vector, of the CHSH and
KCBS kind, and the verdict is ``no`` with neither the greedy nor the LP
run.  The stage is complete on binary n-cycles and two-setting boxes;
elsewhere (Peres-Mermin, three-setting boxes, more than two outcomes) it
may find nothing, and the stages below decide.

Next, `IncidenceMatrix.greedy` decomposes ``v`` by bottlenecks.
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
objective.  The LP is the complete decider: a ``no`` comes from the
odd-cycle stage's vector or the LP's Farkas vector.

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
maximum.  The odd-cycle stage's vector is not lifted: it is nonzero off
the basis wherever its walk runs.
"""

from __future__ import annotations

import heapq
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

# `IncidenceMatrix.flat` entry of a section with no row in the system.
OUTSIDE = -1


def global_assignment_count(scenario: MeasurementScenario) -> int:
    return prod(len(scenario.outcomes[m]) for m in scenario.measurements)


def _offsets(sizes: tuple) -> dict:
    """A context's section offsets, by section in lexicographic order.

    A dict from a section's outcome indices (a bare index for one
    measurement) to its offset in the context's table.
    """
    keys = itertools.product(*map(range, sizes)) if len(sizes) > 1 else range(sizes[0])
    return dict(zip(keys, itertools.count()))


def _masks(sizes: tuple) -> tuple:
    """Each section's mask and phase-1 cost, in lexicographic order.

    The mask holds the measurements not at their last outcome, bit ``i``
    for the context's ``i``-th; the cost is ``|c| + 1`` less their count.
    """
    masks = [sum(1 << i for i, (d, k) in enumerate(zip(key, sizes)) if d < k - 1)
             for key in itertools.product(*map(range, sizes))]
    return masks, [len(sizes) + 1 - n.bit_count() for n in masks]


class _Plan:
    """A scenario's section layout and elimination in one pass; its row basis and costs on demand.

    The buffer holds each context's table in turn, in lexicographic section
    order, which is the row order of the full incidence matrix; the
    elimination's messages follow.  A table over measurement positions,
    ascending as in a canonical context, is mixed-radix with the last
    position varying fastest: the entry of outcome indices ``d`` sits at
    the table's base plus ``sum_u d_u stride_u``.  Every gather, decode
    stride and lookup position is read off these bases and strides as the
    pass lays the tables out.

    The elimination maximizes the measurements out, last declared first.
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

    ``steps`` lists each elimination as ``(v, first, rest, k, start,
    end)``: the gathers ``first`` and ``rest`` read the bucket's parts from
    the buffer, ``k`` is the outcome count of ``v`` and the message goes to
    ``buf[start:end]``.  ``constants`` holds the slots of the one-entry
    messages and ``room`` zeros for the messages.  ``decode[v]`` lists the
    positions before ``v`` in its union and their strides in the union's
    table.  ``lookup[c]`` pairs the getter of context ``c``'s outcome
    indices from an assignment's with the context's base and the offsets
    of `_offsets`; ``sections[c]`` is its range of rows and ``scopes[c]``
    its measurement positions.  ``basis`` holds the rows of
    `IncidenceMatrix.basis`.  ``costs[i]`` is the phase-1 cost of
    row ``(c, s)``'s artificial, ``|c| + 1 - |N(s)|``, with N(s) the
    measurements of ``c`` whose outcome in ``s`` is not their last
    outcome, as in the basis: it runs from 1, on a section with no last
    outcome, to ``|c| + 1`` on the all-last one.  The basis and costs are
    laid out from the scopes on first use, which only the section LP
    makes.  Every matrix of the scenario, and both semirings, share one
    plan.
    """

    def __init__(self, scenario: MeasurementScenario):
        pos = {m: i for i, m in enumerate(scenario.measurements)}
        self.outcomes = [scenario.outcomes[m] for m in scenario.measurements]
        self.size = size = [len(outs) for outs in self.outcomes]
        self.index = [{o: d for d, o in enumerate(outs)} for outs in self.outcomes]
        self.ones = (1,) * len(scenario.contexts)
        # Each table's scope, base and strides: the contexts', then the messages'.
        scopes, bases, strides = [], [], []
        bucket: list[list[int]] = [[] for _ in size]
        shapes: dict = {}
        self.lookup, self.sections = [], []
        end = 0
        for f, ctx in enumerate(scenario.contexts):
            scope = tuple(map(pos.__getitem__, ctx))
            sizes = tuple(map(size.__getitem__, scope))
            if sizes not in shapes:
                shapes[sizes] = _offsets(sizes)
            stride, step = {}, 1
            for u in reversed(scope):
                stride[u] = step
                step *= size[u]
            self.lookup.append((itemgetter(*scope), end, shapes[sizes]))
            self.sections.append(range(end, end + step))
            scopes.append(scope)
            bases.append(end)
            strides.append(stride)
            bucket[scope[-1]].append(f)
            end += step
        self.scopes = tuple(scopes)
        self.steps, self.constants = [], []
        self.decode: list = [None] * len(size)
        sections = end
        for v in reversed(range(len(size))):
            union = sorted({u for f in bucket[v] for u in scopes[f]})
            prev, k = tuple(union[:-1]), size[v]
            union_strides, step = [], k
            for u in reversed(prev):
                union_strides.append(step)
                step *= size[u]
            union_strides.reverse()
            gathers = []
            for f in bucket[v]:
                base = bases[f]
                if len(scopes[f]) == len(union):
                    gathers.append(itemgetter(*range(base, base + step)))
                    continue
                # Every part holds v, at stride 1: it varies innermost.
                idx, stride = [base], strides[f]
                for u in prev:
                    s, n = stride.get(u, 0), size[u]
                    idx = [r + o for r in idx for o in (range(0, s * n, s) if s else (0,) * n)]
                gathers.append(itemgetter(*[r + d for r in idx for d in range(k)]))
            start, end = end, end + step // k
            self.steps.append((v, gathers[0], gathers[1:], k, start, end))
            self.decode[v] = (prev, tuple(union_strides))
            if prev:
                bucket[prev[-1]].append(len(scopes))
            else:
                self.constants.append(start)
            scopes.append(prev)
            bases.append(start)
            strides.append({u: s // k for u, s in zip(prev, union_strides)})
        self.room = [0] * (end - sections)

    @cached_property
    def _collins_gisin(self) -> tuple:
        """(basis rows, phase-1 costs), laid out when the section LP first asks.

        A set of measurements is a bit mask over the declared positions;
        ``covered`` holds the subsets of the contexts laid out so far.
        """
        basis, costs, shapes, covered = [], [], {}, set()
        for scope, rows in zip(self.scopes, self.sections):
            sizes = tuple(map(self.size.__getitem__, scope))
            if sizes not in shapes:
                shapes[sizes] = _masks(sizes)
            masks, cost = shapes[sizes]
            subsets = [0]
            for u in scope:
                subsets += [t | 1 << u for t in subsets]
            basis += [r for r, n in zip(rows, masks) if subsets[n] not in covered]
            covered.update(subsets)
            costs += cost
        return basis, tuple(costs)

    @property
    def basis(self) -> list:
        return self._collins_gisin[0]

    @property
    def costs(self) -> tuple:
        return self._collins_gisin[1]

    def maximize(self, tables: list, combine=add) -> tuple:
        """(largest total, outcome indices of the maximizer the decoding picks).

        ``tables`` holds every section's entry in row order.  ``combine``,
        ``add`` or ``min``, joins the entries an assignment reads, one per
        context: ``add`` gives the largest sum (max-sum), ``min`` the
        largest smallest entry (max-min).  Both distribute over ``max``, so
        one elimination serves either (the generalized distributive law,
        Aji and McEliece 2000).
        """
        buf = [*tables, *self.room]
        kept = [None] * len(self.size)
        for v, first, rest, k, start, end in self.steps:
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
        return reduce(combine, map(buf.__getitem__, self.constants)), digits


class IncidenceMatrix:
    """The section-vs-assignment 0/1 matrix as an implicit column source.

    Row ``i`` is the local section ``rows[i]``.  The column of a global
    assignment ``s``, a tuple of outcomes in declared measurement order,
    holds a 1 at the row of ``s``'s section in each context; ``shape``
    counts every assignment.  ``plan`` is the scenario's `_Plan`, shared
    by every matrix of one scenario.  ``flat[p]`` says what becomes of the
    section at row ``p`` of the full matrix: its row here; None when the
    section is forbidden, so that an assignment through it has no column;
    or `OUTSIDE` when the section has no row in this system, so that it is
    priced as 0 and has no entry in a column.  ``costs[i]`` weighs row
    ``i``'s phase-1 artificial (`_Plan`); the full matrix reads the plan's.

    `basis` picks the rows of the Collins-Gisin row basis, on which
    `solve_global_section` solves; `restrict` builds the matrix on chosen
    rows.
    """

    def __init__(self, scenario: MeasurementScenario, rows: tuple, plan: _Plan,
                 flat: Sequence, costs: tuple | None = None):
        self.scenario, self.rows, self.plan, self.flat, self._costs = (
            scenario, rows, plan, flat, costs)
        self.m = len(rows)
        restricted = not isinstance(flat, range)
        self._forbids = restricted and None in flat
        self._outside = restricted and OUTSIDE in flat
        # The getter of the plan's section entries from [*y, low, 0]: y at
        # a section's row, low at a forbidden section, 0 at one outside the
        # system.  None on the full matrix, whose entries are y itself.
        slot = {None: self.m, OUTSIDE: self.m + 1}
        self._gather = itemgetter(*map(slot.get, flat, flat)) if restricted else None
        self._columns: dict = {}

    @property
    def costs(self) -> tuple:
        return self.plan.costs if self._costs is None else self._costs

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
        some context.  Read off the plan, as rows of the full matrix.
        """
        return self.plan.basis

    def restrict(self, keep: list[int], outside=()) -> IncidenceMatrix:
        """The same scenario's matrix on the rows ``keep`` of the full matrix.

        The rows ``outside`` leave the system, the others are forbidden.
        """
        flat: list = [None] * len(self.flat)
        for i in outside:
            flat[i] = OUTSIDE
        for k, i in enumerate(keep):
            flat[i] = k
        return IncidenceMatrix(self.scenario, tuple(map(self.rows.__getitem__, keep)),
                               self.plan, flat, tuple(map(self.plan.costs.__getitem__, keep)))

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
            flat = self.flat
            idx = tuple(flat[base + at[get(digits)]] for get, base, at in self.plan.lookup)
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
        left = sum(residual[i] for i in self.plan.sections[0])
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
    plan = _Plan(scenario)
    rows = tuple([(ctx, sec) for ctx in scenario.contexts
                  for sec in scenario.outcome_tuples(ctx)])
    return IncidenceMatrix(scenario, rows, plan, range(len(rows)))


def odd_cycle_dual(matrix: IncidenceMatrix, ints: Sequence[int], scale: int) -> tuple | None:
    """A Farkas vector of a violated odd-cycle inequality, or None.

    ``ints`` is ``scale v`` as integers, one entry per row of ``matrix``,
    which lists every section.  The graph has a node per two-outcome
    measurement and an edge per pair of them that shares a context, read
    in the first such context: an "equal" arc weighs P(the pair agrees),
    a "different" arc P(it disagrees).  On any assignment, the arcs of a
    closed walk with an odd number of "equal" arcs cannot all fail their
    own event (the pair disagrees on an "equal" arc, agrees on a
    "different" one): then the walk would change value an odd number of
    times and not close.  So with ``defects(s)`` counting the arcs whose
    event ``s`` meets, ``defects(s) >= 1`` for every assignment, and a walk
    whose events weigh less than 1 in all is violated by ``v`` (Barahona
    and Mahjoub, Math. Programming 36, 157, 1986; on a binary n-cycle
    these inequalities and the tables' positivity are the whole
    noncontextual polytope, Araujo et al., PRA 88, 022118, 2013).

    Dijkstra's search over (measurement, parity of "equal" arcs so far)
    finds the lightest such walk from each measurement in declared order,
    keeps no state whose weight reaches 1, and drops the measurement
    afterwards: a lighter walk through it would have been found from it.
    Measurements with at most one neighbour left are dropped as well, so a
    cycle is searched from its first measurement only.
    The first walk lighter than 1 gives ``y``: +1 on every row of its first
    arc's context and -1 on each arc's event rows, so that
    ``y^T a_s = 1 - defects(s) <= 0`` for every assignment and
    ``y^T v = 1 - weight > 0``.
    """
    plan = matrix.plan
    n = len(plan.size)
    # adj[u] holds u's arcs lighter than 1 as (weight, w, kind, edge), kind 1
    # for "equal"; nbrs[u] lists u's neighbours, one per edge.
    adj: list = [[] for _ in range(n)]
    nbrs: list = [[] for _ in range(n)]
    edges = []
    for f, scope in enumerate(plan.scopes):
        _, base, offsets = plan.lookup[f]
        for i, j in itertools.combinations(range(len(scope)), 2):
            u, w = scope[i], scope[j]
            if plan.size[u] != 2 or plan.size[w] != 2 or w in nbrs[u]:
                continue
            # Rows where the pair disagrees, then where it agrees.
            rows: tuple = ([], [])
            for key, at in offsets.items():
                rows[key[i] == key[j]].append(base + at)
            for kind, r in enumerate(rows):
                t = sum(map(ints.__getitem__, r))
                if t < scale:
                    adj[u].append((t, w, kind, len(edges)))
                    adj[w].append((t, u, kind, len(edges)))
            nbrs[u].append(w)
            nbrs[w].append(u)
            edges.append((f, rows))
    alive, degree = [True] * n, list(map(len, nbrs))

    def drop(u):
        # A measurement left with one neighbour is dropped too: a walk lighter
        # than 1 that visits it comes back over the same edge by an arc of
        # the kind it went by (the two kinds weigh 1 together), so cutting
        # that there-and-back leaves a walk of the same parity, no heavier.
        stack = [u]
        while stack:
            x = stack.pop()
            if alive[x]:
                alive[x] = False
                for z in nbrs[x]:
                    degree[z] -= 1
                    if alive[z] and degree[z] <= 1:
                        stack.append(z)

    for u in range(n):
        if degree[u] <= 1:
            drop(u)
    for source in range(n):
        if not alive[source]:
            continue
        # State 2u + p: at measurement u after an even (p = 0) or odd number
        # of "equal" arcs.
        dist, back = [scale] * (2 * n), {}
        dist[2 * source] = 0
        heap, target = [(0, 2 * source)], 2 * source + 1
        while heap:
            d, state = heapq.heappop(heap)
            if state == target:
                walk = []
                while state in back:
                    state, e, kind = back[state]
                    walk.append((e, kind))
                walk.reverse()
                y = [0] * len(ints)
                for r in plan.sections[edges[walk[0][0]][0]]:
                    y[r] = 1
                for e, kind in walk:
                    for r in edges[e][1][kind]:
                        y[r] -= 1
                return tuple(map(Fraction, y))
            if d > dist[state]:
                continue
            p = state & 1
            for t, w, kind, e in adj[state >> 1]:
                nd, nxt = d + t, 2 * w + (p ^ kind)
                if nd < dist[nxt] and alive[w]:
                    dist[nxt] = nd
                    back[nxt] = (state, e, kind)
                    heapq.heappush(heap, (nd, nxt))
        drop(source)
    return None


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
        # Each context's label, and each distinct section's, is built once.
        head = {ctx: ",".join(map(str, ctx)) + "|" for ctx in self.matrix.scenario.contexts}
        tail = {sec: ",".join(map(str, sec)) for sec in {sec for _, sec in self.matrix.rows}}
        cert["rows"] = [head[ctx] + tail[sec] for ctx, sec in self.matrix.rows]
        cert["rhs"] = [format_fraction(self.model.tables[ctx][sec])
                       for ctx, sec in self.matrix.rows]
        return cert


def section_lp(matrix: IncidenceMatrix, v: list, ints: list, start=()) -> Feasibility:
    """The section LP of ``M x = v`` on its basis rows, with a certificate over every row.

    ``matrix`` lists every section (`build_incidence_matrix`), and ``ints``
    is ``v`` times a positive scale, as integers, on which the zero tests
    run.  The LP runs on the basis rows with a nonzero right-hand side, the
    other nonzero rows outside the system and the zero rows forbidden; the
    assignments ``start`` are offered as its first columns.  A Farkas
    vector is lifted to every row.
    """
    basis = matrix.basis()
    live = [i for i in basis if ints[i]]
    kept = set(basis)
    outside = [i for i, vi in enumerate(ints) if vi and i not in kept]
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
    if not all(ints):
        top = matrix.maximum(y)[0]
        if top > 0:
            y = [yi if vi else -top for yi, vi in zip(y, ints)]
    return Feasibility(False, farkas=tuple(y))


def solve_global_section(model: EmpiricalModel) -> SectionFeasibility:
    """Exact feasibility of the global-section system for a (rationalized) model.

    The model is first replaced by a nearby exactly-consistent rational model
    (`rationalize_model`), so the verdict is a statement about exact data;
    `model` of the result is that exact model.  This is the one place that
    rationalizes: callers hand over the parsed model as it is.  A violated
    odd-cycle inequality (`odd_cycle_dual`) decides ``no`` first; without
    one the greedy decomposition (`IncidenceMatrix.greedy`) runs, and when
    it leaves a residual, `section_lp` decides, started from the greedy's
    assignments.
    The result's certificate covers every row and is re-checked on the full
    matrix whichever stage found it.  Raises `DisturbingModel` when the
    input marginals disagree beyond 1e-9, and `TooLargeError` when the
    scenario has more than `MAX_ASSIGNMENTS` global assignments.
    """
    rational = rationalize_model(model)
    matrix = build_incidence_matrix(model.scenario)
    v = [rational.tables[ctx][sec] for ctx, sec in matrix.rows]
    tables, scale = rational.integer_tables
    ints = [tables[ctx][sec] for ctx, sec in matrix.rows]
    farkas = odd_cycle_dual(matrix, ints, scale)
    if farkas is not None:
        result = Feasibility(False, farkas=farkas)
    else:
        pairs, whole = matrix.greedy(list(ints), scale)  # the greedy spends its residual
        if whole:
            result = Feasibility(True, x=matrix.primal(pairs))
        else:
            result = section_lp(matrix, v, ints, [s for s, _ in pairs])
    require_certificate(matrix, v, result, "global-section")
    return SectionFeasibility(feasible=result.feasible, primal=result.x,
                              dual=result.farkas, matrix=matrix, model=rational)
