"""Bell-local polytope membership, two-party inequalities, and graph-based noncontextuality bounds.

Membership in the local polytope is read off the global-section LP of the
two-party model: its deterministic vertices are the global assignments, so
the section weights are the vertex weights and the section's Farkas dual is
a separating inequality whose bound, the exact maximum over the vertices,
the model exceeds strictly.  Graph machinery covers weighted
independence numbers, single-system exclusivity inequalities, and their
two-party lift evaluated on the uniform maximally entangled vector.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from .exactlp import CertificateError, TooLargeError, clear_denominators, format_fraction
from .quantum import (
    eigen_projector,
    max_entangled,
    sup_norm,
    tensor,
)
from .record import Record
from .scenario import EmpiricalModel, make_model, make_scenario
from .sheaf import SectionFeasibility, solve_global_section

MAX_GRAPH_VERTICES = 40
MAX_LIFT_VERTICES = 10


# ---------------------------------------------------------------------------
# Two-party models
# ---------------------------------------------------------------------------

def make_behaviour(nX: int, nY: int, nA: int, nB: int, p: dict) -> EmpiricalModel:
    """Two-party model of the table p(a, b | x, y); missing entries are zero.

    Its measurements are A0..A{nX-1} with outcomes range(nA) and
    B0..B{nY-1} with outcomes range(nB); its contexts are the pairs
    (A_x, B_y), x-major.  `make_model` checks the entries.
    """
    for key in p:
        a, b, x, y = key
        if not (0 <= a < nA and 0 <= b < nB and 0 <= x < nX and 0 <= y < nY):
            raise ValueError(f"entry {key} outside declared ranges")
    meas = [(f"A{x}", range(nA)) for x in range(nX)] + \
           [(f"B{y}", range(nB)) for y in range(nY)]
    tables = {(f"A{x}", f"B{y}"): {} for x in range(nX) for y in range(nY)}
    for (a, b, x, y), v in p.items():
        tables[f"A{x}", f"B{y}"][a, b] = v
    return make_model(make_scenario(meas, tables), tables)


def behaviour_from_quantum(state, alice, bob) -> EmpiricalModel:
    """Born-rule two-party model for per-setting projective measurements on a bipartite state.

    `alice` and `bob` list one `ProjectiveContext` per setting; outcome indices
    follow each measurement's projector order.  All settings on a side must
    share an outcome count.
    """
    rho = np.asarray(state, dtype=complex)
    if rho.ndim == 2 and rho.shape[1] == 1:
        rho = rho @ rho.conj().T
    nA = len(alice[0].projectors)
    nB = len(bob[0].projectors)
    if any(len(m.projectors) != nA for m in alice) or \
            any(len(m.projectors) != nB for m in bob):
        raise ValueError("all settings on one side must share an outcome count")
    p = {}
    for x, ma in enumerate(alice):
        for y, mb in enumerate(bob):
            for a, pa in enumerate(ma.projectors):
                for b, pb in enumerate(mb.projectors):
                    op = tensor(pa, pb)
                    if op.shape != rho.shape:
                        raise ValueError(
                            f"state dim {rho.shape[0]} vs projectors {op.shape[0]}")
                    p[(a, b, x, y)] = max(0.0, float(np.trace(rho @ op).real))
    return make_behaviour(len(alice), len(bob), nA, nB, p)


def bipartite_structure(model: EmpiricalModel) -> tuple[tuple, tuple] | None:
    """Detect a complete two-party layout in a scenario, or return `None`.

    Every context must pair a measurement of party A with one of party B,
    every such pair must be a context, and each side's measurements must
    share an outcome count.  The contexts then form a complete bipartite
    graph, so party B is the neighbours of the first declared measurement
    and party A, reported first, the rest.
    """
    sc = model.scenario
    if not sc.contexts or any(len(c) != 2 for c in sc.contexts):
        return None
    first = sc.measurements[0]
    side_b = tuple(m for m in sc.measurements if (first, m) in sc.contexts)
    side_a = tuple(m for m in sc.measurements if m not in side_b)
    if not side_b or len(sc.contexts) != len(side_a) * len(side_b) or \
            any((a in side_b) == (b in side_b) for a, b in sc.contexts):
        return None
    if any(len({len(sc.outcomes[m]) for m in side}) != 1 for side in (side_a, side_b)):
        return None
    return side_a, side_b


def _coordinates(sc, sides) -> dict:
    """Each (context, section) of a complete two-party scenario as (a, b, x, y).

    x and y are the positions of party A's and party B's measurements in
    `sides`, a and b the positions of their outcomes.
    """
    side_a, side_b = sides
    setting = {m: x for x, m in enumerate(side_a)} | {m: y for y, m in enumerate(side_b)}
    coords = {}
    for ctx in sc.contexts:
        for sec in sc.outcome_tuples(ctx):
            (ma, oa), (mb, ob) = zip(ctx, sec) if ctx[0] in side_a else zip(ctx[::-1], sec[::-1])
            coords[ctx, sec] = (sc.outcomes[ma].index(oa), sc.outcomes[mb].index(ob),
                                setting[ma], setting[mb])
    return coords


# ---------------------------------------------------------------------------
# Membership: a view over the global-section LP
# ---------------------------------------------------------------------------

class LinearInequality(Record):
    """Two-party functional sum of coefficients[a,b,x,y] * p(a,b|x,y) bounded above."""

    coefficients: dict
    bound: Fraction

    def to_json(self) -> dict:
        return {"kind": "bell",
                "coefficients": {f"{a},{b}|{x},{y}": format_fraction(v)
                                 for (a, b, x, y), v in self.coefficients.items()},
                "bound": format_fraction(self.bound)}


class MembershipResult(Record):
    inside: bool
    weights: tuple | None
    separating: LinearInequality | None
    value: Fraction | None
    witness_vertex: int | None
    model: EmpiricalModel

    @property
    def verdict(self) -> str:
        return "inside" if self.inside else "outside"

    def certificate(self) -> dict:
        cert: dict = {"kind": "local-polytope-membership", "verdict": self.verdict}
        if self.weights is not None:
            cert["weights"] = [[k, format_fraction(w)] for k, w in self.weights]
        if self.separating is not None:
            cert["separating"] = self.separating.to_json()
            cert["value_on_behaviour"] = format_fraction(self.value)
            cert["witness_vertex"] = self.witness_vertex
        return cert


def membership_from_section(section: SectionFeasibility, sides) -> MembershipResult:
    """Local-polytope membership read off a solved global-section LP.

    `sides` lists party A's and party B's measurements of a complete
    two-party scenario (`bipartite_structure`).  There the deterministic
    vertices (f, g) are exactly the global assignments, so the section
    verdict is the membership verdict, the primal's support pairs are the
    (vertex, weight) pairs, and the Farkas dual y holds the separating
    coefficients, one per (a, b | x, y) coordinate.  The bound is the
    largest sum of y over the contexts of one assignment, read off the
    section's elimination oracle with its lexicographically smallest
    maximizer as the witness vertex.  It is at most 0 by the dual's
    re-check, and the section's exact model scores y^T v > 0; the strict
    gap is checked again here by a raise; y^T v is summed in integers.
    """
    model, matrix = section.model, section.matrix
    sc = model.scenario
    side_a, side_b = sides
    # Vertex k is the k-th (f, g) in lexicographic order: an assignment's
    # outcome indices on party A's then party B's measurements, mixed radix.
    at = {m: i for i, m in enumerate(sc.measurements)}

    def vertex(s) -> int:
        k = 0
        for m in side_a + side_b:
            outcomes = sc.outcomes[m]
            k = k * len(outcomes) + outcomes.index(s[at[m]])
        return k

    if section.feasible:
        return MembershipResult(inside=True,
                                weights=tuple(sorted((vertex(s), w) for s, w in section.primal)),
                                separating=None, value=None, witness_vertex=None, model=model)
    y = section.dual
    coords = _coordinates(sc, sides)
    coeffs = {coords[row]: yi for row, yi in zip(matrix.rows, y)}
    ys, y_scale = clear_denominators(y)
    (top, best), (tables, scale) = matrix.maximum(ys), model.integer_tables
    bound = top / y_scale
    value = Fraction(sum(k * tables[c][s] for k, (c, s) in zip(ys, matrix.rows)), y_scale * scale)
    if not value > bound:
        raise CertificateError("separating inequality fails to separate")
    return MembershipResult(inside=False, weights=None,
                            separating=LinearInequality(coeffs, bound),
                            value=value, witness_vertex=vertex(best), model=model)


def membership_lp(model: EmpiricalModel) -> MembershipResult:
    """Exact convex-mixture test of a two-party model against the deterministic vertices.

    The model is solved by the global-section LP, which first replaces a
    float table by a nearby exactly no-signaling rational one, and read as
    in `membership_from_section`, the route `classify` takes.  Outside
    verdicts carry a separating inequality whose bound is the exact vertex
    maximum, so the model's value exceeds the bound strictly and every
    vertex satisfies it, both re-checkable by direct arithmetic.  Raises
    `ValueError` when the model has no complete two-party layout.
    """
    sides = bipartite_structure(model)
    if sides is None:
        raise ValueError("the model has no complete two-party layout")
    return membership_from_section(solve_global_section(model), sides)


# ---------------------------------------------------------------------------
# Two-setting correlator form
# ---------------------------------------------------------------------------

CHSH_OPTIMAL_ANGLES = (0.0, np.pi / 2, np.pi / 4, 3 * np.pi / 4)


def chsh_value(model: EmpiricalModel):
    """|E(0,0) - E(0,1)| + |E(1,0) + E(1,1)| for a 2-setting dichotomic two-party model.

    E(x, y) is the correlator of settings x and y with outcome index 0
    valued +1 and index 1 valued -1, read off the model's tables.
    """
    sc = model.scenario
    sides = bipartite_structure(model)
    if sides is None or any(len(side) != 2 or len(sc.outcomes[side[0]]) != 2
                            for side in sides):
        raise ValueError("the two-setting functional needs two dichotomic "
                         "settings per party")
    p = {key: model.tables[ctx][sec] for (ctx, sec), key in _coordinates(sc, sides).items()}
    e = {(x, y): sum((1 - 2 * a) * (1 - 2 * b) * p[a, b, x, y]
                     for a in range(2) for b in range(2))
         for x in range(2) for y in range(2)}
    return abs(e[(0, 0)] - e[(0, 1)]) + abs(e[(1, 0)] + e[(1, 1)])


CHSH_LOCAL_BOUND = 2


def measurement_angle_context(theta: float, label: str):
    """Dichotomic spin measurement in the x-z plane at the given angle.

    Outcome index 0 is the +1 eigenvector, index 1 the -1 eigenvector, so
    the model's correlators reproduce the familiar -cos(angle difference)
    law on the two-qubit singlet.
    """
    from .quantum import PAULI_X, PAULI_Z, projective_context

    obs = np.cos(theta) * PAULI_Z + np.sin(theta) * PAULI_X
    plus = eigen_projector(obs, +1)
    minus = eigen_projector(obs, -1)
    return projective_context(label, [plus, minus], (0, 1))


def singlet_behaviour(angles=CHSH_OPTIMAL_ANGLES, alpha: float = 1.0) -> EmpiricalModel:
    """Two-party model of the singlet (or its white-noise mixture) at four planar angles.

    `angles` lists Alice's two settings then Bob's two settings.
    """
    from .quantum import werner_state

    a0, a1, b0, b1 = angles
    alice = [measurement_angle_context(a0, "A0"), measurement_angle_context(a1, "A1")]
    bob = [measurement_angle_context(b0, "B0"), measurement_angle_context(b1, "B1")]
    return behaviour_from_quantum(werner_state(alpha), alice, bob)


# ---------------------------------------------------------------------------
# Pairwise-correlation noncontextuality bound
# ---------------------------------------------------------------------------

class PairwiseCorrelationInequality(Record):
    """Functional sum of singles minus sum over compatible pairs, bounded by n(d-2)-2.

    `d` counts measurement contexts (not the Hilbert dimension; the two
    readings are easy to conflate).  The pair sum runs over unordered pairs of
    observables that share at least one context, each with coefficient 1
    (equivalently, half the sum over ordered pairs).
    """

    n: int
    d: int
    pairs: tuple
    bound: int

    def evaluate_assignment(self, values) -> int:
        """Value on one deterministic +-1 assignment (index-aligned with observables)."""
        if len(values) != self.n:
            raise ValueError(f"expected {self.n} values, got {len(values)}")
        if any(v not in (1, -1) for v in values):
            raise ValueError("assignments must be +-1 valued")
        singles = sum(values)
        corr = sum(values[i] * values[j] for i, j in self.pairs)
        return singles - corr

    def evaluate(self, singles, pair_correlators) -> float:
        """Value from expectation data: singles[i] and pair_correlators[(i, j)]."""
        total = sum(singles[i] for i in range(self.n))
        for i, j in self.pairs:
            key = (i, j) if (i, j) in pair_correlators else (j, i)
            total -= pair_correlators[key]
        return total


def badziag_inequality(n: int, d: int | None = None,
                       contexts=None) -> PairwiseCorrelationInequality:
    """Pairwise-correlation inequality for n observables over d contexts.

    With `contexts` given (index sets over range(n)), `d` defaults to the
    context count and compatible pairs are those co-appearing in at least one
    context; without it, all pairs are taken compatible and `d` is required.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if contexts is not None:
        contexts = [tuple(c) for c in contexts]
        for c in contexts:
            if any(not 0 <= i < n for i in c):
                raise ValueError(f"context {c} references an observable outside range({n})")
        if d is None:
            d = len(contexts)
        elif d != len(contexts):
            raise ValueError(f"d={d} disagrees with {len(contexts)} declared contexts")
        pairs = sorted({tuple(sorted(p))
                        for c in contexts for p in itertools.combinations(set(c), 2)})
    else:
        if d is None:
            raise ValueError("either d or contexts must be given")
        pairs = list(itertools.combinations(range(n), 2))
    if d < 3:
        raise ValueError(f"the bound n(d-2)-2 needs d >= 3 contexts, got {d}")
    return PairwiseCorrelationInequality(n=n, d=d, pairs=tuple(pairs),
                                         bound=n * (d - 2) - 2)


# ---------------------------------------------------------------------------
# Orthogonality graphs
# ---------------------------------------------------------------------------

class OrthogonalityGraph(Record):
    labels: tuple
    weights: dict
    edges: tuple
    projectors: dict | None = None


def make_orthogonality_graph(weights: dict, edges, projectors: dict | None = None
                             ) -> OrthogonalityGraph:
    labels = tuple(weights)
    for lab, w in weights.items():
        if w < 0:
            raise ValueError(f"vertex {lab!r} has negative weight {w}")
    canon = []
    for e in edges:
        a, b = tuple(e)
        if a == b:
            raise ValueError(f"self-loop at {a!r}")
        if a not in weights or b not in weights:
            raise ValueError(f"edge {(a, b)} references an unknown vertex")
        canon.append(tuple(sorted((a, b), key=str)))
    if projectors is not None:
        missing = [l for l in labels if l not in projectors]
        if missing:
            raise ValueError(f"projectors missing for vertices {missing}")
    return OrthogonalityGraph(labels=labels, weights=dict(weights),
                              edges=tuple(sorted(set(canon))), projectors=projectors)


def graph_from_projectors(projectors: dict, weights: dict | None = None,
                          tol: float = 1e-10) -> OrthogonalityGraph:
    """Orthogonality graph of a projector family: edges where products vanish."""
    labels = list(projectors)
    if weights is None:
        weights = {l: Fraction(1) for l in labels}
    edges = []
    for a, b in itertools.combinations(labels, 2):
        if sup_norm(projectors[a] @ projectors[b]) <= tol:
            edges.append((a, b))
    return make_orthogonality_graph(weights, edges, projectors=dict(projectors))


def kcbs_graph() -> OrthogonalityGraph:
    """Pentagon orthogonality graph with its qutrit rank-1 projectors attached."""
    from .quantum import kcbs_vectors

    vs = kcbs_vectors()
    projs = {f"P{j}": np.outer(v, v.conj()) for j, v in enumerate(vs)}
    return graph_from_projectors(projs)


def weighted_independence_number(g: OrthogonalityGraph):
    """Exact maximum-weight independent set by branch and bound.

    Returns (alpha, witness_labels); the witness is independent and attains
    alpha.  Refuses graphs with more than 40 vertices.
    """
    n = len(g.labels)
    if n > MAX_GRAPH_VERTICES:
        raise TooLargeError(f"{n} vertices exceed the supported {MAX_GRAPH_VERTICES}")
    idx = {l: i for i, l in enumerate(g.labels)}
    adj = [0] * n
    for a, b in g.edges:
        adj[idx[a]] |= 1 << idx[b]
        adj[idx[b]] |= 1 << idx[a]
    weights = [Fraction(g.weights[l]) if not isinstance(g.weights[l], Fraction)
               else g.weights[l] for l in g.labels]
    order = sorted(range(n), key=lambda i: (-weights[i], i))

    best_value = Fraction(0)
    best_set = 0

    def rest_weight(pos: int, available: int) -> Fraction:
        total = Fraction(0)
        for k in range(pos, n):
            if available >> order[k] & 1:
                total += weights[order[k]]
        return total

    def recurse(pos: int, available: int, current: Fraction, chosen: int):
        nonlocal best_value, best_set
        if current > best_value:
            best_value = current
            best_set = chosen
        if pos == n:
            return
        if current + rest_weight(pos, available) <= best_value:
            return
        i = order[pos]
        if available >> i & 1:
            recurse(pos + 1, available & ~adj[i] & ~(1 << i),
                    current + weights[i], chosen | 1 << i)
        recurse(pos + 1, available & ~(1 << i), current, chosen)

    recurse(0, (1 << n) - 1, Fraction(0), 0)
    witness = tuple(l for i, l in enumerate(g.labels) if best_set >> i & 1)
    return best_value, witness


class ExclusivityReport(Record):
    lhs: float
    bound: Fraction
    violated: bool
    independence_witness: tuple


def csw_inequality(g: OrthogonalityGraph, singles: dict | None = None,
                   joints: dict | None = None, state=None) -> ExclusivityReport:
    """Weighted-sum exclusivity inequality: singles minus penalised edge joints vs alpha.

    Either pass `singles` (probability of outcome 1 per vertex) together with
    `joints` (probability both endpoints give 1, per edge), or pass a quantum
    `state` to evaluate both from the attached projectors.
    """
    if state is not None:
        if g.projectors is None:
            raise ValueError("graph carries no projectors for quantum evaluation")
        rho = np.asarray(state, dtype=complex)
        if rho.ndim == 2 and rho.shape[1] == 1:
            rho = rho @ rho.conj().T
        singles = {l: max(0.0, float(np.trace(rho @ g.projectors[l]).real))
                   for l in g.labels}
        joints = {}
        for a, b in g.edges:
            val = float(np.trace(rho @ g.projectors[a] @ g.projectors[b]).real)
            joints[(a, b)] = max(0.0, val)
    if singles is None:
        raise ValueError("either probabilities or a state must be supplied")
    missing = [l for l in g.labels if l not in singles]
    if missing:
        raise ValueError(f"single-outcome probabilities missing for {missing}")
    joints = joints or {}
    lhs = sum(g.weights[l] * singles[l] for l in g.labels)
    for a, b in g.edges:
        joint = joints.get((a, b), joints.get((b, a)))
        if joint is None:
            raise ValueError(f"joint probability missing for edge {(a, b)}")
        lhs -= max(g.weights[a], g.weights[b]) * joint
    alpha, witness = weighted_independence_number(g)
    tol = 0 if isinstance(lhs, Fraction) else 1e-12
    return ExclusivityReport(lhs=lhs, bound=alpha, violated=bool(lhs > float(alpha) + tol),
                             independence_witness=witness)


# ---------------------------------------------------------------------------
# Two-party lift of an exclusivity inequality
# ---------------------------------------------------------------------------

class BipartiteLift(Record):
    """Two-party functional lifted from an orthogonality graph.

    Value = sum_i w_i P(1,1 | i, i) - sum_{(i,j) in E} max(w_i, w_j)/2
    [P(1,1 | i, j) + P(1,1 | j, i)], bounded by alpha(G, w) over deterministic
    strategies.  The second party's projectors are the entrywise complex
    conjugates of the first party's, so the uniform maximally entangled
    vector reproduces single-system statistics.
    """

    graph: OrthogonalityGraph
    dim: int
    bound: Fraction
    quantum_value: float

    def ld_maximum(self):
        """Exact maximum over all two-sided deterministic strategies.

        For fixed 0/1 answers a of the first party the value is linear in the
        second party's bits, and bit b_l has coefficient
        w_l a_l - sum over neighbours k of max(w_l, w_k)/2 a_k.  Setting b_l
        exactly when that is positive is optimal, so 2^n answers of the first
        party are scanned instead of 4^n strategy pairs.
        """
        labels = self.graph.labels
        n = len(labels)
        if n > MAX_LIFT_VERTICES:
            raise TooLargeError(f"{n} vertices exceed the supported "
                                f"{MAX_LIFT_VERTICES} (2^{n} first-party answers)")
        idx = {l: i for i, l in enumerate(labels)}
        w = [self.graph.weights[l] for l in labels]
        nbrs = [[] for _ in labels]
        for a, b in self.graph.edges:
            half = max(w[idx[a]], w[idx[b]]) * Fraction(1, 2)
            nbrs[idx[a]].append((idx[b], half))
            nbrs[idx[b]].append((idx[a], half))
        zero = Fraction(0)
        return max(sum((max(zero, w[l] * bits[l] - sum(h for k, h in nbrs[l] if bits[k]))
                        for l in range(n)), zero)
                   for bits in itertools.product((0, 1), repeat=n))


def contextuality_to_bell(g: OrthogonalityGraph, d: int) -> BipartiteLift:
    """Lift a projector-decorated graph to a two-party inequality and evaluate it.

    Evaluation is literal: each joint probability is the Born value of
    (projector tensor conjugated projector) on the uniform maximally
    entangled vector in dimension d.
    """
    if g.projectors is None:
        raise ValueError("the lift needs projectors attached to the graph")
    for l in g.labels:
        if g.projectors[l].shape != (d, d):
            raise ValueError(
                f"projector {l!r} has shape {g.projectors[l].shape}, expected ({d}, {d})")
    psi = max_entangled(d)
    rho = psi @ psi.conj().T

    def joint(i, j) -> float:
        op = tensor(g.projectors[i], g.projectors[j].conj())
        return max(0.0, float(np.trace(rho @ op).real))

    value = sum(float(g.weights[l]) * joint(l, l) for l in g.labels)
    for a, b in g.edges:
        w = float(max(g.weights[a], g.weights[b]))
        value -= w / 2 * (joint(a, b) + joint(b, a))
    alpha, _ = weighted_independence_number(g)
    return BipartiteLift(graph=g, dim=d, bound=alpha, quantum_value=value)
