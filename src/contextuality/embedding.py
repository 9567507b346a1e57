"""Generalized probabilistic theories and classicality embeddings.

Verification strategy: the sharp constructor reads its certificate off
the solved global sections of the exact induced models: 0/1 atom
responses and each state's exact weights on them.  A quantum document's
induced model is built from the exact atoms that `classify_quantum` made
once for both verdicts (`scenario.QuantumPass.exact_atoms`); any other
GPT's atoms are made exact here.  Simplex and
cube membership hold exactly, and so does the pairing with those
rationalized statistics (not the float ones), since each section's primal
is re-checked against them; two span tests at `RANK_TOL` decide whether
linear maps print the responses and weights.  A sharp refusal is an
infeasible global section, whose Farkas dual the section solver
re-multiplied against its incidence rows.  Without sharp contexts, the
embedding LP decides the rationalized GPT exactly and re-checks its
certificate and its facet lists; the preparation-ensemble and
assignment-polytope checkers also run entirely in exact rational
arithmetic.
"""

from __future__ import annotations

import itertools
import math
import numbers
from fractions import Fraction
from operator import mul

import numpy as np

from .exactlp import (
    CertificateError,
    Feasibility,
    SparseColumns,
    TooLargeError,
    check_solution,
    clear_denominators,
    columns_from_rows,
    format_fraction,
    nearest_fraction,
    require_certificate,
    solve_eq_nonneg,
    to_fraction,
)
from .quantum import (
    CONSTRUCTION_TOL,
    ID2,
    PAULIS,
    bloch_state,
    eigen_projector,
    sup_norm,
)
from .record import Record
from .scenario import (
    MAX_DEN,
    ZERO_TOL,
    QuantumPass,
    SchemaError,
    make_model,
    make_scenario,
    quantum_pass,
    rationalize_atoms,
)
from .sheaf import SectionFeasibility, solve_global_section

RANK_TOL = 1e-8
MAX_EMBED_COLUMNS = 2**12
MAX_ASSIGNMENT_TUPLES = 2**12
MAX_SUBSET_PAIRS = 20_000


class GptError(ValueError):
    """Malformed generalized-probabilistic-theory data."""


class InconsistentUnit(GptError):
    """The declared or derived unit effect does not evaluate to 1."""


class UnsharpEffectFlagged(GptError):
    """The declared sharp-context structure is not a resolution of the unit."""


class DecompositionMismatch(ValueError):
    """A supplied convex decomposition does not reproduce the target state."""


class EmptyAssignmentPolytope(ValueError):
    """No deterministic-assignment mixture reproduces the given statistics."""


# ---------------------------------------------------------------------------
# GPT construction


class Gpt(Record, eq=False):
    """Finite prepare-measure theory: vectors with a probability pairing.

    ``states`` and ``effects`` are dim-vectors; the probability of effect
    ``e`` on state ``s`` is the standard dot product.  ``sharp_contexts``
    lists groups of effect indices that each resolve the unit effect.
    """

    dim: int
    states: tuple
    effects: tuple
    unit: np.ndarray
    sharp_contexts: tuple = ()

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_effects(self) -> int:
        return len(self.effects)

    def probability(self, effect_index: int, state_index: int) -> float:
        return float(np.dot(self.effects[effect_index], self.states[state_index]))

    def table(self) -> np.ndarray:
        """Effects-by-states probability table."""
        return np.array([[self.probability(i, j) for j in range(self.n_states)]
                         for i in range(self.n_effects)])


def make_gpt(states, effects, unit, sharp_contexts=(), *, tol: float = 1e-10) -> Gpt:
    """Validate and freeze a `Gpt`.

    Checks that every entry is finite, that every pairing lands in [0, 1]
    within ``tol`` and that the unit evaluates to 1 on every state; the
    unit is appended to the effect list when no listed effect matches it.
    Sharp-context indices must be integers naming listed effects; a float
    or a boolean is refused, not truncated.
    """
    states = tuple(np.asarray(s, dtype=float).reshape(-1) for s in states)
    effects = tuple(np.asarray(e, dtype=float).reshape(-1) for e in effects)
    unit = np.asarray(unit, dtype=float).reshape(-1)
    if not states:
        raise GptError("a GPT needs at least one state")
    if not all(np.isfinite(v).all() for v in (*states, *effects, unit)):
        raise GptError("state, effect and unit entries must be finite")
    dim = unit.shape[0]
    for s in states:
        if s.shape[0] != dim:
            raise GptError(f"state length {s.shape[0]} != dim {dim}")
    for e in effects:
        if e.shape[0] != dim:
            raise GptError(f"effect length {e.shape[0]} != dim {dim}")
    for j, s in enumerate(states):
        val = float(np.dot(unit, s))
        if abs(val - 1.0) > tol:
            raise InconsistentUnit(f"unit evaluates to {val} on state {j}")
    if not any(np.max(np.abs(e - unit)) <= tol for e in effects):
        effects = effects + (unit.copy(),)
    for i, e in enumerate(effects):
        for j, s in enumerate(states):
            val = float(np.dot(e, s))
            if val < -tol or val > 1.0 + tol:
                raise GptError(f"probability {val} of effect {i} on state {j} "
                               "outside [0, 1]")
    contexts = tuple(tuple(ctx) for ctx in sharp_contexts)
    for ctx in contexts:
        for i in ctx:
            if isinstance(i, bool) or not isinstance(i, numbers.Integral):
                raise GptError(f"sharp context index {i!r} is not an integer")
            if not 0 <= i < len(effects):
                raise GptError(f"sharp context {ctx} references unknown effect {i}")
        if len(set(ctx)) != len(ctx):
            raise GptError(f"sharp context {ctx} repeats an effect index")
    contexts = tuple(tuple(map(int, ctx)) for ctx in contexts)
    return Gpt(dim=dim, states=states, effects=effects, unit=unit,
               sharp_contexts=contexts)


def hermitian_to_vector(matrix) -> np.ndarray:
    """Embed a Hermitian matrix as a real vector whose dot is the trace pairing.

    Concatenating real and imaginary parts makes ``vec(A) . vec(B)`` equal
    ``Tr(A B)`` for Hermitian ``A`` and ``B``.
    """
    a = np.asarray(matrix, dtype=complex)
    return np.concatenate([a.real.ravel(), a.imag.ravel()])


def sharp_gpt_from_quantum(states, contexts) -> Gpt:
    """GPT of density matrices against the atoms of commuting projective contexts.

    Each context is a list of `ProjectiveContext` measurements; its atoms are
    the nonzero products of one projector per measurement.  Atoms equal
    within 1e-10 are shared across contexts, which is what carries the
    compatibility structure into the GPT.  `quantum_pass` checks the states
    and contexts and finds the atoms; `gpt_from_pass` builds the GPT.
    """
    return gpt_from_pass(quantum_pass(states, contexts))


def gpt_from_pass(qp: QuantumPass) -> Gpt:
    """The pass's states against its atoms, one sharp context per context."""
    unit = hermitian_to_vector(np.eye(qp.states[0].shape[0]))
    return make_gpt([hermitian_to_vector(r) for r in qp.states],
                    [hermitian_to_vector(a) for a in qp.atoms], unit,
                    qp.sharp_contexts, tol=1e-9)


# ---------------------------------------------------------------------------
# Sharp embedding (read off the global sections of the induced models)


def induced_model(gpt: Gpt, state_index: int, exact=None):
    """Exact dichotomic model of the sharp contexts on one state.

    Each flagged effect becomes a two-outcome measurement; within a context
    exactly one effect fires, so the tables are supported on one-hot outcome
    tuples with the atom probabilities as weights.  Sharp contexts with
    equal atom sets, such as two coarse-grainings that both refine the whole
    basis, give equal tables, so one copy of each is kept.

    The weights are ``exact``, the state's exact probabilities of the
    flagged effects in index order, when the caller has them: a quantum
    document's atoms are made exact once, for both verdicts.  Otherwise
    `rationalize_atoms` makes the float probabilities exact: rounding alone
    when it already makes every distinct context sum to exactly 1; else
    grid rounding with one atom that only its context holds set to what the
    others leave; one box LP over the atoms when that fails.  Either way
    every table sums to exactly 1 and the overlap marginals agree exactly,
    so `rationalize_model` passes the model through unchanged.  A context
    whose float probabilities miss a sum of 1 by more than 1e-9 raises
    `UnsharpEffectFlagged`.
    """
    if not gpt.sharp_contexts:
        raise UnsharpEffectFlagged("no sharp contexts declared")
    atom_indices = sorted({i for ctx in gpt.sharp_contexts for i in ctx})
    position = {i: k for k, i in enumerate(atom_indices)}
    probs = [max(0.0, gpt.probability(i, state_index)) for i in atom_indices]
    contexts = []
    for ctx in gpt.sharp_contexts:
        ordered = tuple(sorted(ctx))
        if ordered in contexts:
            continue
        total = sum(probs[position[i]] for i in ordered)
        if abs(total - 1.0) > 1e-9:
            raise UnsharpEffectFlagged(
                f"sharp context {ctx} resolves to total probability {total} "
                f"on state {state_index}")
        contexts.append(ordered)
    if exact is None:
        exact = rationalize_atoms(probs, [[position[i] for i in ctx]
                                          for ctx in contexts])
    tables = {}
    for ctx in contexts:
        tables[tuple(f"E{i}" for i in ctx)] = {
            tuple(int(k == slot) for k in range(len(ctx))): exact[position[i]]
            for slot, i in enumerate(ctx)}
    measurements = [(f"E{i}", (0, 1)) for i in atom_indices]
    return make_model(make_scenario(measurements, list(tables)), tables)


class EmbedSharpResult(Record, eq=False):
    """Outcome of the sharp embedding construction.

    ``verdict`` is "embeddable", "refused" or "undecided".  Embeddable: the
    kept assignments, each a 0/1 atom vector that is one ontic state's
    response to the atoms (the unit answers 1), and each state's exact
    weights on them.  Refused: the first state whose induced model has no
    global section, and that infeasible section.  Undecided: every state's
    section is feasible, and ``note`` says why no embedding was built.
    """

    verdict: str
    atom_indices: tuple
    assignments: tuple = ()
    state_weights: tuple = ()
    refusal_state: int | None = None
    refusal_section: SectionFeasibility | None = None
    note: str | None = None

    @property
    def feasible(self) -> bool:
        return self.verdict == "embeddable"

    def certificate(self) -> dict | None:
        """The embedding, or the refusing section's; an undecided result has none."""
        if self.verdict == "undecided":
            return None
        if self.feasible:
            return {
                "kind": "simplex-embedding",
                "verdict": "embeddable",
                "d": len(self.assignments),
                "atoms": list(self.atom_indices),
                "assignments": [list(a) for a in self.assignments],
                "state_weights": [[format_fraction(w) for w in ws]
                                  for ws in self.state_weights],
            }
        return {"state": self.refusal_state,
                **self.refusal_section.certificate()}


def _in_span(rows, vectors, scale: float | None = None) -> bool:
    """Whether every row of ``vectors`` lies in the span of ``rows``.

    The rank decision of both GPT routes: the numerical rank, at `RANK_TOL`
    times the larger of 1 and ``scale`` (by default the spectral norm of
    ``rows``), does not grow when ``vectors`` join ``rows``.
    """
    rows = np.asarray(rows, dtype=float)
    if scale is None:
        scale = float(np.linalg.norm(rows, 2))
    tol = RANK_TOL * max(1.0, scale)
    return (np.linalg.matrix_rank(np.vstack([rows, vectors]), tol=tol)
            == np.linalg.matrix_rank(rows, tol=tol))


def embed_sharp(gpt: Gpt, exact=None) -> EmbedSharpResult:
    """Simplex embedding of a sharp GPT, read off its solved global sections.

    A sharp GPT has a simplex embedding only if every state's induced
    model has a global section, so each state's `induced_model` is solved
    once, in order, from ``exact[j]`` when the caller has made state j's
    atoms exact, and the first infeasible section is the refusal: its
    re-checked Farkas dual is the certificate.  `induced_model` raises
    `UnsharpEffectFlagged` when a sharp context misses a sum of 1 on a
    state, and the section solver raises `TooLargeError` above its column
    cap.

    When every section is feasible, the verdict is "undecided" with a note
    for an effect that is neither the unit nor in a sharp context.
    Otherwise each section's primal pairs global assignments of the
    measurements ``E{i}`` in atom order with their positive weights, so the
    assignments in any state's support are the 0/1 atom vectors that fire
    one atom per context.  The printed certificate is those assignments,
    each an ontic state answering the atoms with its bits and the unit
    with 1, and each state's weights on them.  It is a simplex embedding
    exactly when the two maps it prints are linear, which two span tests
    decide (`_in_span`):

    - each assignment's weights, one per state, lie in the span of the
      state vectors' coordinates, so one linear iota gives every state's
      weights;
    - each response row, its bits and a 1, lies in the span of the atom
      effects' and the unit's coordinates, so one linear kappa gives it:
      the row keeps every linear relation among the atoms and the unit.

    The rest is exact: the weights are nonnegative and sum to 1, the bits
    are 0/1, and each section's primal reproduces its state's exact atom
    probabilities, which `check_solution` re-checks here.  A failed test is
    "undecided" with a note: per-state mixtures of linearly dependent
    states need not come from one linear map, and assignments that fire
    one of two equal atoms but not the other come from none.
    """
    if not gpt.sharp_contexts:
        raise UnsharpEffectFlagged("no sharp contexts declared")
    atom_set = {i for ctx in gpt.sharp_contexts for i in ctx}
    atom_indices = tuple(sorted(atom_set))
    solved = []
    for j in range(gpt.n_states):
        section = solve_global_section(
            induced_model(gpt, j, None if exact is None else exact[j]))
        if not section.feasible:
            return EmbedSharpResult("refused", atom_indices, refusal_state=j,
                                    refusal_section=section)
        solved.append(section)
    for i, e in enumerate(gpt.effects):
        if i not in atom_set and np.max(np.abs(e - gpt.unit)) > 1e-9:
            return EmbedSharpResult("undecided", atom_indices, note=(
                f"effect {i} is neither the unit nor covered by a sharp context"))

    # Descending order puts the assignments firing lower atoms first, so on
    # a single context vertex i of the simplex is atom i firing.
    assignments = tuple(sorted({t for s in solved for t, _ in s.primal},
                               reverse=True))
    state_weights = tuple(tuple(dict(s.primal).get(t, Fraction(0))
                                for t in assignments) for s in solved)
    rechecked = all(check_solution(s.matrix, [s.model.tables[ctx][sec]
                                              for ctx, sec in s.matrix.rows],
                                   s.primal) for s in solved)
    effects = [gpt.effects[i] for i in atom_indices] + [gpt.unit]
    if not rechecked:
        fault = "a section's weights miss its state's atom probabilities"
    elif not _in_span(np.array(gpt.states).T,
                      np.array(state_weights, dtype=float).T):
        fault = "the global sections' weights are not linear in the states"
    elif not _in_span(np.array(effects).T, [(*t, 1) for t in assignments]):
        fault = ("the assignments' responses break a linear relation among "
                 "the atoms and the unit")
    else:
        return EmbedSharpResult("embeddable", atom_indices, assignments,
                                state_weights)
    return EmbedSharpResult("undecided", atom_indices,
                            note=f"embedding assembly: {fault}")


# ---------------------------------------------------------------------------
# Exact embedding LP (Schmid et al., PRX Quantum 2, 010331, 2021; Selby et
# al., PRL 132, 050202, 2024)


def _snap(x: float) -> Fraction:
    """Exact zero within `ZERO_TOL`, otherwise the nearest rational with
    denominator at most `MAX_DEN` (`nearest_fraction`)."""
    return Fraction(0) if abs(x) <= ZERO_TOL else Fraction(*nearest_fraction(x, MAX_DEN))


def _primitive(values) -> tuple:
    """The primitive integer vector on the ray of a nonzero rational vector."""
    ints, _ = clear_denominators(values)
    g = math.gcd(*ints)
    return tuple(v // g for v in ints)


def _dot(a, b):
    return sum(map(mul, a, b))


def cone_facets(generators, limit: int | None = None) -> tuple | None:
    """Facets of the cone spanned by rational generators, by double description.

    The facet normals of cone(G) are the extreme rays of its dual
    {h : g.h >= 0 for every generator g}.  The double-description method
    (Motzkin et al. 1953, in the form of Fukuda and Prodon 1996) builds that
    cone one generator at a time from the whole space, held as a lineality
    basis and a list of rays.  A generator that is nonzero on some lineality
    vector l cuts the space in half: l, oriented onto its positive side,
    becomes a ray, and the other basis vectors and the rays are shifted
    along l onto its zero set.  Any other generator keeps the rays on its
    nonnegative side and crosses each adjacent pair of rays on opposite
    sides.  Adjacency is the combinatorial test: no third ray is tight on
    every generator that both are tight on.  All arithmetic is on primitive
    integer vectors.

    Returns the sorted primitive integer normals, or None when the
    generators span a proper subspace, where facet normals are not unique.
    Raises `TooLargeError` once more than ``limit`` rays are held.
    """
    gens = sorted({_primitive(g) for g in generators if any(g)})
    if not gens:
        return None
    r = len(gens[0])
    lineality = [tuple(int(i == k) for i in range(r)) for k in range(r)]
    rays: list = []
    zeros: list = []  # bit k is set when the ray is tight on gens[k]
    for k, g in enumerate(gens):
        cut = next((i for i, l in enumerate(lineality) if _dot(g, l)), None)
        if cut is not None:
            l0 = lineality.pop(cut)
            if _dot(g, l0) < 0:
                l0 = tuple(-v for v in l0)
            gl = _dot(g, l0)
            lineality = [_primitive([gl * a - _dot(g, l) * b
                                     for a, b in zip(l, l0)])
                         for l in lineality]
            rays = [_primitive([gl * a - _dot(g, p) * b for a, b in zip(p, l0)])
                    for p in rays] + [l0]
            zeros = [z | 1 << k for z in zeros] + [(1 << k) - 1]
            continue
        vals = [_dot(g, ray) for ray in rays]
        kept = [i for i, v in enumerate(vals) if v >= 0]
        new_rays = [rays[i] for i in kept]
        new_zeros = [zeros[i] | (1 << k if vals[i] == 0 else 0) for i in kept]
        for p, vp in enumerate(vals):
            if vp <= 0:
                continue
            for n, vn in enumerate(vals):
                if vn >= 0:
                    continue
                common = zeros[p] & zeros[n]
                if common.bit_count() < r - len(lineality) - 2 or any(
                        w != p and w != n and not common & ~z
                        for w, z in enumerate(zeros)):
                    continue
                new_rays.append(_primitive([vp * a - vn * b
                                            for a, b in zip(rays[n], rays[p])]))
                new_zeros.append(common | 1 << k)
        rays, zeros = new_rays, new_zeros
        if limit is not None and len(rays) > limit:
            raise TooLargeError(f"a cone's double description holds more "
                                f"than {limit} rays")
    return None if lineality else tuple(sorted(rays))


def _require_facets(facets, generators, complete: bool, what: str) -> None:
    """Re-check a facet list of cone(generators); raise `CertificateError`.

    Every normal must be nonnegative on every generator.  A refusal also
    needs the list complete: the facets of cone(facets) must all be rays of
    the generators, so that {x : h.x >= 0 for every listed h} is no larger
    than cone(generators) and no facet of it was dropped.
    """
    for h in facets:
        if any(_dot(h, g) < 0 for g in generators):
            raise CertificateError(f"{what} facet {list(h)} is negative on a "
                                   "generator")
    if complete:
        dual = cone_facets(facets)
        if dual is None or not set(dual) <= {_primitive(g) for g in generators}:
            raise CertificateError(f"{what} facet list is incomplete")


def _exact_fragment(gpt: Gpt):
    """The accessible fragment of the rationalized GPT, or why there is none.

    The float table has the unit's row first, then each effect's.  Its
    rows that raise the rank (at `RANK_TOL`), in order, the unit's first,
    set the fragment's dimension r and become coordinates:
    a state is its rounded probabilities on those effects, rescaled so that
    its unit coordinate is exactly 1, and an effect is its rounded
    coefficients on them.  Probabilities and coefficients within
    `ZERO_TOL` of 0 become exactly 0, the others the nearest rational with
    denominator at most `MAX_DEN`.  The exact table is then the product of
    the two, of rank at most r.

    Returns (states, effects) as tuples of Fraction vectors, the unit being
    the first basis vector, or a string naming the fault when an exact
    probability falls outside [0, 1].
    """
    rows = np.array([gpt.unit, *gpt.effects])
    table = rows @ np.array(gpt.states).T
    scale = float(np.linalg.norm(table, 2))
    basis: list[int] = []
    for i in range(len(rows)):
        if not _in_span(table[basis], table[i:i + 1], scale):
            basis.append(i)
    coords = [[_snap(v) for v in table[i]] for i in basis]
    states = tuple(tuple(row[j] / coords[0][j] for row in coords)
                   for j in range(gpt.n_states))
    solved = np.linalg.lstsq(table[basis].T, table.T, rcond=None)[0].T
    effects = []
    for i in range(1, len(rows)):
        if i in basis:
            coeffs = tuple(Fraction(int(b == i)) for b in basis)
        else:
            coeffs = tuple(map(_snap, solved[i]))
        for j, s in enumerate(states):
            p = _dot(coeffs, s)
            if not 0 <= p <= 1:
                return (f"effect {i - 1} has rounded probability {float(p):.3g} "
                        f"outside [0, 1] on state {j}")
        effects.append(coeffs)
    return states, tuple(effects)


class EmbedLpResult(Record, eq=False):
    """Outcome of the exact embedding LP.

    ``verdict`` is "embeddable", "refused" or "undecided".  Decided results
    carry the exact fragment (``states``, ``effects``; the unit is the
    first basis vector), the primitive integer facet normals of its state
    and effect cones, and either the nonzero entries ``(a, b, weight)`` of
    sigma or the Farkas matrix.  Undecided: ``note`` names the rationalization
    fault.
    """

    verdict: str
    note: str | None = None
    states: tuple = ()
    effects: tuple = ()
    state_facets: tuple = ()
    effect_facets: tuple = ()
    sigma: tuple = ()
    farkas: tuple = ()

    def certificate(self) -> dict:
        cert = {
            "kind": "simplex-embedding-lp",
            "verdict": self.verdict,
            "fragment": {
                "states": [[format_fraction(v) for v in s] for s in self.states],
                "effects": [[format_fraction(v) for v in e]
                            for e in self.effects]},
            "state_facets": [list(h) for h in self.state_facets],
            "effect_facets": [list(h) for h in self.effect_facets],
        }
        if self.verdict == "embeddable":
            cert["sigma"] = [[a, b, format_fraction(w)] for a, b, w in self.sigma]
        else:
            cert["farkas"] = [[format_fraction(v) for v in row]
                              for row in self.farkas]
        return cert


def embed_lp(gpt: Gpt) -> EmbedLpResult:
    """Decide simplex embeddability of a GPT with one exact LP.

    The GPT is rationalized once (`_exact_fragment`).  On its accessible
    fragment of dimension r, H_S and H_E list the facet normals of the
    state cone and of the effect cone, the cone of the effects, the unit
    and each unit minus an effect (`cone_facets`).  A simplex embedding
    exists exactly when some entrywise nonnegative sigma has
    H_E^T sigma H_S = I (Schmid et al. 2021; Selby et al. 2024): each nonzero
    sigma_ab is an ontic state, answering effect e with
    (h_a.e) / (h_a.unit) and weighted by sigma_ab (h_a.unit) (h_b.s) in state
    s.  That is one `SparseColumns` LP with r^2 rows and a column per facet
    pair.

    sigma is the certificate for "embeddable", and a Farkas matrix Y, with
    h_a^T Y h_b <= 0 for every pair and trace(Y) > 0, for "refused".  Both
    are re-checked by `require_certificate`, every listed facet is
    re-checked against the cone's generators, and a refusal also re-checks
    that the facet lists are complete (`_require_facets`).  Raises
    `TooLargeError` when the LP would exceed `MAX_EMBED_COLUMNS` columns.
    """
    fragment = _exact_fragment(gpt)
    if isinstance(fragment, str):
        return EmbedLpResult("undecided", note=f"rationalization: {fragment}")
    states, effects = fragment
    r = len(states[0])
    unit = tuple(int(k == 0) for k in range(r))
    state_gens = [_primitive(s) for s in states]
    effect_gens = [_primitive(v) for v in (
        unit, *effects, *(tuple(u - x for u, x in zip(unit, e)) for e in effects))
        if any(v)]
    # A full-dimensional pointed cone has at least r facets.
    h_s = cone_facets(state_gens, limit=MAX_EMBED_COLUMNS // r)
    if h_s is None:
        return EmbedLpResult("undecided", note=(
            f"rationalization: the rounded states span fewer than {r} "
            "dimensions"))
    h_e = cone_facets(effect_gens, limit=MAX_EMBED_COLUMNS // len(h_s))
    if len(h_e) * len(h_s) > MAX_EMBED_COLUMNS:
        raise TooLargeError(f"embedding LP of {len(h_e)} x {len(h_s)} facet "
                            f"pairs exceeds {MAX_EMBED_COLUMNS} columns")
    cols = []
    for a in h_e:
        for b in h_s:
            entries = [(p * r + q, x * y) for p, x in enumerate(a) if x
                       for q, y in enumerate(b) if y]
            cols.append((tuple(i for i, _ in entries), tuple(v for _, v in entries)))
    lp = SparseColumns(r * r, tuple(cols))
    rhs = [int(p == q) for p in range(r) for q in range(r)]
    res = require_certificate(lp, rhs, solve_eq_nonneg(lp, rhs), "embedding LP")
    _require_facets(h_s, state_gens, not res.feasible, "state-cone")
    _require_facets(h_e, effect_gens, not res.feasible, "effect-cone")
    found = dict(states=states, effects=effects, state_facets=h_s,
                 effect_facets=h_e)
    if res.feasible:
        sigma = tuple((j // len(h_s), j % len(h_s), w)
                      for j, w in enumerate(res.x) if w)
        return EmbedLpResult("embeddable", sigma=sigma, **found)
    farkas = tuple(tuple(res.farkas[p * r:(p + 1) * r]) for p in range(r))
    return EmbedLpResult("refused", farkas=farkas, **found)


# ---------------------------------------------------------------------------
# Preparation noncontextuality for qubit ensembles


class PrepEnsembleProblem(Record, eq=False):
    """A mixed qubit state with several declared convex decompositions.

    ``decompositions`` lists (weight, component label) terms; every
    decomposition must reproduce ``target``.  ``orthogonal_pairs`` names the
    component pairs whose supports a noncontextual model must keep disjoint.
    """

    target: np.ndarray
    q: Fraction
    component_states: dict
    decompositions: tuple
    orthogonal_pairs: tuple


def _perpendicular_frame(direction: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    helper = np.array([0.0, 0.0, 1.0])
    if abs(float(np.dot(direction, helper))) > 0.9:
        helper = np.array([1.0, 0.0, 0.0])
    u = np.cross(direction, helper)
    u = u / np.linalg.norm(u)
    w = np.cross(direction, u)
    return u, w


def qubit_prep_ensemble(r, axis=(0.0, 0.0, 1.0), q=None) -> PrepEnsembleProblem:
    """The six-decomposition ensemble for the qubit state (1 + r n.sigma)/2.

    ``r`` must be rational with |r| < 1 (mixed states only); ``q`` defaults
    to |r| so the polar component is the pure Bloch state along the target
    direction.  The equatorial triple sits 120 degrees apart in the plane
    orthogonal to the axis.
    """
    r = to_fraction(r)
    if not abs(r) < 1:
        raise ValueError(f"|r| must be < 1 for a mixed target, got {r}")
    q = abs(r) if q is None else to_fraction(q)
    if not 0 <= q < 1:
        raise ValueError(f"q must lie in [0, 1), got {q}")
    axis = np.asarray(axis, dtype=float)
    norm = float(np.linalg.norm(axis))
    if not norm > 0 or not math.isfinite(norm):
        raise ValueError("axis must be a finite nonzero Bloch vector")
    direction = axis / norm
    if r < 0:
        direction = -direction
    u, w = _perpendicular_frame(direction)
    half = np.sqrt(3.0) / 2.0
    dirs = {
        "phi": direction,
        "phi_perp": -direction,
        "psi_a": u,
        "psi_a_perp": -u,
        "psi_b": -0.5 * u + half * w,
        "psi_b_perp": 0.5 * u - half * w,
        "psi_c": -0.5 * u - half * w,
        "psi_c_perp": 0.5 * u + half * w,
    }
    components = {name: bloch_state(v) for name, v in dirs.items()}
    target = 0.5 * (ID2 + float(q) * (direction[0] * PAULIS["X"]
                                      + direction[1] * PAULIS["Y"]
                                      + direction[2] * PAULIS["Z"]))
    one = Fraction(1)
    decompositions = (
        (((one - q) / 2, "phi_perp"), ((one + q) / 2, "phi")),
        (((one - q) / 2, "psi_a"), ((one - q) / 2, "psi_a_perp"), (q, "phi")),
        (((one - q) / 2, "psi_b"), ((one - q) / 2, "psi_b_perp"), (q, "phi")),
        (((one - q) / 2, "psi_c"), ((one - q) / 2, "psi_c_perp"), (q, "phi")),
        (((one - q) / 3, "psi_a"), ((one - q) / 3, "psi_b"),
         ((one - q) / 3, "psi_c"), (q, "phi")),
        (((one - q) / 3, "psi_a_perp"), ((one - q) / 3, "psi_b_perp"),
         ((one - q) / 3, "psi_c_perp"), (q, "phi")),
    )
    pairs = (("phi", "phi_perp"), ("psi_a", "psi_a_perp"),
             ("psi_b", "psi_b_perp"), ("psi_c", "psi_c_perp"))
    problem = PrepEnsembleProblem(target=target, q=q,
                                  component_states=components,
                                  decompositions=decompositions,
                                  orthogonal_pairs=pairs)
    _verify_decompositions(problem)
    return problem


def _verify_decompositions(problem: PrepEnsembleProblem,
                           tol: float = CONSTRUCTION_TOL) -> None:
    for k, decomposition in enumerate(problem.decompositions):
        total = np.zeros_like(problem.target)
        for weight, label in decomposition:
            if label not in problem.component_states:
                raise DecompositionMismatch(
                    f"decomposition {k} references unknown component {label!r}")
            total = total + float(weight) * problem.component_states[label]
        if sup_norm(total - problem.target) > tol:
            raise DecompositionMismatch(
                f"decomposition {k} misses the target by "
                f"{sup_norm(total - problem.target)}")


class PrepNcCase(Record, eq=False):
    """One support pattern: which member of each orthogonal pair is dead."""

    dead: tuple
    feasible: bool
    solution: tuple | None
    farkas: tuple | None


class PrepNcResult(Record, eq=False):
    """Outcome of the exact case analysis over support patterns."""

    feasible: bool
    cases: tuple

    @property
    def verdict(self) -> str:
        return "feasible" if self.feasible else "infeasible"

    def certificate(self) -> dict:
        return {
            "kind": "preparation-noncontextuality",
            "verdict": self.verdict,
            "cases": [
                {
                    "dead": list(case.dead),
                    "feasible": case.feasible,
                    "certificate": [format_fraction(v) for v in
                                    (case.solution if case.feasible
                                     else case.farkas)],
                }
                for case in self.cases
            ],
        }


def _pattern_system(problem: PrepEnsembleProblem, dead: tuple):
    """Exact rows over the alive components for one support pattern."""
    labels = []
    for pair in problem.orthogonal_pairs:
        labels.extend(pair)
    for label in problem.component_states:
        if label not in labels:
            labels.append(label)
    alive = [l for l in labels if l not in dead]
    weight_rows = []
    for decomposition in problem.decompositions:
        weights = {label: Fraction(0) for label in alive}
        for w, label in decomposition:
            if label in weights:
                weights[label] += Fraction(w)
        weight_rows.append([weights[l] for l in alive])
    rows = []
    rhs = []
    for k in range(1, len(weight_rows)):
        rows.append([weight_rows[k][i] - weight_rows[0][i]
                     for i in range(len(alive))])
        rhs.append(Fraction(0))
    rows.append(list(weight_rows[0]))
    rhs.append(Fraction(1))
    return alive, rows, rhs


def prep_nc_check(problem: PrepEnsembleProblem) -> PrepNcResult:
    """Case analysis: can any ontic state carry all declared decompositions?

    For each of the 16 support patterns the exact LP asks for nonnegative
    component masses at a single ontic state, equal across all declared
    decompositions and normalizable to carry weight.  All patterns failing
    is a proof of preparation contextuality; a satisfiable pattern (as with
    a single decomposition) is reported feasible.  The system is built
    once, over every component, and its columns' denominators are cleared
    once; a pattern's LP keeps the columns of its alive components, in
    order, which is `_pattern_system` of that pattern.
    """
    _verify_decompositions(problem)
    labels, rows, rhs = _pattern_system(problem, ())
    full = columns_from_rows(rows)
    cases = []
    feasible_any = False
    for choice in itertools.product(*problem.orthogonal_pairs):
        a = full.select([j for j, label in enumerate(labels) if label not in choice])
        res = require_certificate(a, rhs, solve_eq_nonneg(a, rhs),
                                  "preparation pattern")
        if res.feasible:
            feasible_any = True
            cases.append(PrepNcCase(choice, True, res.x, None))
        else:
            cases.append(PrepNcCase(choice, False, None, res.farkas))
    return PrepNcResult(feasible_any, tuple(cases))


# ---------------------------------------------------------------------------
# Assignment-polytope route (no tomographic completeness assumed)


class AssignmentPolytope(Record, eq=False):
    """The distributions over deterministic assignments that reproduce one
    preparation's statistics: ``{z >= 0 : A z = b}`` with A = `matrix` and
    b = `rhs`."""

    preparation: str
    measurements: tuple
    assignments: tuple
    distributions: dict

    def matrix(self) -> SparseColumns:
        """A: one row per (measurement, outcome), in measurement order, with
        a one in the column of each assignment giving that outcome."""
        offsets = list(itertools.accumulate(
            (n for _, n in self.measurements), initial=0))
        return SparseColumns(offsets[-1], tuple(
            (tuple(offsets[m] + o for m, o in enumerate(a)), (1,) * len(a))
            for a in self.assignments))

    @property
    def rhs(self) -> tuple:
        """b: the outcome probabilities, in the row order of `matrix`."""
        return tuple(p for label, _ in self.measurements
                     for p in self.distributions[label])


def _normalize_stats(probs, n_outcomes: int, max_den: int = 10**6):
    """Rationalize one outcome distribution exactly.

    Float entries are rounded at ``max_den``, and the last outcome absorbs a
    float sum's miss of at most 1e-6, so valid float data sums to exactly 1.
    A negative distribution, or one that does not then sum to exactly 1,
    raises `EmptyAssignmentPolytope`: no mixture of assignments reproduces it.
    """
    values = []
    for p in probs:
        if not isinstance(p, float):
            values.append(to_fraction(p))
        elif math.isfinite(p):
            values.append(Fraction(*nearest_fraction(p, max_den)))
        else:
            raise SchemaError(f"probability {p} is not finite")
    if len(values) != n_outcomes:
        raise SchemaError(f"expected {n_outcomes} outcome probabilities, "
                          f"got {len(values)}")
    total = sum(values)
    if (total != 1 and abs(total - 1) <= Fraction(1, 10**6)
            and any(isinstance(p, float) for p in probs)):
        values[-1] += 1 - total
        total = 1
    if any(v < 0 for v in values):
        raise EmptyAssignmentPolytope("negative outcome probability")
    if total != 1:
        raise EmptyAssignmentPolytope(
            f"outcome probabilities sum to {total}, not 1")
    return tuple(values)


def build_assignment_polytope(preparation: str, measurements, stats
                              ) -> AssignmentPolytope:
    """One preparation's assignment polytope.

    ``measurements`` is an ordered tuple of (label, outcome count); ``stats``
    maps each label to its outcome distribution.  Raises
    `EmptyAssignmentPolytope` when a distribution is negative or does not
    sum to 1.  Otherwise the polytope is not empty, since the product of the
    distributions lies in it.
    """
    measurements = tuple((str(label), int(n)) for label, n in measurements)
    count = 1
    for _, n in measurements:
        count *= n
        if count > MAX_ASSIGNMENT_TUPLES:
            raise TooLargeError(
                f"more than {MAX_ASSIGNMENT_TUPLES} deterministic assignments")
    dists = {}
    for label, n in measurements:
        if label not in stats:
            raise SchemaError(f"missing statistics for measurement {label!r}")
        dists[label] = _normalize_stats(stats[label], n)
    return AssignmentPolytope(
        preparation=preparation,
        measurements=measurements,
        assignments=tuple(itertools.product(*[range(n) for _, n in measurements])),
        distributions=dists)


def _bipartitions(n: int):
    """All unordered two-block partitions of range(n); element 0 sits first."""
    indices = list(range(n))
    for s_mask in range(1, 2**n - 1, 2):
        s = tuple(i for i in indices if (s_mask >> i) & 1)
        t = tuple(i for i in indices if not (s_mask >> i) & 1)
        yield (s, t)


class PuseyResult(Record, eq=False):
    """Outcome of the assignment-polytope contextuality scan."""

    verdict: str  # "contextual" | "inconclusive"
    scan_contextual: bool
    equivalence_contextual: bool
    pairs_checked: int
    pairs_covered: int
    intersecting_pair: tuple | None
    equivalence_farkas: tuple | None

    def certificate(self) -> dict:
        cert = {
            "kind": "assignment-polytope-scan",
            "verdict": self.verdict,
            "pairs_checked": self.pairs_checked,
            "pairs_covered": self.pairs_covered,
            "scan_contextual": self.scan_contextual,
            "equivalence_contextual": self.equivalence_contextual,
        }
        if self.intersecting_pair is not None:
            cert["intersecting_pair"] = [list(side)
                                         for side in self.intersecting_pair]
        if self.equivalence_farkas is not None:
            cert["equivalence_farkas"] = [format_fraction(v)
                                          for v in self.equivalence_farkas]
        return cert


def _hull_pair_lp(side_s, side_t) -> Feasibility:
    """Whether the hulls of the S and T polytopes meet, by one re-checked exact LP.

    Balas's disjunctive formulation ("Disjunctive programming", 1979): the
    points of conv(union of P_i) are the sums sum_i z_i with
    A z_i = lam_i b_i, z_i >= 0, lam_i >= 0 and sum_i lam_i = 1.  A is
    `AssignmentPolytope.matrix` with a row of ones appended (b_i with a 1),
    so sum(z_i) = lam_i, and A z = 0 forces z = 0: the polytopes are
    bounded, which makes the formulation exact.  The LP asks for
    sum_S z_i = sum_T z_i and sum_S lam_i = 1; the rows of ones then give
    sum_T lam_i = 1 too.

    Columns run polytope by polytope, S before T: z_i's assignment columns,
    then lam_i.  Rows are each polytope's block (the rows of A, then its row
    of ones), then one row per assignment for sum_S z_i - sum_T z_i = 0,
    then sum_S lam_i = 1.
    """
    polys = (*side_s, *side_t)
    a = polys[0].matrix()
    block = a.m + 1
    equal = len(polys) * block
    norm = equal + a.n
    cols = []
    for k, poly in enumerate(polys):
        base, ones = k * block, k * block + a.m
        in_s = k < len(side_s)
        for j, (idx, vals) in enumerate(a.cols):
            cols.append((tuple(base + i for i in idx) + (ones, equal + j),
                         vals + (1, 1 if in_s else -1)))
        b = poly.rhs
        nonzero = [i for i, v in enumerate(b) if v]
        cols.append((tuple(base + i for i in nonzero) + (ones,)
                     + ((norm,) if in_s else ()),
                     tuple(-b[i] for i in nonzero) + (-1,)
                     + ((1,) if in_s else ())))
    lp = SparseColumns(norm + 1, tuple(cols))
    rhs = [0] * norm + [1]
    return require_certificate(lp, rhs, solve_eq_nonneg(lp, rhs), "hull pair")


def pusey_incomplete_check(preps, *, declared_equivalences=None) -> PuseyResult:
    """Preparation-contextuality scan without tomographic completeness.

    Each preparation's statistics define its assignment polytope P_i, the
    distributions over deterministic assignments that reproduce them.  The
    scan asks whether the hulls of the unions of the P_i over two disjoint
    preparation subsets S and T can meet.  Growing a subset grows its hull,
    so such a pair exists exactly when some bipartition of the preparations
    is one.  The scan therefore solves one exact disjunctive LP
    per bipartition (`_hull_pair_lp`), built from the deterministic
    assignments with no vertex enumeration, and stops at the first whose
    hulls meet: ``intersecting_pair`` names it.  ``pairs_checked`` counts
    the LPs solved; ``pairs_covered`` counts the disjoint subset pairs the
    bipartitions decide, whether or not the scan stopped early.

    The scan concludes "contextual" only when at least one disjoint pair
    exists and no pair intersects; note this is the literal subset-pair
    criterion, which does not restrict attention to operationally
    coinciding mixtures.  When ``declared_equivalences`` supplies groups of
    mixtures asserted equal, a single exact LP (`_equivalence_system`)
    additionally demands per-assignment equality of the mixed ontic
    distributions; its infeasibility is a second, independent route to
    "contextual" with a Farkas certificate.
    """
    preps = dict(preps)
    if not preps:
        raise SchemaError("at least one preparation is required")
    labels = list(preps.keys())
    first = preps[labels[0]]
    measurement_labels = list(first.keys())
    measurements = tuple((m, len(first[m])) for m in measurement_labels)
    for label in labels:
        if set(preps[label].keys()) != set(measurement_labels):
            raise SchemaError(
                f"preparation {label!r} lists different measurements")
    polytopes = {label: build_assignment_polytope(label, measurements,
                                                  preps[label])
                 for label in labels}

    n = len(labels)
    pair_total = (3**n - 2**(n + 1) + 1) // 2
    if pair_total > MAX_SUBSET_PAIRS:
        raise TooLargeError(
            f"{pair_total} disjoint subset pairs exceed {MAX_SUBSET_PAIRS}")
    # Built before the scan, so that a bad mixture is refused before any LP.
    system = (_equivalence_system(labels, polytopes, declared_equivalences)
              if declared_equivalences else None)
    pairs_checked = 0
    intersecting = None
    for s_idx, t_idx in _bipartitions(n):
        pairs_checked += 1
        if _hull_pair_lp([polytopes[labels[i]] for i in s_idx],
                         [polytopes[labels[i]] for i in t_idx]).feasible:
            intersecting = (tuple(labels[i] for i in s_idx),
                            tuple(labels[i] for i in t_idx))
            break
    scan_contextual = pairs_checked > 0 and intersecting is None

    equivalence_farkas = None
    if system is not None:
        a, rhs = system
        res = require_certificate(a, rhs, solve_eq_nonneg(a, rhs), "equivalence")
        if not res.feasible:
            equivalence_farkas = res.farkas
    equivalence_contextual = equivalence_farkas is not None

    verdict = ("contextual" if scan_contextual or equivalence_contextual
               else "inconclusive")
    return PuseyResult(verdict=verdict,
                       scan_contextual=scan_contextual,
                       equivalence_contextual=equivalence_contextual,
                       pairs_checked=pairs_checked,
                       pairs_covered=pair_total,
                       intersecting_pair=intersecting,
                       equivalence_farkas=equivalence_farkas)


def _equivalence_system(labels, polytopes, declared_equivalences):
    """Joint exact LP: per-prep statistics plus pointwise mixture equality.

    Column ``k * n_a + j`` is preparation ``labels[k]``'s weight on
    assignment j.  The rows are each preparation's rows of A, then, per
    declared group and per mixture after the group's first, one row per
    assignment equating that mixture's weight with the first mixture's.
    """
    a = polytopes[labels[0]].matrix()
    rhs = [p for label in labels for p in polytopes[label].rhs]
    # Per preparation, (first row, net weight) of each equality block it enters.
    blocks: dict = {label: [] for label in labels}
    for group in declared_equivalences:
        mixtures = [dict(mix) for mix in group]
        for mix in mixtures:
            for label, weight in mix.items():
                if label not in blocks:
                    raise SchemaError(f"mixture references unknown preparation "
                                      f"{label!r}")
                mix[label] = to_fraction(weight)
                if mix[label] < 0:
                    raise SchemaError(f"negative weight {mix[label]} for preparation {label!r}")
            if sum(mix.values()) != 1:
                raise SchemaError("mixture weights must sum to 1")
        for mix in mixtures[1:]:
            for label in labels:
                net = mix.get(label, 0) - mixtures[0].get(label, 0)
                if net:
                    blocks[label].append((len(rhs), net))
            rhs += [Fraction(0)] * a.n
    cols = tuple(
        (tuple(k * a.m + i for i in idx) + tuple(row + j for row, _ in blocks[label]),
         vals + tuple(net for _, net in blocks[label]))
        for k, label in enumerate(labels) for j, (idx, vals) in enumerate(a.cols))
    return SparseColumns(len(rhs), cols), rhs


def six_ensemble_statistics(r, axis=(0.0, 0.0, 1.0), *, max_den: int = 10**6):
    """X, Y, Z statistics of the six-decomposition components plus equivalences.

    Returns (stats, equivalence group, problem): per-component outcome
    distributions for the three Pauli measurements (rationalized at
    ``max_den``), and the six decompositions as mixtures declared
    operationally equivalent.
    """
    problem = qubit_prep_ensemble(r, axis)
    bases = ("X", "Y", "Z")
    stats = {}
    for label, state in problem.component_states.items():
        per = {}
        for basis in bases:
            plus = eigen_projector(PAULIS[basis], 1.0)
            p0 = float(np.real(np.trace(plus @ state)))
            p0 = min(1.0, max(0.0, p0))
            frac = Fraction(*nearest_fraction(p0, max_den))
            per[basis] = (frac, 1 - frac)
        stats[label] = per
    group = []
    for decomposition in problem.decompositions:
        mix: dict[str, Fraction] = {}
        for w, label in decomposition:
            mix[label] = mix.get(label, Fraction(0)) + Fraction(w)
        group.append(mix)
    return stats, group, problem


# ---------------------------------------------------------------------------
# JSON interface


def gpt_to_json(gpt: Gpt) -> dict:
    return {
        "dim": gpt.dim,
        "states": [list(map(float, s)) for s in gpt.states],
        "effects": [list(map(float, e)) for e in gpt.effects],
        "unit": list(map(float, gpt.unit)),
        "sharp_contexts": [list(ctx) for ctx in gpt.sharp_contexts],
    }


def gpt_from_json(data) -> Gpt:
    if not isinstance(data, dict):
        raise SchemaError("GPT JSON must be an object")
    for key in ("dim", "states", "effects", "unit"):
        if key not in data:
            raise SchemaError(f"GPT JSON missing key {key!r}")
    try:
        gpt = make_gpt(data["states"], data["effects"], data["unit"],
                       data.get("sharp_contexts", ()))
    except (TypeError, GptError) as exc:
        if isinstance(exc, (InconsistentUnit, UnsharpEffectFlagged)):
            raise
        raise SchemaError(f"malformed GPT JSON: {exc}") from exc
    dim = data["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise SchemaError(f"malformed GPT dim {dim!r}: not an integer")
    if dim != gpt.dim:
        raise SchemaError(f"declared dim {data['dim']} != vector length {gpt.dim}")
    return gpt
