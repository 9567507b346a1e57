"""Generalized probabilistic theories and classicality embeddings.

Verification strategy: every embedding returned by any search path is
re-checked against the simplex, dual-hypercube, and probability
reproduction invariants at 1e-9 before it reaches the caller.  The sharp
constructor reads its embedding off the solved global sections of the
exact (rationalized) induced models, so its pairing is checked against
those rationalized statistics, not the float ones; the heuristic search
checks against the GPT's float pairing.  A sharp refusal is an infeasible
global section, whose Farkas dual the section solver re-multiplied
against its incidence rows; the preparation-ensemble and
assignment-polytope checkers run entirely in exact rational arithmetic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exactlp import (
    Feasibility,
    SparseColumns,
    TooLargeError,
    columns_from_rows,
    format_fraction,
    require_certificate,
    solve_eq_nonneg,
    to_fraction,
)
from .quantum import (
    CONSTRUCTION_TOL,
    ID2,
    PAULIS,
    ProjectiveContext,
    bloch_state,
    dm,
    eigen_projector,
    sup_norm,
    validate_density,
)
from .scenario import (
    NonCommutingContext,
    SchemaError,
    make_model,
    make_scenario,
    rationalize_atoms,
)
from .sheaf import SectionFeasibility, solve_global_section

EMBED_TOL = 1e-9
MERGE_TOL = 1e-10
RANK_TOL = 1e-8
MAX_EMBED_DIM = 10
MAX_SEARCH_ITERATIONS = 12
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


@dataclass(frozen=True, eq=False)
class Gpt:
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
    contexts = tuple(tuple(int(i) for i in ctx) for ctx in sharp_contexts)
    for ctx in contexts:
        if len(set(ctx)) != len(ctx):
            raise GptError(f"sharp context {ctx} repeats an effect index")
        for i in ctx:
            if not 0 <= i < len(effects):
                raise GptError(f"sharp context {ctx} references unknown effect {i}")
    return Gpt(dim=dim, states=states, effects=effects, unit=unit,
               sharp_contexts=contexts)


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


def hermitian_to_vector(matrix) -> np.ndarray:
    """Embed a Hermitian matrix as a real vector whose dot is the trace pairing.

    Concatenating real and imaginary parts makes ``vec(A) . vec(B)`` equal
    ``Tr(A B)`` for Hermitian ``A`` and ``B``.
    """
    a = np.asarray(matrix, dtype=complex)
    return np.concatenate([a.real.ravel(), a.imag.ravel()])


def sharp_gpt_from_quantum(states, contexts, *, tol: float = 1e-10) -> Gpt:
    """GPT of density matrices against the atoms of commuting projective contexts.

    Each context is a list of `ProjectiveContext` measurements; its atoms are
    the nonzero products of one projector per measurement.  Atoms equal
    within ``tol`` are shared across contexts, which is what carries the
    compatibility structure into the GPT.
    """
    dms = []
    for s in states:
        arr = np.asarray(s, dtype=complex)
        if arr.ndim == 1 or (arr.ndim == 2 and 1 in arr.shape):
            arr = dm(arr)
        validate_density(arr)
        dms.append(arr)
    hdim = dms[0].shape[0]
    norm_contexts = []
    for ctx in contexts:
        if isinstance(ctx, ProjectiveContext):
            ctx = [ctx]
        norm_contexts.append(list(ctx))

    atoms: list[np.ndarray] = []

    def atom_index(candidate: np.ndarray) -> int:
        for k, existing in enumerate(atoms):
            if sup_norm(existing - candidate) <= tol:
                return k
        atoms.append(candidate)
        return len(atoms) - 1

    sharp_contexts = []
    for ctx in norm_contexts:
        for pc_a, pc_b in itertools.combinations(ctx, 2):
            for pa in pc_a.projectors:
                for pb in pc_b.projectors:
                    if sup_norm(pa @ pb - pb @ pa) > tol:
                        raise NonCommutingContext(
                            f"measurements {pc_a.label!r} and {pc_b.label!r} "
                            "do not commute")
        indices = []
        for combo in itertools.product(*[pc.projectors for pc in ctx]):
            prod = np.eye(hdim, dtype=complex)
            for p in combo:
                prod = prod @ p
            prod = (prod + prod.conj().T) / 2
            if sup_norm(prod) <= tol:
                continue
            indices.append(atom_index(prod))
        sharp_contexts.append(tuple(indices))

    effects = [hermitian_to_vector(a) for a in atoms]
    gpt_states = [hermitian_to_vector(r) for r in dms]
    unit = hermitian_to_vector(np.eye(hdim, dtype=complex))
    return make_gpt(gpt_states, effects, unit, sharp_contexts, tol=1e-9)


# ---------------------------------------------------------------------------
# Sharp embedding (read off the global sections of the induced models)


def induced_model(gpt: Gpt, state_index: int):
    """Exact dichotomic model of the sharp contexts on one state.

    Each flagged effect becomes a two-outcome measurement; within a context
    exactly one effect fires, so the tables are supported on one-hot outcome
    tuples with the atom probabilities as weights.  Sharp contexts with
    equal atom sets, such as two coarse-grainings that both refine the whole
    basis, give equal tables, so one copy of each is kept.

    The atom probabilities are made exact once, by `rationalize_atoms`:
    rounding alone when it already makes every distinct context sum to
    exactly 1, one box LP over the atoms otherwise.  Every table then sums
    to exactly 1 and the overlap marginals agree exactly, so
    `rationalize_model` passes the model through unchanged.
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
    exact = rationalize_atoms(probs, [[position[i] for i in ctx]
                                      for ctx in contexts])
    tables = {}
    for ctx in contexts:
        tables[tuple(f"E{i}" for i in ctx)] = {
            tuple(int(k == slot) for k in range(len(ctx))): exact[position[i]]
            for slot, i in enumerate(ctx)}
    measurements = [(f"E{i}", (0, 1)) for i in atom_indices]
    return make_model(make_scenario(measurements, list(tables)), tables)


@dataclass(frozen=True, eq=False)
class SimplexEmbedding:
    """Linear maps placing states in a simplex and effects in its dual cube.

    ``iota`` and ``kappa`` are d-by-dim matrices acting on state and effect
    vectors; probabilities are preserved as ``kappa(e) . iota(s)``.
    """

    d: int
    iota: np.ndarray
    kappa: np.ndarray

    def embed_state(self, state) -> np.ndarray:
        return self.iota @ np.asarray(state, dtype=float)

    def embed_effect(self, effect) -> np.ndarray:
        return self.kappa @ np.asarray(effect, dtype=float)


@dataclass(frozen=True)
class EmbeddingCheck:
    """Worst-case deviations of an embedding from the three invariants."""

    passed: bool
    worst_simplex: float
    worst_cube: float
    worst_pairing: float


def verify_embedding(embedding: SimplexEmbedding, gpt: Gpt,
                     table=None) -> EmbeddingCheck:
    """Independently re-check simplex membership, cube membership, pairing.

    Each invariant holds when its worst deviation is at most `EMBED_TOL`.

    The pairing of effect ``i`` and state ``j`` is compared with
    ``table[i][j]`` when an effects-by-states ``table`` is given, and with
    the GPT's own probability otherwise.
    """
    worst_simplex = 0.0
    worst_cube = 0.0
    worst_pairing = 0.0
    for s in gpt.states:
        img = embedding.embed_state(s)
        worst_simplex = max(worst_simplex,
                            float(-np.min(img)),
                            abs(float(np.sum(img)) - 1.0))
    for e in gpt.effects:
        img = embedding.embed_effect(e)
        worst_cube = max(worst_cube,
                         float(-np.min(img)),
                         float(np.max(img)) - 1.0)
    for i, e in enumerate(gpt.effects):
        ke = embedding.embed_effect(e)
        for j, s in enumerate(gpt.states):
            lhs = float(np.dot(ke, embedding.embed_state(s)))
            want = float(np.dot(e, s)) if table is None else float(table[i][j])
            worst_pairing = max(worst_pairing, abs(lhs - want))
    passed = (worst_simplex <= EMBED_TOL and worst_cube <= EMBED_TOL
              and worst_pairing <= EMBED_TOL)
    return EmbeddingCheck(passed, worst_simplex, worst_cube, worst_pairing)


@dataclass(frozen=True, eq=False)
class EmbedSharpResult:
    """Outcome of the sharp embedding construction.

    ``verdict`` is "embeddable", "refused" or "undecided".  Embeddable: the
    embedding, the kept assignments (0/1 atom vectors) and each state's
    weights on them.  Refused: the first state whose induced model has no
    global section, and that infeasible section.  Undecided: every state's
    section is feasible, and ``note`` says why no embedding was built.
    """

    verdict: str
    atom_indices: tuple
    embedding: SimplexEmbedding | None = None
    assignments: tuple = ()
    state_weights: tuple = ()
    refusal_state: int | None = None
    refusal_section: SectionFeasibility | None = None
    note: str | None = None

    @property
    def feasible(self) -> bool:
        return self.verdict == "embeddable"

    def certificate(self) -> dict:
        """The embedding, or the refusing section's; an undecided result has none."""
        if self.feasible:
            return {
                "kind": "simplex-embedding",
                "verdict": "embeddable",
                "d": self.embedding.d,
                "atoms": list(self.atom_indices),
                "assignments": [list(a) for a in self.assignments],
                "state_weights": [[format_fraction(w) for w in ws]
                                  for ws in self.state_weights],
            }
        return {"state": self.refusal_state,
                **self.refusal_section.certificate()}


def _atom_values(atom_indices, model) -> dict:
    """Exact "atom fired" probability of each atom in an induced model."""
    values = {}
    for atom in atom_indices:
        label = f"E{atom}"
        context = next(ctx for ctx in model.scenario.contexts if label in ctx)
        slot = context.index(label)
        # marginal of "atom fired"; any containing context gives the same value
        values[atom] = sum(v for o, v in model.tables[context].items()
                           if o[slot] == 1)
    return values


def embed_sharp(gpt: Gpt) -> EmbedSharpResult:
    """Simplex embedding of a sharp GPT, read off its solved global sections.

    A sharp GPT has a simplex embedding exactly when every state's induced
    model has a global section, so each state's `induced_model` is solved
    once, in order, and the first infeasible section is the refusal: its
    re-checked Farkas dual is the certificate.  `induced_model` raises
    `UnsharpEffectFlagged` when a sharp context misses a sum of 1 on a
    state, and the section solver raises `TooLargeError` above its column
    cap.

    When every section is feasible, the verdict is "undecided" with a note
    for an effect that is neither the unit nor in a sharp context.
    Otherwise each section's primal pairs global assignments of the
    measurements ``E{i}`` in atom order with their positive weights, so the
    assignments in any state's support are the 0/1 atom vectors that fire
    one atom per context.
    Boolean-row kappa and iota are assembled from those weights by
    pseudo-inverse and checked at `EMBED_TOL`: simplex and cube membership,
    and the pairing against the sections' exact atom probabilities.
    Per-state mixtures of linearly dependent states need not come from one
    linear map, and a primal that does not reproduce its statistics fails
    too, so a failed check is also "undecided" with a note.
    """
    if not gpt.sharp_contexts:
        raise UnsharpEffectFlagged("no sharp contexts declared")
    atom_set = {i for ctx in gpt.sharp_contexts for i in ctx}
    atom_indices = tuple(sorted(atom_set))
    solved = []
    for j in range(gpt.n_states):
        section = solve_global_section(induced_model(gpt, j))
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
    kept_assignments = tuple(sorted({t for s in solved for t, _ in s.primal},
                                    reverse=True))
    d = len(kept_assignments)

    # kappa: each kept assignment's Boolean row on the atoms and a 1 on the
    # unit, lifted to a linear map on effect vectors by pseudo-inverse.
    targets = np.hstack([np.array(kept_assignments, dtype=float),
                         np.ones((d, 1))])
    effect_mat = np.array([gpt.effects[i] for i in atom_indices] + [gpt.unit])
    kappa = targets @ np.linalg.pinv(effect_mat).T

    state_weights = tuple(tuple(dict(s.primal).get(t, Fraction(0))
                                for t in kept_assignments) for s in solved)
    iota = (np.array(state_weights, dtype=float).T
            @ np.linalg.pinv(np.array(gpt.states).T))

    embedding = SimplexEmbedding(d=d, iota=iota, kappa=kappa)
    atom_values = [_atom_values(atom_indices, s.model) for s in solved]
    table = [[values.get(i, 1) for values in atom_values]
             for i in range(gpt.n_effects)]
    check = verify_embedding(embedding, gpt, table)
    if not check.passed:
        return EmbedSharpResult("undecided", atom_indices, note=(
            "embedding assembly: the global sections' weights give no "
            f"embedding within {EMBED_TOL:g} (simplex "
            f"{check.worst_simplex:.1e}, cube {check.worst_cube:.1e}, "
            f"pairing {check.worst_pairing:.1e})"))
    return EmbedSharpResult("embeddable", atom_indices, embedding,
                            kept_assignments, state_weights)


# ---------------------------------------------------------------------------
# Heuristic embedding search (alternating LPs)


@dataclass(frozen=True, eq=False)
class EmbedSearchResult:
    """Outcome of the alternating-LP search at simplex size = GPT dimension."""

    verdict: str  # "embeddable" | "unknown"
    embedding: SimplexEmbedding | None
    restarts_used: int
    seed: int

    def certificate(self) -> dict:
        if self.embedding is None:
            return {"kind": "embedding-search", "verdict": "unknown",
                    "restarts": self.restarts_used, "seed": self.seed}
        return {"kind": "embedding-search", "verdict": "embeddable",
                "d": self.embedding.d,
                "iota": self.embedding.iota.tolist(),
                "kappa": self.embedding.kappa.tolist(),
                "restarts": self.restarts_used, "seed": self.seed}


def _kappa_step(gpt: Gpt, iota: np.ndarray):
    from scipy.optimize import linprog

    d, dim = iota.shape
    n_vars = d * dim + 1
    images = [iota @ s for s in gpt.states]
    a_ub = []
    b_ub = []
    for i, e in enumerate(gpt.effects):
        for j, s in enumerate(gpt.states):
            coeff = np.zeros(n_vars)
            for l in range(d):
                coeff[l * dim:(l + 1) * dim] = e * images[j][l]
            p = float(np.dot(e, s))
            coeff[-1] = -1.0
            a_ub.append(coeff.copy())
            b_ub.append(p)
            coeff2 = -coeff
            coeff2[-1] = -1.0
            a_ub.append(coeff2)
            b_ub.append(-p)
        for l in range(d):
            coeff = np.zeros(n_vars)
            coeff[l * dim:(l + 1) * dim] = -e
            a_ub.append(coeff)
            b_ub.append(0.0)
            coeff = np.zeros(n_vars)
            coeff[l * dim:(l + 1) * dim] = e
            a_ub.append(coeff)
            b_ub.append(1.0)
    c = np.zeros(n_vars)
    c[-1] = 1.0
    res = linprog(c=c, A_ub=np.array(a_ub), b_ub=np.array(b_ub),
                  bounds=[(None, None)] * (n_vars - 1) + [(0, None)],
                  method="highs")
    if not res.success:
        return None, np.inf
    return res.x[:-1].reshape(d, dim), float(res.x[-1])


def _iota_step(gpt: Gpt, kappa: np.ndarray):
    from scipy.optimize import linprog

    d, dim = kappa.shape
    n_vars = d * dim + 1
    keffs = [kappa @ e for e in gpt.effects]
    a_ub = []
    b_ub = []
    a_eq = []
    b_eq = []
    for j, s in enumerate(gpt.states):
        for i, e in enumerate(gpt.effects):
            coeff = np.zeros(n_vars)
            for l in range(d):
                coeff[l * dim:(l + 1) * dim] = s * keffs[i][l]
            p = float(np.dot(e, s))
            coeff[-1] = -1.0
            a_ub.append(coeff.copy())
            b_ub.append(p)
            coeff2 = -coeff
            coeff2[-1] = -1.0
            a_ub.append(coeff2)
            b_ub.append(-p)
        for l in range(d):
            coeff = np.zeros(n_vars)
            coeff[l * dim:(l + 1) * dim] = -s
            a_ub.append(coeff)
            b_ub.append(0.0)
        coeff = np.zeros(n_vars)
        for l in range(d):
            coeff[l * dim:(l + 1) * dim] = s
        a_eq.append(coeff)
        b_eq.append(1.0)
    c = np.zeros(n_vars)
    c[-1] = 1.0
    res = linprog(c=c, A_ub=np.array(a_ub), b_ub=np.array(b_ub),
                  A_eq=np.array(a_eq), b_eq=np.array(b_eq),
                  bounds=[(None, None)] * (n_vars - 1) + [(0, None)],
                  method="highs")
    if not res.success:
        return None, np.inf
    return res.x[:-1].reshape(d, dim), float(res.x[-1])


def embed_search(gpt: Gpt, *, seed: int = 0,
                 restarts: int = 64) -> EmbedSearchResult:
    """Heuristic search for an embedding into the simplex of size = GPT dim.

    Tries the identity maps first, then alternates linear programs (fix iota,
    solve kappa; fix kappa, solve iota) from ``restarts`` seeded random
    starts, each for at most `MAX_SEARCH_ITERATIONS` rounds.  Only
    invariant-verified embeddings are returned; anything else
    is the verdict "unknown" -- the heuristic can never certify
    non-embeddability.
    """
    if gpt.dim > MAX_EMBED_DIM:
        raise TooLargeError(
            f"embedding search supports dim <= {MAX_EMBED_DIM}, got {gpt.dim}")
    identity = SimplexEmbedding(d=gpt.dim, iota=np.eye(gpt.dim),
                                kappa=np.eye(gpt.dim))
    if verify_embedding(identity, gpt).passed:
        return EmbedSearchResult("embeddable", identity, 0, seed)
    rng = np.random.default_rng(seed)
    for restart in range(1, restarts + 1):
        iota = rng.normal(size=(gpt.dim, gpt.dim))
        previous = np.inf
        for _ in range(MAX_SEARCH_ITERATIONS):
            kappa, _ = _kappa_step(gpt, iota)
            if kappa is None:
                break
            iota_new, gap = _iota_step(gpt, kappa)
            if iota_new is None:
                break
            iota = iota_new
            candidate = SimplexEmbedding(d=gpt.dim, iota=iota, kappa=kappa)
            if gap <= 1e-10 and verify_embedding(candidate, gpt).passed:
                return EmbedSearchResult("embeddable", candidate, restart, seed)
            if gap >= previous - 1e-12:
                break
            previous = gap
    return EmbedSearchResult("unknown", None, restarts, seed)


# ---------------------------------------------------------------------------
# Preparation noncontextuality for qubit ensembles


@dataclass(frozen=True, eq=False)
class PrepEnsembleProblem:
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


@dataclass(frozen=True, eq=False)
class OntModel:
    """Finite ontological model: distributions per preparation, responses per effect."""

    ontic_labels: tuple
    mu: dict
    xi: dict


def verify_ont_model(model: OntModel, expectations, tol: float = EMBED_TOL) -> bool:
    """Check sum_lambda xi_e mu_p against each expected probability."""
    for (prep, effect), expected in expectations.items():
        mu = model.mu[prep]
        xi = model.xi[effect]
        value = float(sum(float(x) * float(m) for x, m in zip(xi, mu)))
        if abs(value - float(expected)) > tol:
            return False
    return True


@dataclass(frozen=True, eq=False)
class PrepNcCase:
    """One support pattern: which member of each orthogonal pair is dead."""

    dead: tuple
    feasible: bool
    solution: tuple | None
    farkas: tuple | None


@dataclass(frozen=True, eq=False)
class PrepNcResult:
    """Outcome of the exact case analysis over support patterns."""

    feasible: bool
    cases: tuple
    model: OntModel | None

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
    a single decomposition) is reported feasible.
    """
    _verify_decompositions(problem)
    cases = []
    feasible_any = False
    for choice in itertools.product(*problem.orthogonal_pairs):
        alive, rows, rhs = _pattern_system(problem, choice)
        a = columns_from_rows(rows)
        res = require_certificate(a, rhs, solve_eq_nonneg(a, rhs),
                                  "preparation pattern")
        if res.feasible:
            feasible_any = True
            cases.append(PrepNcCase(choice, True, res.x, None))
        else:
            cases.append(PrepNcCase(choice, False, None, res.farkas))
    model = None
    if feasible_any and len(problem.decompositions) == 1:
        model = _single_decomposition_model(problem)
    return PrepNcResult(feasible_any, tuple(cases), model)


def _single_decomposition_model(problem: PrepEnsembleProblem) -> OntModel:
    """Trivial exact model: one ontic state per component of the decomposition."""
    merged: dict[str, Fraction] = {}
    for weight, label in problem.decompositions[0]:
        merged[label] = merged.get(label, Fraction(0)) + Fraction(weight)
    labels = tuple(merged)
    mu = {"target": tuple(merged[l] for l in labels)}
    for k, label in enumerate(labels):
        mu[label] = tuple(Fraction(1) if i == k else Fraction(0)
                          for i in range(len(labels)))
    xi = {}
    for effect_label, state in problem.component_states.items():
        xi[effect_label] = tuple(
            float(np.real(np.trace(state @ problem.component_states[l])))
            for l in labels)
    return OntModel(ontic_labels=labels, mu=mu, xi=xi)


# ---------------------------------------------------------------------------
# Assignment-polytope route (no tomographic completeness assumed)


@dataclass(frozen=True, eq=False)
class AssignmentPolytope:
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
            values.append(Fraction(p).limit_denominator(max_den))
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


@dataclass(frozen=True, eq=False)
class PuseyResult:
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
    if declared_equivalences:
        a, rhs = _equivalence_system(labels, polytopes, declared_equivalences)
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
            frac = Fraction(p0).limit_denominator(max_den)
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
    try:
        dim = int(data["dim"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"malformed GPT dim {data['dim']!r}") from exc
    if dim != gpt.dim:
        raise SchemaError(f"declared dim {data['dim']} != vector length {gpt.dim}")
    return gpt
