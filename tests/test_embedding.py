"""Tests for GPT reconstruction, simplex embeddings, and preparation checks.

Verification strategy: sharp embeddings are re-checked exactly from their
printed certificate (0/1 responses firing one atom per context, simplex
weights, and weights times responses equal to the exact atom
probabilities), and the exact embedding LP's certificates are rebuilt
into an ontological model or re-multiplied by hand, with facet lists checked against brute force; refusal and infeasibility
certificates are re-multiplied against reconstructed constraint rows;
verdicts are cross-checked against the global-section solver and against
brute-force or hand-derived oracles on small instances.
"""

from __future__ import annotations

import inspect
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextuality import embedding, scenario
from contextuality.classify import (
    RunConfig,
    classify,
    classify_gpt,
    classify_prep_ensemble,
    report_to_json,
)
from contextuality.embedding import (
    GptError,
    InconsistentUnit,
    PrepEnsembleProblem,
    UnsharpEffectFlagged,
    cone_facets,
    embed_lp,
    embed_sharp,
    gpt_from_json,
    gpt_to_json,
    hermitian_to_vector,
    induced_model,
    make_gpt,
    prep_nc_check,
    pusey_incomplete_check,
    qubit_prep_ensemble,
    sharp_gpt_from_quantum,
    six_ensemble_statistics,
    _assignment_matrix,
    _bipartitions,
    _equivalence_system,
    _hull_pair_lp,
    _normalize_stats,
)
from contextuality.exactlp import (
    CertificateError,
    Feasibility,
    TooLargeError,
    check_solution,
    columns_from_rows,
    solve_eq_nonneg,
)
from contextuality.quantum import (
    PAULIS,
    dm,
    kcbs_vectors,
    matrix_to_json,
    projective_context,
    pvm_from_observable,
    random_density,
    sup_norm,
)
from contextuality.scenario import (
    ZERO_TOL,
    rationalize_atoms,
    rationalize_model,
)
from contextuality.sheaf import SectionFeasibility, solve_global_section
from oracles import (
    atom_values,
    brute_force_facets,
    cycle_margin,
    enumerate_vertices,
    gpt_from_data,
    random_unitary,
    reference_consistent_assignments,
    reference_hulls_intersect,
    reference_incidence_rows,
    reference_sharp_mixture,
    reference_solve_eq_nonneg,
    require,
    shared_atom_gpt,
)

RNG = np.random.default_rng(20240818)


def classical_bit_gpt():
    states = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    effects = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    return make_gpt(states, effects, np.array([1.0, 1.0]), sharp_contexts=[(0, 1)])


def kcbs_contexts():
    """Pentagon contexts, each completed to a three-outcome measurement."""
    vecs = kcbs_vectors()
    projs = [np.outer(v, v.conj()) for v in vecs]
    contexts = []
    for j in range(5):
        a, b = projs[j], projs[(j + 1) % 5]
        rest = np.eye(3) - a - b
        contexts.append([projective_context(f"C{j}", [a, b, rest])])
    return contexts


def kcbs_gpt(state=None):
    if state is None:
        psi = np.zeros(3)
        psi[0] = 1.0
        state = dm(psi)
    return sharp_gpt_from_quantum([state], kcbs_contexts())


# How far `induced_model` may move an atom: one box LP retried up to 2**9
# times its 1e-5 half-width, around centres rounded to denominators <= 10**6.
ATOM_BOUND = 2 ** 9 * Fraction(1, 10 ** 5) + Fraction(1, 2 * 10 ** 6)
# With no LP only the rounding moves an atom.
ROUNDING_BOUND = max(Fraction(ZERO_TOL), Fraction(1, 2 * 10 ** 6))


def exact_atom_table(gpt):
    """Effects-by-states table of the induced models' atom probabilities.

    Effect ``i`` on state ``j`` reads the one-hot entry of ``E{i}`` in
    `induced_model(gpt, j)`; effects outside the sharp contexts (the unit)
    read 1.
    """
    columns = []
    for j in range(gpt.n_states):
        fired = {}
        for ctx, table in induced_model(gpt, j).tables.items():
            for outcome, value in table.items():
                if sum(outcome) == 1:
                    fired[int(ctx[outcome.index(1)][1:])] = value
        columns.append([fired.get(i, Fraction(1)) for i in range(gpt.n_effects)])
    return [list(row) for row in zip(*columns)]


def require_sharp_certificate(res, gpt) -> None:
    """Re-check an embeddable `embed_sharp` result from its certificate, exactly.

    Every assignment is a 0/1 atom vector firing one atom per sharp
    context, every state's weights are nonnegative and sum to 1, and
    weights times responses (the bits on the atoms, 1 on the unit) equal
    `exact_atom_table` entry by entry.
    """
    require(res.feasible, f"verdict {res.verdict}: {res.note}")
    position = {atom: k for k, atom in enumerate(res.atom_indices)}
    for t in res.assignments:
        require(set(t) <= {0, 1}, f"assignment {t} is not 0/1")
        for ctx in gpt.sharp_contexts:
            require(sum(t[position[i]] for i in ctx) == 1,
                    f"assignment {t} does not fire one atom of {ctx}")
    require(res.certificate()["d"] == len(res.assignments), "d")
    table = exact_atom_table(gpt)
    require(len(res.state_weights) == gpt.n_states, "one weight row per state")
    for j, weights in enumerate(res.state_weights):
        require(len(weights) == len(res.assignments) and min(weights) >= 0
                and sum(weights) == 1, f"state {j}'s weights {weights}")
        for i in range(gpt.n_effects):
            paired = sum(w * (t[position[i]] if i in position else 1)
                         for w, t in zip(weights, res.assignments))
            require(paired == table[i][j], f"effect {i} on state {j}: "
                    f"{paired} != {table[i][j]}")


def pentagon_projectors():
    return [np.outer(v, v.conj()) for v in kcbs_vectors()]


def pentagon_documents(rho):
    """Quantum and sharp-GPT documents of the pentagon, contexts {A_j, A_j+1}."""
    projs = pentagon_projectors()
    eye = np.eye(3)
    measurements = [projective_context(f"A{j}", [p, eye - p])
                    for j, p in enumerate(projs)]
    contexts = [[measurements[j], measurements[(j + 1) % 5]] for j in range(5)]
    quantum = {"kind": "quantum", "state": matrix_to_json(rho),
               "contexts": [[{"label": m.label,
                              "projectors": [matrix_to_json(p)
                                             for p in m.projectors]}
                             for m in ctx] for ctx in contexts]}
    gpt = {"kind": "gpt",
           "gpt": gpt_to_json(sharp_gpt_from_quantum([rho], contexts))}
    return quantum, gpt


def pentagon_margin(rho) -> float:
    """The cycle oracle's margin for the pentagon's +-1 observables 2 P_j - 1."""
    obs = [2 * p - np.eye(3) for p in pentagon_projectors()]
    return cycle_margin([float(np.trace(rho @ obs[j] @ obs[(j + 1) % 5]).real)
                         for j in range(5)])


def pauli_tomography_table():
    projs = [p for name in ("X", "Y", "Z")
             for p in pvm_from_observable(PAULIS[name], name).projectors]
    return [[float(np.real(np.trace(p @ q))) for q in projs] for p in projs]


def random_coarse_grained_contexts(rng, hdim=3):
    """Commuting contexts from coarse-grainings of one random eigenbasis."""
    u = random_unitary(hdim, rng)
    basis = [np.outer(u[:, k], u[:, k].conj()) for k in range(hdim)]
    pc_fine = projective_context("fine", basis)
    pc_coarse = projective_context(
        "coarse", [basis[0], np.eye(hdim) - basis[0]])
    return [[pc_fine, pc_coarse]]


class TestMakeGpt:
    def test_basic_fields(self):
        gpt = classical_bit_gpt()
        assert gpt.dim == 2
        assert gpt.n_states == 2
        # the unit was appended as a third effect
        assert gpt.n_effects == 3
        assert gpt.probability(0, 0) == 1.0
        assert gpt.probability(0, 1) == 0.0

    def test_unit_not_normalized_rejected(self):
        with pytest.raises(InconsistentUnit):
            make_gpt([np.array([1.0, 0.0])], [np.array([1.0, 0.0])],
                     np.array([2.0, 0.0]))

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(GptError):
            make_gpt([np.array([1.0, 0.0])], [np.array([1.5, 0.0])],
                     np.array([1.0, 1.0]))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(GptError):
            make_gpt([np.array([1.0, 0.0, 0.0])], [np.array([1.0, 0.0])],
                     np.array([1.0, 1.0]))

    def test_unknown_sharp_index_rejected(self):
        with pytest.raises(GptError):
            make_gpt([np.array([1.0, 0.0])], [np.array([1.0, 0.0])],
                     np.array([1.0, 1.0]), sharp_contexts=[(0, 7)])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_entries_rejected(self, bad):
        state, effect, unit = [bad, 1.0], [1.0, 0.0], [0.0, 1.0]
        for args in (([state], [effect], unit), ([[0.0, 1.0]], [state], unit),
                     ([[0.0, 1.0]], [effect], [bad, 1.0])):
            with pytest.raises(GptError, match="finite"):
                make_gpt(*args)

    def test_duplicate_index_in_context_rejected(self):
        with pytest.raises(GptError):
            make_gpt([np.array([1.0, 0.0])], [np.array([1.0, 0.0])],
                     np.array([1.0, 1.0]), sharp_contexts=[(0, 0)])


class TestGptFromData:
    def test_classical_coin_dim_2(self):
        gpt = gpt_from_data([[1.0, 0.0], [0.0, 1.0]])
        assert gpt.dim == 2

    def test_qubit_tomography_dim_4(self):
        table = pauli_tomography_table()
        assert np.linalg.matrix_rank(np.array(table), tol=1e-8) == 4
        gpt = gpt_from_data(table)
        assert gpt.dim == 4

    def test_identical_columns_merge(self):
        gpt = gpt_from_data([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert gpt.n_states == 2

    def test_identical_rows_merge(self):
        gpt = gpt_from_data([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        # two distinct effects survive, plus the appended unit
        assert gpt.n_effects == 3

    def test_reconstruction_reproduces_table(self):
        table = np.array(pauli_tomography_table())
        gpt = gpt_from_data(table)
        rebuilt = gpt.table()
        assert rebuilt.shape[1] == table.shape[1]
        np.testing.assert_allclose(rebuilt[:table.shape[0]], table, atol=1e-9)

    def test_declared_unit_row_must_be_ones(self):
        with pytest.raises(InconsistentUnit):
            gpt_from_data([[1.0, 0.0], [0.5, 0.5]], unit_row=0)

    def test_declared_unit_row_used(self):
        gpt = gpt_from_data([[1.0, 1.0], [0.5, 0.5]], unit_row=0)
        for j in range(gpt.n_states):
            assert abs(float(np.dot(gpt.unit, gpt.states[j])) - 1.0) < 1e-9

    def test_out_of_range_rejected(self):
        with pytest.raises(GptError):
            gpt_from_data([[1.2, 0.0], [0.0, 1.0]])


class TestHermitianVector:
    def test_dot_equals_trace_pairing(self):
        for _ in range(20):
            a = random_density(3, RNG)
            b = random_density(3, RNG)
            vec_dot = float(np.dot(hermitian_to_vector(a),
                                   hermitian_to_vector(b)))
            trace = float(np.real(np.trace(a @ b)))
            assert abs(vec_dot - trace) < 1e-12


class TestSharpGptFromQuantum:
    def test_kcbs_atom_sharing(self):
        gpt = kcbs_gpt()
        # 5 rank-1 projectors plus 5 remainders
        atom_count = len({i for ctx in gpt.sharp_contexts for i in ctx})
        assert atom_count == 10
        # adjacent contexts share exactly one atom
        for j in range(5):
            shared = set(gpt.sharp_contexts[j]) & set(
                gpt.sharp_contexts[(j + 1) % 5])
            assert len(shared) == 1

    def test_probabilities_match_born_rule(self):
        psi = np.zeros(3)
        psi[0] = 1.0
        gpt = kcbs_gpt(dm(psi))
        vecs = kcbs_vectors()
        # the first atom of context j is the pentagon projector j
        first_atoms = [ctx[0] for ctx in gpt.sharp_contexts]
        for j, atom in enumerate(first_atoms[:5]):
            born = abs(np.vdot(vecs[j], psi))**2
            assert abs(gpt.probability(atom, 0) - born) < 1e-10

    def test_noncommuting_context_rejected(self):
        pz = pvm_from_observable(PAULIS["Z"], "Z")
        px = pvm_from_observable(PAULIS["X"], "X")
        with pytest.raises(ValueError, match="do not commute"):
            sharp_gpt_from_quantum([dm(np.array([1.0, 0.0]))], [[pz, px]])

    def test_zero_atoms_dropped(self):
        # orthogonal rank-1 measurements in one context: the (1, 1) atom vanishes
        vecs = kcbs_vectors()
        p0 = np.outer(vecs[0], vecs[0].conj())
        p1 = np.outer(vecs[1], vecs[1].conj())
        pc_a = projective_context("A", [p0, np.eye(3) - p0])
        pc_b = projective_context("B", [p1, np.eye(3) - p1])
        gpt = sharp_gpt_from_quantum([np.eye(3) / 3], [[pc_a, pc_b]])
        assert len(gpt.sharp_contexts[0]) == 3


class TestConsistentAssignments:
    """The backtracking oracle that the sharp route's cross-checks rest on."""

    def test_classical_bit(self):
        atoms, assignments = reference_consistent_assignments(
            classical_bit_gpt().sharp_contexts)
        assert atoms == (0, 1)
        assert sorted(assignments) == [(0, 1), (1, 0)]

    def test_kcbs_counts_pentagon_independent_sets(self):
        gpt = kcbs_gpt()
        _, assignments = reference_consistent_assignments(gpt.sharp_contexts)
        # one independent set of the pentagon per assignment: 1 + 5 + 5
        assert len(assignments) == 11

    def test_every_assignment_fires_once_per_context(self):
        gpt = kcbs_gpt()
        atoms, assignments = reference_consistent_assignments(gpt.sharp_contexts)
        position = {i: k for k, i in enumerate(atoms)}
        for a in assignments:
            for ctx in gpt.sharp_contexts:
                assert sum(a[position[i]] for i in ctx) == 1


class TestEmbedSharp:
    def test_classical_bit_identity(self):
        gpt = classical_bit_gpt()
        res = embed_sharp(gpt)
        require_sharp_certificate(res, gpt)
        one, zero = Fraction(1), Fraction(0)
        assert res.assignments == ((1, 0), (0, 1))
        assert res.state_weights == ((one, zero), (zero, one))

    def test_kcbs_pure_state_refused(self):
        res = embed_sharp(kcbs_gpt())
        assert not res.feasible
        assert res.verdict == "refused"
        assert res.refusal_state == 0
        cert = res.certificate()
        assert (cert["kind"], cert["verdict"], cert["state"]) == (
            "global-section", "infeasible", 0)
        assert len(cert["dual"]) == len(cert["rhs"])

    def test_kcbs_maximally_mixed_embeds(self):
        gpt = kcbs_gpt(np.eye(3) / 3)
        require_sharp_certificate(embed_sharp(gpt), gpt)

    def test_dimension_equals_primal_support(self):
        basis = [np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0]),
                 np.diag([0.0, 0.0, 1.0])]
        pc = projective_context("Z3", basis)
        state = np.diag([0.5, 0.5, 0.0])
        gpt = sharp_gpt_from_quantum([state], [[pc]])
        res = embed_sharp(gpt)
        require_sharp_certificate(res, gpt)
        assert len(res.assignments) == res.certificate()["d"] == 2

    def test_kappa_rows_boolean(self):
        # kappa's rows are the printed responses: 0/1 on the atoms, one
        # firing atom per context.
        gpt = kcbs_gpt(np.eye(3) / 3)
        res = embed_sharp(gpt)
        position = {atom: k for k, atom in enumerate(res.atom_indices)}
        assert res.assignments
        for t in res.assignments:
            assert set(t) <= {0, 1}
            assert all(sum(t[position[i]] for i in ctx) == 1
                       for ctx in gpt.sharp_contexts)

    def test_verdict_matches_global_section(self):
        # The embedding is read off the global section; the oracle decides
        # the same question by the per-state mixture LP over the
        # backtracked assignments.
        rng = np.random.default_rng(11)
        for _ in range(8):
            contexts = random_coarse_grained_contexts(rng)
            state = random_density(3, rng)
            gpt = sharp_gpt_from_quantum([state], contexts)
            res = embed_sharp(gpt)
            oracle = reference_sharp_mixture(
                gpt.sharp_contexts, atom_values(induced_model(gpt, 0)))
            assert res.feasible == oracle.feasible

    def test_refusal_farkas_rechecked(self):
        gpt = kcbs_gpt()
        res = embed_sharp(gpt)
        model = induced_model(gpt, res.refusal_state)
        sc = model.scenario
        rows = reference_incidence_rows(sc)
        rhs = [model.tables[ctx][sec] for ctx in sc.contexts
               for sec in itertools.product(*(sc.outcomes[m] for m in ctx))]
        y = res.refusal_section.dual
        assert len(y) == len(rows)
        for col in zip(*rows):
            assert sum(yi * a for yi, a in zip(y, col)) <= 0
        assert sum(yi * v for yi, v in zip(y, rhs)) > 0

    def test_each_state_section_solved_once(self, monkeypatch):
        states = [np.eye(3) / 3, np.diag([0.5, 0.25, 0.25])]
        gpt = sharp_gpt_from_quantum(states, kcbs_contexts())
        solved = []
        solve = embedding.solve_global_section
        monkeypatch.setattr(embedding, "solve_global_section",
                            lambda model: solved.append(model) or solve(model))
        res = embed_sharp(gpt)
        require_sharp_certificate(res, gpt)
        assert len(solved) == 2
        solved.clear()
        res = embed_sharp(sharp_gpt_from_quantum([dm([1, 0, 0])] + states,
                                                 kcbs_contexts()))
        assert (res.verdict, res.refusal_state, len(solved)) == ("refused", 0, 1)

    def test_multi_state_embedding(self):
        # The embedding reproduces the rationalized statistics the LPs
        # solved, and those stay within ATOM_BOUND of the float GPT.
        states = [np.eye(3) / 3, np.diag([0.5, 0.25, 0.25])]
        gpt = sharp_gpt_from_quantum(states, kcbs_contexts())
        res = embed_sharp(gpt)
        require_sharp_certificate(res, gpt)
        exact = exact_atom_table(gpt)
        floats = gpt.table()
        assert all(abs(Fraction(floats[i][j]) - exact[i][j]) <= ATOM_BOUND
                   for i in range(gpt.n_effects) for j in range(gpt.n_states))

    def test_linearly_dependent_states_are_unverified(self):
        # The third state is the equal mixture of the first two, but each
        # state's mixture is solved on its own, so the weights fail the
        # state span test: the assembly reports, it does not raise a
        # certificate error.
        states = [np.eye(3) / 3, np.diag([0.5, 0.25, 0.25])]
        states.append((states[0] + states[1]) / 2)
        gpt = sharp_gpt_from_quantum(states, kcbs_contexts())
        res = embed_sharp(gpt)
        assert (res.verdict, res.feasible, res.assignments) == ("undecided", False, ())
        assert res.note == ("embedding assembly: the global sections' weights "
                            "are not linear in the states")
        report = classify_gpt(gpt)
        assert (report.ks_noncontextual, report.spekkens_noncontextual) == (
            "yes", "undecided")
        assert any("embedding assembly" in note for note in report.notes)

    def test_responses_must_keep_the_atoms_linear_relations(self):
        # Atoms 0 and 2 are one vector, so are atoms 1 and 3.  On (1/2, 1/2)
        # the greedy decomposition fires the equal atoms together, (1,0,1,0)
        # and (0,1,0,1), which keeps the atoms' relations; on (1, 0) both
        # equal atoms fire, and the response is linear.  Sections that fire
        # atom 0 with atom 3 would break it: `TestSharpEmbeddingAssembly`
        # covers that exit on dependent states.
        effects = [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]
        mixed = make_gpt([[0.5, 0.5]], effects, [1.0, 1.0],
                         sharp_contexts=[(0, 1), (2, 3)])
        res = embed_sharp(mixed)
        require_sharp_certificate(res, mixed)
        assert (res.verdict, res.assignments) == (
            "embeddable", ((1, 0, 1, 0), (0, 1, 0, 1)))
        pure = make_gpt([[1.0, 0.0]], effects, [1.0, 1.0],
                        sharp_contexts=[(0, 1), (2, 3)])
        res = embed_sharp(pure)
        require_sharp_certificate(res, pure)
        assert res.assignments == ((1, 0, 1, 0),)

    def test_no_sharp_contexts_rejected(self):
        gpt = make_gpt([np.array([1.0, 0.0])], [np.array([1.0, 0.0])],
                       np.array([1.0, 1.0]))
        with pytest.raises(UnsharpEffectFlagged):
            embed_sharp(gpt)

    def test_context_not_resolving_unit_rejected(self):
        states = [np.array([1.0, 0.0])]
        effects = [np.array([0.5, 0.0]), np.array([0.0, 0.5])]
        gpt = make_gpt(states, effects, np.array([1.0, 1.0]),
                       sharp_contexts=[(0, 1)])
        with pytest.raises(UnsharpEffectFlagged):
            embed_sharp(gpt)

    def test_uncovered_effect_is_undecided(self, monkeypatch):
        states = [np.array([1.0, 0.0]), np.array([0.5, 0.5])]
        effects = [np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                   np.array([0.25, 0.25])]
        gpt = make_gpt(states, effects, np.array([1.0, 1.0]),
                       sharp_contexts=[(0, 1)])
        solved = []
        solve = embedding.solve_global_section
        monkeypatch.setattr(embedding, "solve_global_section",
                            lambda model: solved.append(model) or solve(model))
        res = embed_sharp(gpt)
        # the sections are solved first: a refusal would still be reported
        assert len(solved) == 2
        assert (res.verdict, res.assignments, res.refusal_section) == (
            "undecided", (), None)
        assert res.note == ("effect 2 is neither the unit nor covered by a "
                            "sharp context")
        report = classify_gpt(gpt)
        assert (report.ks_noncontextual, report.spekkens_noncontextual) == (
            "yes", "undecided")
        assert f"embedding constructor unavailable: {res.note}" in report.notes

    def test_undecided_result_has_no_certificate(self):
        gpt = make_gpt([[1.0, 0.0]], [[1.0, 0.0], [0.5, 0.0]], [1.0, 0.0],
                       sharp_contexts=[[0]])
        res = embed_sharp(gpt)
        assert (res.verdict, res.certificate()) == ("undecided", None)


class TestExactInducedModel:
    """`induced_model` is exact: one rounding, one pinned atom per context, or one box LP.

    Checks raise through `oracles.require` rather than bare asserts, so
    the class also tests something under ``python -O``.
    """

    @staticmethod
    def gpts():
        rng = np.random.default_rng(29)
        w = np.cross(kcbs_vectors()[0], rng.normal(size=3))
        yield "maximally mixed", kcbs_gpt(np.eye(3) / 3)
        yield "random state", kcbs_gpt(random_density(3, rng))
        yield "orthogonal to a ray", kcbs_gpt(dm(w / np.linalg.norm(w)))
        yield "coarse-grained", sharp_gpt_from_quantum(
            [random_density(3, rng)], random_coarse_grained_contexts(rng))
        yield "two states", sharp_gpt_from_quantum(
            [np.eye(3) / 3, np.diag([0.5, 0.25, 0.25])], kcbs_contexts())
        yield "shared atoms", shared_atom_gpt(random_density(4, rng))

    def test_rational_and_every_context_sums_to_one(self):
        for name, gpt in self.gpts():
            distinct = {tuple(sorted(ctx)) for ctx in gpt.sharp_contexts}
            for j in range(gpt.n_states):
                model = induced_model(gpt, j)
                require(model.is_rational, f"{name}: model is not rational")
                require(len(model.tables) == len(distinct),
                        f"{name}: {len(model.tables)} tables for "
                        f"{len(distinct)} distinct contexts")
                for ctx, table in model.tables.items():
                    require(sum(table.values()) == 1,
                            f"{name}: context {ctx} sums to "
                            f"{sum(table.values())}")

    def test_rationalize_model_passes_it_through(self):
        for name, gpt in self.gpts():
            model = induced_model(gpt, 0)
            require(rationalize_model(model) is model,
                    f"{name}: rationalize_model rebuilt the induced model")

    def test_atoms_stay_near_their_float_probabilities(self):
        for name, gpt in self.gpts():
            exact = exact_atom_table(gpt)
            atoms = {i for ctx in gpt.sharp_contexts for i in ctx}
            for i in atoms:
                for j in range(gpt.n_states):
                    f = max(0.0, gpt.probability(i, j))
                    moved = abs(Fraction(f) - exact[i][j])
                    require(moved <= ATOM_BOUND,
                            f"{name}: atom {i} moved by {float(moved)}")
                    if f <= ZERO_TOL:
                        require(exact[i][j] == 0,
                                f"{name}: atom {i} at {f} is {exact[i][j]}")
        gpt = kcbs_gpt(np.eye(3) / 3)
        exact = exact_atom_table(gpt)
        for i in {i for ctx in gpt.sharp_contexts for i in ctx}:
            moved = abs(Fraction(gpt.probability(i, 0)) - exact[i][0])
            require(moved <= ROUNDING_BOUND,
                    f"rounding moved atom {i} by {float(moved)}")

    def test_box_lps_per_state(self, monkeypatch):
        calls = []
        solve = scenario._solve_box

        def counted(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(scenario, "_solve_box", counted)
        classify_gpt(kcbs_gpt(np.eye(3) / 3))
        require(len(calls) == 0,
                f"maximally mixed state ran {len(calls)} box LPs")
        # Each pentagon context's atom 1 - P_j - P_j+1 is its own, so it
        # absorbs the context's rounding and no LP runs.
        rng = np.random.default_rng(3)
        classify_gpt(kcbs_gpt(random_density(3, rng)))
        require(len(calls) == 0, f"random state ran {len(calls)} box LPs")
        induced_model(shared_atom_gpt(random_density(4, rng)), 0)
        require(len(calls) == 1,
                f"a context without its own atom ran {len(calls)} box LPs")

    def test_pinned_atoms_stay_on_the_grid(self, monkeypatch):
        # Without an LP, the shared atoms P_j are rounded to the 10**-6
        # grid, and each context's own atom 1 - P_j - P_j+1 takes what is
        # left: within 3 grid steps, as the context holds three atoms.
        monkeypatch.setattr(scenario, "_solve_box",
                            lambda *args: pytest.fail("box LP ran"))
        gpt = kcbs_gpt(random_density(3, np.random.default_rng(3)))
        exact = exact_atom_table(gpt)
        held = [i for ctx in gpt.sharp_contexts for i in ctx]
        for i in set(held):
            moved = abs(Fraction(gpt.probability(i, 0)) - exact[i][0])
            bound = (Fraction(3, 10 ** 6) if held.count(i) == 1
                     else Fraction(1, 2 * 10 ** 6))
            require(moved <= bound, f"atom {i} moved by {float(moved)}")
            require(10 ** 6 % exact[i][0].denominator == 0,
                    f"atom {i} is {exact[i][0]}")

    @pytest.mark.parametrize("values", [
        # Atoms 0-2 round up by 0.45 grid steps each, so the own atoms at
        # 0.35 steps would come out at -1 step.
        [0.20000055, 0.30000055, 0.49999855, 3.5e-7, 3.5e-7],
        # Atoms 0-2 round down, and the own atoms are zero, so no atom may
        # take up the missing step.
        [0.2000003, 0.3000003, 0.4999994, 0.0, 0.0],
    ], ids=["negative", "zero"])
    def test_unpinnable_contexts_take_the_lp(self, monkeypatch, values):
        calls = []
        solve = scenario._solve_box
        monkeypatch.setattr(scenario, "_solve_box",
                            lambda *args: calls.append(args) or solve(*args))
        contexts = [[0, 1, 2, 3], [0, 1, 2, 4]]
        exact = rationalize_atoms(values, contexts)
        require(len(calls) == 1, f"{len(calls)} box LPs, expected the LP path")
        for ctx in contexts:
            require(sum(exact[k] for k in ctx) == 1, f"context {ctx} is not exact")
        for f, x in zip(values, exact):
            require(x >= 0 and (f > ZERO_TOL or x == 0), f"{f} became {x}")

    def test_lp_path_keeps_small_denominators(self, monkeypatch):
        # The box LP is centred on the 1/10**6 grid, so the vertex it
        # returns keeps denominators near 10**6.
        calls = []
        solve = scenario._solve_box
        monkeypatch.setattr(scenario, "_solve_box",
                            lambda *args: calls.append(args) or solve(*args))
        gpt = shared_atom_gpt(random_density(4, np.random.default_rng(3)))
        values = atom_values(induced_model(gpt, 0))
        require(len(calls) == 1, f"{len(calls)} box LPs, expected the LP path")
        worst = max(v.denominator for v in values.values())
        require(worst <= 2 * 10 ** 6, f"atom denominator {worst}")

    def test_random_pentagon_states_match_the_cycle_oracle(self):
        # Half random mixed states (mostly noncontextual), half near the
        # KCBS state (mostly contextual).  A margin within 1e-3 of the
        # bound is skipped: rationalization moves the statistics by about
        # 1e-5, which may put such a state on the other side of the facet.
        rng = np.random.default_rng(61)
        verdicts = {"yes": 0, "no": 0}
        while sum(verdicts.values()) < 60:
            if sum(verdicts.values()) % 2:
                psi = np.array([1, 0, 0]) + 0.3 * (rng.normal(size=3)
                                                   + 1j * rng.normal(size=3))
                rho = dm(psi / np.linalg.norm(psi))
            else:
                rho = random_density(3, rng)
            margin = pentagon_margin(rho)
            if abs(margin) < 1e-3:
                continue
            expected = "no" if margin > 0 else "yes"
            verdicts[expected] += 1
            for doc in pentagon_documents(rho):
                report = classify(doc, RunConfig())
                got = (report.ks_noncontextual, report.spekkens_noncontextual)
                require(got == (expected, expected),
                        f"{doc['kind']} document with margin {margin}: {got}")
        require(min(verdicts.values()) >= 10, f"one-sided draw {verdicts}")


class TestTamperedSection:
    """A section whose primal changed after its re-check yields no embedding.

    `embed_sharp` re-checks each section's primal against that section's
    exact statistics before it prints the weights; a failure is an explicit
    "undecided" result, so this class also runs under ``python -O``.
    Checks raise through `oracles.require`.
    """

    def test_tampered_primal_is_undecided(self, monkeypatch):
        gpt = classical_bit_gpt()
        honest = [solve_global_section(induced_model(gpt, j)) for j in range(2)]
        # state 0 fires atom 0; give it state 1's weights, which fire atom 1
        first = honest[0]
        forged = SectionFeasibility(first.feasible, honest[1].primal, first.dual,
                                    first.matrix, first.model)
        tampered = iter([forged, honest[1]])
        monkeypatch.setattr(embedding, "solve_global_section",
                            lambda model: next(tampered))
        res = embed_sharp(gpt)
        require(res.verdict == "undecided" and not res.assignments,
                f"tampered section gave verdict {res.verdict}")
        require(res.note.startswith("embedding assembly"), f"note {res.note!r}")


def classical_triangle(rng) -> dict:
    """A classical 3-outcome theory seen through a random linear frame.

    Drawn as the benchmark's classical GPT documents are: states are points
    of a triangle and effects its facet indicators, so a simplex embedding
    exists, and no sharp contexts are declared.
    """
    while True:
        t = rng.normal(size=(3, 3))
        if abs(np.linalg.det(t)) > 0.5:
            break
    t_inv_t = np.linalg.inv(t).T
    states = [[float(v) for v in t @ rng.dirichlet(np.ones(3))] for _ in range(4)]
    effects = [[float(v) for v in t_inv_t @ e] for e in np.eye(3)]
    unit = [float(v) for v in t_inv_t @ np.ones(3)]
    return {"dim": 3, "states": states, "effects": effects, "unit": unit}


def hexagon_rebit(visibility=1.0):
    """Six rebit states at 60 degree steps (Bloch length ``visibility``) and
    the six pure effects along them (Mazurek et al., Nat. Commun. 7, 11780,
    2016)."""
    half = 3 ** 0.5 / 2
    dirs = [(1.0, 0.0), (0.5, half), (-0.5, half), (-1.0, 0.0), (-0.5, -half),
            (0.5, -half)]
    return make_gpt([(1.0, visibility * x, visibility * y) for x, y in dirs],
                    [(0.5, x / 2, y / 2) for x, y in dirs], (1.0, 0.0, 0.0))


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def fragment_generators(res):
    """The state cone's and the effect cone's generators of a decided result."""
    unit = tuple(int(k == 0) for k in range(len(res.states[0])))
    effects = [unit, *res.effects,
               *(tuple(u - x for u, x in zip(unit, e)) for e in res.effects)]
    return list(res.states), [e for e in effects if any(e)], unit


def require_ontic_model(res) -> None:
    """Rebuild the ontological model of an embeddable result and check it.

    Each ``(a, b, w)`` of sigma is an ontic state: weight
    ``w (h_a.unit) (h_b.s)`` in state s and response ``(h_a.e) / (h_a.unit)``
    to effect e.  Weights must be nonnegative and sum to 1, responses must
    lie in [0, 1], and the model must reproduce every exact fragment
    probability.  Plain arithmetic, independent of the LP kernel's re-check.
    """
    states, effects, unit = fragment_generators(res)
    h_e, h_s = res.effect_facets, res.state_facets
    require(res.verdict == "embeddable" and res.sigma, f"verdict {res.verdict}")
    for a, b, w in res.sigma:
        require(w > 0, f"sigma entry {w}")
        require(all(dot(h_s[b], s) >= 0 for s in states), "negative weight")
        require(all(0 <= dot(h_e[a], e) <= dot(h_e[a], unit) for e in effects),
                "response outside [0, 1]")
    for s in states:
        require(sum(w * dot(h_e[a], unit) * dot(h_s[b], s)
                    for a, b, w in res.sigma) == 1, "weights do not sum to 1")
        for e in effects:
            require(sum(w * dot(h_e[a], e) * dot(h_s[b], s)
                        for a, b, w in res.sigma) == dot(e, s),
                    "the ontic model misses a probability")


def require_refusal(res) -> None:
    """Re-check a refusal: the Farkas matrix, and complete facet lists.

    Completeness is checked against `brute_force_facets`, which shares no
    code with the double-description method.
    """
    states, effects, _ = fragment_generators(res)
    require(res.verdict == "refused", f"verdict {res.verdict}")
    require(res.state_facets == brute_force_facets(states), "state facets")
    require(res.effect_facets == brute_force_facets(effects), "effect facets")
    y = res.farkas
    require(sum(y[p][p] for p in range(len(y))) > 0, "trace(Y) <= 0")
    for a in res.effect_facets:
        for b in res.state_facets:
            require(dot(a, [dot(row, b) for row in y]) <= 0,
                    f"h_a^T Y h_b > 0 at {a}, {b}")


class TestExactEmbedding:
    """`embed_lp`: one exact LP decides embeddability without sharp contexts."""

    def test_simplex_identity(self):
        states = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]),
                  np.array([0.2, 0.3, 0.5])]
        effects = [np.eye(3)[i] for i in range(3)]
        res = embed_lp(make_gpt(states, effects, np.ones(3)))
        require_ontic_model(res)
        require(len(res.state_facets) == len(res.effect_facets) == 3,
                "a triangle's cones have three facets")

    def test_noisy_classical_embeds(self):
        shrink = 0.7
        states = [shrink * np.eye(3)[i] + (1 - shrink) / 3 * np.ones(3)
                  for i in range(3)]
        effects = [np.eye(3)[i] for i in range(3)]
        require_ontic_model(embed_lp(make_gpt(states, effects, np.ones(3))))

    def test_rotated_bit_embeds(self):
        t = np.array([[2.0, 1.0], [1.0, 1.0]])
        tinv = np.linalg.inv(t)
        states = [tinv @ np.array([1.0, 0.0]), tinv @ np.array([0.0, 1.0]),
                  tinv @ np.array([0.5, 0.5])]
        effects = [t.T @ np.eye(2)[i] for i in range(2)]
        require_ontic_model(embed_lp(make_gpt(states, effects, t.T @ np.ones(2))))

    def test_pauli_table_qubit_embeds(self):
        # The stabilizer qubit's Pauli eigenstates and effects: Spekkens's
        # toy bit, which has a noncontextual model.
        gpt = gpt_from_data(pauli_tomography_table())
        res = embed_lp(gpt)
        require_ontic_model(res)
        exact = [[float(dot(e, s)) for s in res.states] for e in res.effects]
        np.testing.assert_allclose(exact, gpt.table(), atol=1e-9)

    def test_bench_triangles_embed(self):
        rng = np.random.default_rng(5)
        for _ in range(6):
            doc = {"kind": "gpt", "gpt": classical_triangle(rng)}
            report = classify(doc, RunConfig())
            require(report.spekkens_noncontextual == "yes"
                    and report.ks_noncontextual == "undecided",
                    f"triangle verdicts {report}")
            require([c["kind"] for c in report.certificates]
                    == ["simplex-embedding-lp"], "certificate kind")
        rng = np.random.default_rng(20241018)
        for _ in range(200):
            gpt = gpt_from_json(classical_triangle(rng))
            res = embed_lp(gpt)
            require_ontic_model(res)
            exact = [[float(dot(e, s)) for s in res.states] for e in res.effects]
            np.testing.assert_allclose(exact, gpt.table(), atol=1e-6)

    def test_pure_hexagon_refused(self):
        res = embed_lp(hexagon_rebit())
        require_refusal(res)
        report = classify_gpt(hexagon_rebit())
        require((report.ks_noncontextual, report.spekkens_noncontextual,
                 report.hierarchy_level)
                == ("undecided", "no", "spekkens-contextual"), f"{report}")

    def test_half_visibility_hexagon_embeds(self):
        require_ontic_model(embed_lp(hexagon_rebit(0.5)))

    def test_unrationalizable_gpt_is_undecided(self):
        # A pure pentagon rebit: irrational directions leave its zero
        # probabilities slightly negative once the coefficients are rounded.
        angles = [2 * np.pi * k / 5 for k in range(5)]
        gpt = make_gpt([(1.0, np.cos(a), np.sin(a)) for a in angles],
                       [(0.5, -np.cos(a) / 2, -np.sin(a) / 2) for a in angles],
                       (1.0, 0.0, 0.0))
        res = embed_lp(gpt)
        require(res.verdict == "undecided"
                and res.note.startswith("rationalization: "), f"{res}")
        report = classify_gpt(gpt)
        require(report.spekkens_noncontextual == "undecided"
                and report.certificates == (), f"{report}")
        require(any(n.startswith("embedding LP unavailable: rationalization")
                    for n in report.notes), f"{report.notes}")

    def test_column_cap(self):
        # 70 states and 70 effects on circles: 70 x 70 facet pairs.
        angles = [2 * np.pi * k / 70 for k in range(70)]
        gpt = make_gpt([(1.0, np.cos(a) / 2, np.sin(a) / 2) for a in angles],
                       [(0.5, np.cos(a) / 2, np.sin(a) / 2) for a in angles],
                       (1.0, 0.0, 0.0))
        with pytest.raises(TooLargeError):
            embed_lp(gpt)
        report = classify_gpt(gpt)
        require(report.spekkens_noncontextual == "undecided", f"{report}")
        require(any(n.startswith("embedding LP skipped") for n in report.notes),
                f"{report.notes}")

    def test_certificate_is_deterministic(self):
        doc = {"kind": "gpt", "gpt": gpt_to_json(hexagon_rebit())}
        a, b = (json.dumps(report_to_json(classify(doc, RunConfig())),
                           sort_keys=True) for _ in range(2))
        require(a == b, "two runs differ")


@st.composite
def cone_generators(draw):
    """3-8 small integer generators in dimension 2-4, with repeats, sums of
    earlier generators, zero vectors, several on one plane, or all of them
    in a proper subspace."""
    d = draw(st.integers(2, 4))
    n = draw(st.integers(3, 8))
    entry = st.integers(-3, 3)
    mode = draw(st.sampled_from(["free", "redundant", "coplanar", "deficient"]))
    gens = []
    for _ in range(n):
        if mode == "redundant" and len(gens) >= 2 and draw(st.booleans()):
            i, j = draw(st.integers(0, len(gens) - 1)), draw(st.integers(0, len(gens) - 1))
            gens.append(tuple(a + b for a, b in zip(gens[i], gens[j])))
        else:
            g = [draw(entry) for _ in range(d)]
            if mode == "deficient" or (mode == "coplanar" and draw(st.booleans())):
                g[-1] = g[0]
            gens.append(tuple(g))
    return gens


class TestConeFacets:
    @settings(max_examples=300, deadline=None)
    @given(gens=cone_generators())
    def test_double_description_matches_brute_force(self, gens):
        assert cone_facets(gens) == brute_force_facets(gens)

    def test_degenerate_pair_is_not_adjacent(self):
        # Two rays here share r - 2 tight generators without being adjacent,
        # so the count of common tight generators alone would admit them.
        gens = [(-2, 3, -1, -2), (-1, -3, -2, -1), (2, 3, -2, -1), (1, -3, -2, 3),
                (2, 3, 1, 0), (-1, 3, 2, -3), (-2, -2, -3, 2), (-2, 1, 0, -2)]
        assert cone_facets(gens) == brute_force_facets(gens)

    def test_cube_and_ray_limit(self):
        cube = [(1, *signs) for signs in itertools.product((-1, 1), repeat=3)]
        assert cone_facets(cube) == brute_force_facets(cube)
        assert len(cone_facets(cube)) == 6
        with pytest.raises(TooLargeError):
            cone_facets(cube, limit=5)


class TestForgedEmbeddingLp:
    """Forged embedding-LP certificates raise `CertificateError`.

    Written with raises only, so the class also checks under ``python -O``.
    """

    def test_tampered_sigma(self, monkeypatch):
        honest = embedding.solve_eq_nonneg

        def tampered(a, b):
            x = list(honest(a, b).x)
            j = next(j for j, w in enumerate(x) if w)
            x[j] += 1
            return Feasibility(True, x=tuple(x))

        monkeypatch.setattr(embedding, "solve_eq_nonneg", tampered)
        with pytest.raises(CertificateError, match="embedding LP primal"):
            embed_lp(gpt_from_json(classical_triangle(np.random.default_rng(5))))

    def test_tampered_farkas(self, monkeypatch):
        honest = embedding.solve_eq_nonneg

        def tampered(a, b):
            return Feasibility(False, farkas=tuple(-v for v in honest(a, b).farkas))

        monkeypatch.setattr(embedding, "solve_eq_nonneg", tampered)
        with pytest.raises(CertificateError, match="embedding LP dual"):
            embed_lp(hexagon_rebit())

    def test_flipped_facet(self, monkeypatch):
        honest = embedding.cone_facets

        def flip_first(gens, limit=None):
            facets = honest(gens, limit)
            return (tuple(-v for v in facets[0]),) + facets[1:]

        monkeypatch.setattr(embedding, "cone_facets", flip_first)
        with pytest.raises(CertificateError, match="negative on a generator"):
            embed_lp(gpt_from_json(classical_triangle(np.random.default_rng(5))))

    def test_dropped_facet(self, monkeypatch):
        honest = embedding.cone_facets
        calls = []

        def drop_first(gens, limit=None):
            calls.append(gens)
            facets = honest(gens, limit)
            return facets[1:] if len(calls) == 1 else facets

        monkeypatch.setattr(embedding, "cone_facets", drop_first)
        with pytest.raises(CertificateError, match="state-cone facet list is "
                                                   "incomplete"):
            embed_lp(hexagon_rebit())


class TestQubitPrepEnsemble:
    @pytest.mark.parametrize("r", ["0", "1/4", "-1/2", "3/4"])
    def test_decompositions_reproduce_target(self, r):
        problem = qubit_prep_ensemble(Fraction(r))
        for decomposition in problem.decompositions:
            total = sum(float(w) * problem.component_states[label]
                        for w, label in decomposition)
            assert sup_norm(total - problem.target) < 1e-10

    def test_equatorial_triple_at_120_degrees(self):
        problem = qubit_prep_ensemble(Fraction(1, 2))

        def bloch_vector(state):
            return np.array([float(np.real(np.trace(state @ PAULIS[p])))
                             for p in ("X", "Y", "Z")])

        va = bloch_vector(problem.component_states["psi_a"])
        vb = bloch_vector(problem.component_states["psi_b"])
        vc = bloch_vector(problem.component_states["psi_c"])
        for u, v in ((va, vb), (vb, vc), (va, vc)):
            assert abs(float(np.dot(u, v)) + 0.5) < 1e-10
        assert np.linalg.norm(va + vb + vc) < 1e-10

    def test_orthogonal_pairs_resolve_identity(self):
        problem = qubit_prep_ensemble(Fraction(1, 4))
        for a, b in problem.orthogonal_pairs:
            total = problem.component_states[a] + problem.component_states[b]
            assert sup_norm(total - np.eye(2)) < 1e-10

    def test_pure_state_rejected(self):
        with pytest.raises(ValueError):
            qubit_prep_ensemble(1)
        with pytest.raises(ValueError):
            qubit_prep_ensemble(Fraction(-5, 4))

    def test_float_r_rejected(self):
        with pytest.raises(TypeError):
            qubit_prep_ensemble(0.5)

    def test_negative_r_flips_polar_direction(self):
        plus = qubit_prep_ensemble(Fraction(1, 2))
        minus = qubit_prep_ensemble(Fraction(-1, 2))
        assert sup_norm(plus.component_states["phi"]
                        - minus.component_states["phi_perp"]) < 1e-10

    def test_decomposition_mismatch_raised(self):
        problem = qubit_prep_ensemble(Fraction(1, 2))
        broken = (((Fraction(1), "phi"),),) + problem.decompositions[1:]
        with pytest.raises(ValueError, match="decomposition 0 misses"):
            PrepEnsembleProblem(target=problem.target, q=problem.q,
                                component_states=problem.component_states,
                                decompositions=broken,
                                orthogonal_pairs=problem.orthogonal_pairs)

    def test_decompositions_are_verified_once_when_built(self, monkeypatch):
        calls = []
        real = embedding._verify_decompositions
        monkeypatch.setattr(embedding, "_verify_decompositions",
                            lambda problem: calls.append(problem) or real(problem))
        problem = qubit_prep_ensemble(Fraction(1, 3))
        require(calls == [problem], f"{len(calls)} checks while building")
        calls.clear()
        prep_nc_check(problem)
        classify_prep_ensemble(problem)
        require(calls == [], f"{len(calls)} checks of a built problem")


class TestPrepNcCheck:
    @pytest.mark.parametrize("r", ["0", "1/2"])
    def test_mixed_states_infeasible_all_16(self, r):
        result = prep_nc_check(qubit_prep_ensemble(Fraction(r)))
        assert result.verdict == "infeasible"
        assert len(result.cases) == 16
        assert all(not case.feasible for case in result.cases)

    def test_case_patterns_cover_all_choices(self):
        result = prep_nc_check(qubit_prep_ensemble(Fraction(1, 4)))
        problem = qubit_prep_ensemble(Fraction(1, 4))
        seen = {case.dead for case in result.cases}
        assert len(seen) == 16
        for dead in seen:
            for member, pair in zip(dead, problem.orthogonal_pairs):
                assert member in pair

    def test_farkas_certificates_present(self):
        result = prep_nc_check(qubit_prep_ensemble(Fraction(3, 4)))
        for case in result.cases:
            assert case.farkas is not None
            assert case.solution is None

    def test_single_decomposition_feasible_with_model(self):
        # One decomposition: each component is its own ontic state, and the
        # target is the mixture of them with the decomposition's weights.
        problem = qubit_prep_ensemble(Fraction(1, 2))
        single = PrepEnsembleProblem(
            target=problem.target, q=problem.q,
            component_states=problem.component_states,
            decompositions=(problem.decompositions[0],),
            orthogonal_pairs=problem.orthogonal_pairs)
        result = prep_nc_check(single)
        assert result.verdict == "feasible"
        weights = [w for w, _ in single.decompositions[0]]
        assert min(weights) >= 0 and sum(weights) == 1
        mixture = sum(float(w) * single.component_states[label]
                      for w, label in single.decompositions[0])
        assert sup_norm(mixture - single.target) < 1e-12
        report = classify_prep_ensemble(single)
        assert report.spekkens_noncontextual == "yes"
        assert ("one decomposition: each component is its own ontic state"
                in report.notes)

    def test_certificate_has_cases_field(self):
        cert = prep_nc_check(qubit_prep_ensemble(Fraction(1, 2))).certificate()
        assert cert["kind"] == "preparation-noncontextuality"
        assert len(cert["cases"]) == 16
        assert all("certificate" in case for case in cert["cases"])

    def test_off_axis_direction_still_infeasible(self):
        problem = qubit_prep_ensemble(Fraction(1, 2), axis=(1.0, 1.0, 1.0))
        result = prep_nc_check(problem)
        assert result.verdict == "infeasible"


SIX_DECOMPOSITION_ENSEMBLES = [
    ("0", (0.0, 0.0, 1.0), None),
    ("1/2", (0.0, 0.0, 1.0), None),
    ("-2/5", (1.0, 1.0, 1.0), None),
    ("3/4", (0.0, 1.0, 0.0), "1/3"),
    ("1/3", (1.0, 2.0, 2.0), None),
]


class TestPrepPatternSystem:
    """`prep_nc_check` builds its exact system once and decides each pattern
    over the alive columns: by an exact span certificate from one
    elimination, or by the LP when b lies in the columns' span.  Each case
    is checked against the system that `_pattern_system` builds for that
    pattern alone, by computations that share no package solver code: its
    verdict and any primal must be those of the reference simplex
    (`reference_solve_eq_nonneg`), and its Farkas vector is multiplied by
    hand against those rows."""

    @staticmethod
    def require_cases_match_per_pattern_systems(problem):
        result = prep_nc_check(problem)
        patterns = list(itertools.product(*problem.orthogonal_pairs))
        require(len(result.cases) == len(patterns) == 16,
                f"{len(result.cases)} cases")
        for case, dead in zip(result.cases, patterns):
            _, rows, rhs = embedding._pattern_system(problem, dead)
            ref = reference_solve_eq_nonneg(rows, rhs)
            require(case.dead == dead, f"case order: {case.dead} for {dead}")
            require(case.feasible == ref.feasible, f"{dead}: verdict")
            if case.feasible:
                require(case.solution == ref.x and case.farkas is None,
                        f"{dead}: primal {case.solution} against {ref.x}")
                continue
            y = case.farkas
            require(case.solution is None and len(y) == len(rows), f"{dead}: {y}")
            scores = [sum(y[i] * row[j] for i, row in enumerate(rows))
                      for j in range(len(rows[0]))]
            require(all(s <= 0 for s in scores), f"{dead}: y·a_j = {scores}")
            require(sum(yi * bi for yi, bi in zip(y, rhs)) > 0, f"{dead}: y·b <= 0")
        return result

    @staticmethod
    def kernel_calls(monkeypatch) -> list:
        """The systems `prep_nc_check` hands to the LP kernel, as it runs."""
        solved = []

        def recording_solve(a, b):
            solved.append(a)
            return solve_eq_nonneg(a, b)

        monkeypatch.setattr(embedding, "solve_eq_nonneg", recording_solve)
        return solved

    @staticmethod
    def ensemble(r, axis, q) -> PrepEnsembleProblem:
        return qubit_prep_ensemble(Fraction(r), axis=axis, q=None if q is None else Fraction(q))

    @pytest.mark.parametrize("r, axis, q", SIX_DECOMPOSITION_ENSEMBLES)
    def test_each_case_is_its_own_pattern_solve(self, r, axis, q):
        problem = self.ensemble(r, axis, q)
        result = self.require_cases_match_per_pattern_systems(problem)
        require(result.verdict == "infeasible", f"r = {r}: {result.verdict}")

    def test_feasible_cases_of_one_decomposition(self, monkeypatch):
        # One decomposition puts b in the span of every pattern's columns,
        # so each pattern falls back to the LP.
        problem = qubit_prep_ensemble(Fraction(2, 7), axis=(1.0, 0.0, 0.0))
        single = PrepEnsembleProblem(problem.target, problem.q,
                                     problem.component_states,
                                     problem.decompositions[:1],
                                     problem.orthogonal_pairs)
        solved = self.kernel_calls(monkeypatch)
        result = self.require_cases_match_per_pattern_systems(single)
        require(any(case.feasible for case in result.cases), "no feasible case")
        require(len(solved) == 16, f"{len(solved)} kernel calls")

    def test_six_decompositions_make_no_kernel_call(self, monkeypatch):
        solved = self.kernel_calls(monkeypatch)
        for params in SIX_DECOMPOSITION_ENSEMBLES:
            prep_nc_check(self.ensemble(*params))
        require(solved == [], f"{len(solved)} kernel calls")


def dense_rows(a):
    """The rows of a `SparseColumns`, with every zero written out."""
    rows = [[Fraction(0)] * a.n for _ in range(a.m)]
    for j, (idx, vals) in enumerate(a.cols):
        for i, v in zip(idx, vals):
            rows[i][j] = Fraction(v)
    return rows


def reference_rows(measurements):
    """The deterministic assignments from `itertools.product`, and the dense
    0/1 row of each (measurement, outcome) over them, in measurement order."""
    assignments = list(itertools.product(*[range(n) for _, n in measurements]))
    rows = [[Fraction(int(a[m_index] == outcome)) for a in assignments]
            for m_index, (_, n) in enumerate(measurements) for outcome in range(n)]
    return assignments, rows


def statistics_vector(measurements, stats):
    """A preparation's exact b: its outcome probabilities in measurement order."""
    return tuple(Fraction(p) for label, _ in measurements for p in stats[label])


def oracle_vertices(measurements, stats):
    """Vertices of a preparation's polytope from `reference_rows` and a row
    of ones, by the basis-enumeration oracle, without the package's matrix."""
    assignments, rows = reference_rows(measurements)
    return enumerate_vertices(rows + [[Fraction(1)] * len(assignments)],
                              list(statistics_vector(measurements, stats)) + [Fraction(1)])


def random_pusey_case(rng):
    """2-4 preparations over 1-3 measurements with 2-3 outcomes each.

    At most 9 assignments keep the oracle's basis enumeration small.  Each
    distribution is deterministic or has denominator 2 or 3, so some
    bipartitions meet and others do not.
    """
    n_meas = int(rng.integers(1, 4))
    sizes = [int(rng.integers(2, 4)) for _ in range(n_meas)]
    while np.prod(sizes) > 9:
        sizes[int(np.argmax(sizes))] -= 1
    measurements = tuple((f"M{k}", n) for k, n in enumerate(sizes))

    def dist(n):
        den = int(rng.choice([1, 2, 3]))
        cuts = np.sort(rng.integers(0, den + 1, size=n - 1))
        parts = np.diff(np.concatenate([[0], cuts, [den]]))
        return tuple(Fraction(int(p), den) for p in parts)

    n_preps = int(rng.integers(2, 5))
    preps = {f"P{i}": {label: dist(n) for label, n in measurements}
             for i in range(n_preps)}
    return measurements, preps


class TestAssignmentPolytope:
    """One assignment matrix per scan (`_assignment_matrix`), and each
    preparation's statistics vector (`_normalize_stats` per measurement)."""

    def test_deterministic_direction_vertices(self):
        measurements = (("Z", 2), ("X", 2))
        stats = {"Z": (Fraction(1), Fraction(0)),
                 "X": (Fraction(1, 2), Fraction(1, 2))}
        assignments, rows = reference_rows(measurements)
        a = _assignment_matrix(measurements)
        require(dense_rows(a) == rows, "the matrix is not the reference rows")
        vertices = enumerate_vertices(dense_rows(a), statistics_vector(measurements, stats))
        assert vertices == oracle_vertices(measurements, stats)
        for vertex in vertices:
            for m_index, (label, n) in enumerate(measurements):
                for outcome in range(n):
                    marginal = sum(v for x, v in zip(assignments, vertex)
                                   if x[m_index] == outcome)
                    assert marginal == stats[label][outcome]

    def test_inconsistent_statistics_raise(self):
        with pytest.raises(ValueError, match="sum to 1/2, not 1"):
            pusey_incomplete_check({"bad": {"Z": (Fraction(1, 2), Fraction(0))}})

    def test_exact_sum_other_than_one_raises(self):
        for probs in (("1/2", "1/4"), ("1/2", "3/4"), ()):
            with pytest.raises(ValueError, match="not 1"):
                pusey_incomplete_check({"bad": {"X": probs}})

    def test_float_statistics_are_rationalized(self):
        assert _normalize_stats((0.25, 0.75), 2) == (Fraction(1, 4), Fraction(3, 4))

    def test_float_rounding_is_absorbed_and_far_sums_raise(self):
        assert sum(_normalize_stats((1 / 3, 2 / 3 + 1e-9), 2)) == 1
        with pytest.raises(ValueError, match="sum to 9/10, not 1"):
            pusey_incomplete_check({"f": {"Z": (0.5, 0.4)}})

    def test_non_finite_float_rejected(self):
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="not finite"):
                pusey_incomplete_check({"f": {"Z": (bad, 0.0)}})

    def test_too_many_assignments_refused(self):
        stats = {f"M{k}": (Fraction(1), Fraction(0)) for k in range(13)}
        with pytest.raises(TooLargeError, match="more than 4096 deterministic assignments"):
            pusey_incomplete_check({"P0": stats, "P1": dict(stats)})

    def test_product_distribution_lies_in_the_polytope(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            measurements, preps = random_pusey_case(rng)
            assignments, rows = reference_rows(measurements)
            a = _assignment_matrix(measurements)
            require(dense_rows(a) == rows, f"{measurements}: not the reference rows")
            stats = preps["P0"]
            product = [np.prod([stats[label][o] for (label, _), o in zip(measurements, x)])
                       for x in assignments]
            assert check_solution(a, statistics_vector(measurements, stats), product)


class TestPuseyCheck:
    def test_single_preparation_inconclusive(self):
        stats = {"P0": {"Z": (Fraction(1), Fraction(0)),
                        "X": (Fraction(1, 2), Fraction(1, 2))}}
        result = pusey_incomplete_check(stats)
        assert result.verdict == "inconclusive"
        assert result.pairs_checked == 0

    def test_identical_statistics_inconclusive(self):
        shared = {"Z": (Fraction(1), Fraction(0)),
                  "X": (Fraction(1, 2), Fraction(1, 2))}
        result = pusey_incomplete_check({"P0": shared, "P1": dict(shared)})
        assert result.verdict == "inconclusive"
        assert result.intersecting_pair is not None

    def test_disjoint_polytopes_trigger_literal_criterion(self):
        stats = {"up": {"Z": (Fraction(1), Fraction(0))},
                 "down": {"Z": (Fraction(0), Fraction(1))}}
        result = pusey_incomplete_check(stats)
        assert result.verdict == "contextual"
        assert result.scan_contextual

    def test_uniform_mub_mixtures_feasible(self):
        half = Fraction(1, 2)
        uniform = (half, half)
        one, zero = Fraction(1), Fraction(0)
        preps = {
            "z0": {"Z": (one, zero), "X": uniform, "Y": uniform},
            "z1": {"Z": (zero, one), "X": uniform, "Y": uniform},
            "x0": {"Z": uniform, "X": (one, zero), "Y": uniform},
            "x1": {"Z": uniform, "X": (zero, one), "Y": uniform},
        }
        group = [{"z0": half, "z1": half}, {"x0": half, "x1": half}]
        result = pusey_incomplete_check(preps, declared_equivalences=[group])
        assert result.verdict == "inconclusive"
        assert not result.equivalence_contextual

    def test_six_ensemble_contextual(self):
        stats, group, problem = six_ensemble_statistics(Fraction(1, 2))
        result = pusey_incomplete_check(stats, declared_equivalences=[group])
        assert result.verdict == "contextual"
        assert result.equivalence_contextual
        assert result.equivalence_farkas is not None
        # agreement with the ensemble case analysis on the shared instance
        assert prep_nc_check(problem).verdict == "infeasible"

    def test_six_ensemble_scan_solves_two_lps(self, monkeypatch):
        calls = []

        def counting(a, side_s, side_t):
            calls.append((side_s, side_t))
            return _hull_pair_lp(a, side_s, side_t)

        monkeypatch.setattr(embedding, "_hull_pair_lp", counting)
        stats, group, _ = six_ensemble_statistics(Fraction(1, 2))
        result = pusey_incomplete_check(stats, declared_equivalences=[group])
        assert len(calls) == 2
        assert result.pairs_checked == 2
        assert not result.scan_contextual
        assert result.intersecting_pair == (
            ("phi", "phi_perp"),
            ("psi_a", "psi_a_perp", "psi_b", "psi_b_perp", "psi_c",
             "psi_c_perp"))

    @pytest.mark.parametrize("declared", [False, True], ids=["scan", "equivalences"])
    def test_one_assignment_matrix_per_scan(self, monkeypatch, declared):
        # Four distinct deterministic preparations: no bipartition meets, so
        # the scan solves all 7 hull LPs, and every LP reads the one matrix.
        built, read = [], []
        matrix, pair, system = (embedding._assignment_matrix, embedding._hull_pair_lp,
                                embedding._equivalence_system)
        monkeypatch.setattr(embedding, "_assignment_matrix",
                            lambda m: built.append(matrix(m)) or built[-1])
        monkeypatch.setattr(embedding, "_hull_pair_lp",
                            lambda a, s, t: read.append(a) or pair(a, s, t))
        monkeypatch.setattr(embedding, "_equivalence_system",
                            lambda a, *rest: read.append(a) or system(a, *rest))
        one, zero, half = Fraction(1), Fraction(0), Fraction(1, 2)
        preps = {f"P{i}": {"X": tuple(one if k == i else zero for k in range(4)),
                           "Z": (half, half)} for i in range(4)}
        group = [{"P0": half, "P1": half}, {"P2": half, "P3": half}]
        result = pusey_incomplete_check(preps, declared_equivalences=[group] if declared else None)
        require(result.verdict == "contextual" and result.pairs_checked == 7,
                f"{result.verdict} after {result.pairs_checked} LPs")
        require(result.equivalence_contextual == declared, "equivalence verdict")
        require(len(built) == 1, f"{len(built)} assignment matrices built")
        require(len(read) == 7 + declared and all(a is built[0] for a in read),
                f"{len(read)} reads, not all of the one matrix")

    def test_pairs_covered_formula(self):
        # The first bipartition of three identical preparations meets, so
        # the scan stops after one LP; the count of covered pairs does not
        # depend on where it stops.
        shared = {"Z": (Fraction(1), Fraction(0))}
        preps = {f"P{i}": dict(shared) for i in range(3)}
        result = pusey_incomplete_check(preps)
        assert result.pairs_covered == 6
        assert result.pairs_checked == 1

    def test_contextual_scan_solves_every_bipartition(self):
        one, zero = Fraction(1), Fraction(0)
        preps = {f"P{i}": {"X": tuple(one if k == i else zero
                                      for k in range(3))}
                 for i in range(3)}
        result = pusey_incomplete_check(preps)
        assert result.scan_contextual
        assert result.pairs_checked == 3
        assert result.intersecting_pair is None

    def test_negative_mixture_weight_rejected(self):
        # The weights sum to 1, but no mixture weighs a preparation below 0.
        half, one, zero = Fraction(1, 2), Fraction(1), Fraction(0)
        preps = {"a": {"X": (half, half), "Z": (one, zero)},
                 "b": {"X": (half, half), "Z": (zero, one)}}
        group = [{"a": "3/2", "b": "-1/2"}, {"b": 1}]
        with pytest.raises(ValueError, match="negative weight -1/2 for preparation 'b'"):
            pusey_incomplete_check(preps, declared_equivalences=[group])

    def test_mismatched_measurements_rejected(self):
        preps = {"P0": {"Z": (Fraction(1), Fraction(0))},
                 "P1": {"X": (Fraction(1), Fraction(0))}}
        with pytest.raises(ValueError, match="lists different measurements"):
            pusey_incomplete_check(preps)

    def test_certificate_fields(self):
        stats = {"up": {"Z": (Fraction(1), Fraction(0))},
                 "down": {"Z": (Fraction(0), Fraction(1))}}
        cert = pusey_incomplete_check(stats).certificate()
        assert cert["kind"] == "assignment-polytope-scan"
        assert cert["verdict"] == "contextual"
        assert cert["pairs_checked"] == 1
        assert "vertex_counts" not in cert

    def test_scan_matches_vertex_oracle(self):
        """Each bipartition LP against vertex enumeration plus the reference
        hull LP, on seeded random preparations."""
        rng = np.random.default_rng(2018)
        verdicts = set()
        for _ in range(40):
            measurements, preps = random_pusey_case(rng)
            labels = list(preps)
            a = _assignment_matrix(measurements)
            vectors = [statistics_vector(measurements, preps[l]) for l in labels]
            vertices = [oracle_vertices(measurements, preps[l]) for l in labels]
            first = None
            for s_idx, t_idx in _bipartitions(len(labels)):
                meet = reference_hulls_intersect(
                    [v for i in s_idx for v in vertices[i]],
                    [v for i in t_idx for v in vertices[i]])
                lp = _hull_pair_lp(a, [vectors[i] for i in s_idx],
                                   [vectors[i] for i in t_idx])
                assert lp.feasible == meet
                verdicts.add(meet)
                if meet and first is None:
                    first = (tuple(labels[i] for i in s_idx),
                             tuple(labels[i] for i in t_idx))
            result = pusey_incomplete_check(preps)
            assert result.intersecting_pair == first
            assert result.scan_contextual == (first is None)
        assert verdicts == {True, False}


def reference_equivalence_rows(labels, measurements, stats, group):
    """The equivalence LP's rows, built densely row by row."""
    assignments = list(itertools.product(*[range(n) for _, n in measurements]))
    n_a = len(assignments)
    rows, rhs = [], []
    for k, label in enumerate(labels):
        for m_index, (m_label, n) in enumerate(measurements):
            for outcome in range(n):
                row = [Fraction(0)] * (n_a * len(labels))
                for j, a in enumerate(assignments):
                    if a[m_index] == outcome:
                        row[k * n_a + j] = Fraction(1)
                rows.append(row)
                rhs.append(stats[label][m_label][outcome])
    for mix in group[1:]:
        for j in range(n_a):
            row = [Fraction(0)] * (n_a * len(labels))
            for k, label in enumerate(labels):
                row[k * n_a + j] = (Fraction(mix.get(label, 0))
                                    - Fraction(group[0].get(label, 0)))
            rows.append(row)
            rhs.append(Fraction(0))
    return rows, rhs


class TestEquivalenceSystem:
    """The column-built equivalence LP keeps the dense build's rows and columns."""

    def check(self, stats, group):
        labels = list(stats)
        first = stats[labels[0]]
        measurements = tuple((m, len(first[m])) for m in first)
        vectors = [statistics_vector(measurements, stats[l]) for l in labels]
        a, rhs = _equivalence_system(_assignment_matrix(measurements), labels, vectors,
                                     [group])
        rows, ref_rhs = reference_equivalence_rows(labels, measurements, stats, group)
        assert a == columns_from_rows(rows)
        assert rhs == ref_rhs

    def test_six_ensemble(self):
        stats, group, _ = six_ensemble_statistics(Fraction(9, 10))
        self.check(stats, group)

    def test_random_groups(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            _, preps = random_pusey_case(rng)
            labels = list(preps)
            group = []
            for _ in range(int(rng.integers(2, 4))):
                chosen = rng.permutation(labels)[:int(rng.integers(1, 3))]
                weights = rng.integers(1, 4, size=len(chosen))
                group.append({str(l): Fraction(int(w), int(weights.sum()))
                              for l, w in zip(chosen, weights)})
            self.check(preps, group)


def hull_polytopes(*points):
    """Statistics vectors over two binary measurements Z, X, given as (p(Z=0), p(X=0))."""
    return [(Fraction(z), 1 - Fraction(z), Fraction(x), 1 - Fraction(x)) for z, x in points]


def hull_pair(side_s, side_t):
    return _hull_pair_lp(_assignment_matrix((("Z", 2), ("X", 2))), side_s, side_t)


class TestHullIntersection:
    """The disjunctive hull-pair LP behind the Pusey scan.

    Assignments are ordered (Z, X) = 00, 01, 10, 11.  A preparation with
    deterministic Z and X is the vertex of the assignment simplex for that
    pair; one with uniform Z and X is the segment from (0, 1/2, 1/2, 0) to
    (1/2, 0, 0, 1/2).
    """

    def test_crossing_segments(self):
        # (1/2, 1/2, 0, 0)-(0, 0, 1/2, 1/2) and (1/2, 0, 1/2, 0)-(0, 1/2, 0, 1/2)
        # cross at the uniform distribution.
        s = hull_polytopes((1, "1/2"), (0, "1/2"))
        t = hull_polytopes(("1/2", 1), ("1/2", 0))
        assert hull_pair(s, t).feasible

    def test_disjoint_segments(self):
        s = hull_polytopes((1, 1), (1, 0))
        t = hull_polytopes((0, 1), (0, 0))
        assert not hull_pair(s, t).feasible

    def test_shared_vertex(self):
        s = hull_polytopes((1, 1), (1, 0))
        t = hull_polytopes((1, 0), (0, 0))
        assert hull_pair(s, t).feasible

    def test_segment_polytope_touches_hull(self):
        # The uniform preparation's segment ends at (1/2, 0, 0, 1/2), the
        # midpoint of the 00-11 edge.
        uniform = hull_polytopes(("1/2", "1/2"))
        assert hull_pair(hull_polytopes((1, 1), (0, 0)), uniform).feasible
        assert not hull_pair(hull_polytopes((1, 1), (1, 0)), uniform).feasible


class TestGptJson:
    def test_round_trip(self):
        gpt = kcbs_gpt()
        data = gpt_to_json(gpt)
        back = gpt_from_json(data)
        assert back.dim == gpt.dim
        assert back.sharp_contexts == gpt.sharp_contexts
        np.testing.assert_allclose(back.table(), gpt.table(), atol=1e-12)

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError, match="missing key 'effects'"):
            gpt_from_json({"dim": 2, "states": [[1.0, 0.0]]})

    def test_declared_dim_mismatch_rejected(self):
        data = gpt_to_json(classical_bit_gpt())
        data["dim"] = 5
        with pytest.raises(ValueError, match="declared dim 5 != vector length 2"):
            gpt_from_json(data)

    def test_not_an_object_rejected(self):
        with pytest.raises(ValueError, match="GPT JSON must be an object"):
            gpt_from_json([1, 2, 3])


RECHECK_UNDER_O = """
import sys

from contextuality import embedding, exactlp

if sys.flags.optimize < 1:
    sys.exit("not running under python -O")
exactlp._farkas_fault = lambda *args: "is forced to fail"
for what, call in embedding_lps(embedding).items():
    try:
        call()
    except exactlp.CertificateError:
        continue
    sys.exit(f"a failed {what} Farkas re-check did not raise")
"""


def embedding_lps(embedding):
    """The Pusey route's two LPs and the embedding LP, each on an infeasible
    instance.

    Orthogonal Z eigenstates: their hulls do not meet, and they cannot be
    declared the same preparation.  In the second call the scan's only LP
    is feasible (``up`` and ``up2`` coincide), so the first Farkas re-check
    is the equivalence LP's.  The pure hexagon rebit has no simplex
    embedding.
    """
    z = embedding._assignment_matrix((("Z", 2),))
    preps = {"up": {"Z": (1, 0)}, "up2": {"Z": (1, 0)}, "down": {"Z": (0, 1)}}
    half = 3 ** 0.5 / 2
    dirs = [(1.0, 0.0), (0.5, half), (-0.5, half), (-1.0, 0.0), (-0.5, -half),
            (0.5, -half)]
    hexagon = embedding.make_gpt([(1.0, x, y) for x, y in dirs],
                                 [(0.5, x / 2, y / 2) for x, y in dirs],
                                 (1.0, 0.0, 0.0))
    return {
        "hull pair": lambda: embedding._hull_pair_lp(z, [(1, 0)], [(0, 1)]),
        "equivalence": lambda: embedding.pusey_incomplete_check(
            preps, declared_equivalences=[[{"up": 1}, {"down": 1}]]),
        "embedding LP": lambda: embedding.embed_lp(hexagon),
    }


class TestRechecksUnderOptimize:
    """Certificate re-checks are raises, not asserts, so ``python -O`` keeps them.

    Written without bare asserts so that it also tests something when pytest
    itself runs under ``python -O``.
    """

    def test_failed_recheck_raises_under_python_O(self):
        import contextuality

        src = str(Path(contextuality.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        script = inspect.getsource(embedding_lps) + RECHECK_UNDER_O
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            pytest.fail(f"python -O subprocess: {proc.stderr.strip()}")

    def test_failed_recheck_raises_in_process(self, monkeypatch):
        from contextuality import exactlp

        monkeypatch.setattr(exactlp, "_farkas_fault", lambda *args: "is forced to fail")
        for what, call in embedding_lps(embedding).items():
            with pytest.raises(exactlp.CertificateError, match=what):
                call()
