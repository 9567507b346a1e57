"""Scenario and empirical-model checks.

Verification strategy:
- hand-computable marginals and disturbance violations are asserted against
  literal values;
- quantum-derived tables are checked against Born-rule oracles (operator
  products for parity expectations, the frozen pentagon correlator sum);
- rationalization is verified by re-checking the exact properties it must
  deliver (exact normalisation, exact marginal agreement, proximity to the
  float input, pinned zeros); float copies of small-denominator models must
  come back as the original tables without an LP;
- marginalisation laws run exactly over rational tables.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from contextuality import scenario
from contextuality.classify import classify_model
from contextuality.embedding import induced_model
from contextuality.exactlp import nearest_fraction
from contextuality.quantum import (
    PAULI_X,
    PAULI_Z,
    PAULIS,
    DimensionMismatch,
    dm,
    kcbs_construction,
    peres_mermin_square,
    projective_context,
    pvm_from_observable,
    random_density,
)
from contextuality.scenario import (
    DegenerateContexts,
    DisturbingModel,
    EmpiricalModel,
    InconsistentSharing,
    LabelMismatch,
    NonCommutingContext,
    SchemaError,
    from_quantum,
    make_model,
    make_scenario,
    model_from_json,
    model_to_json,
    rational_literal,
    rationalize_atoms,
    rationalize_model,
    validate_no_disturbance,
)
from oracles import (
    SequentialStats,
    exactly_consistent,
    flip_error_bounds,
    reference_born_tables,
    reference_exact_born,
    reference_model_from_json,
    reference_rational_literal,
    reference_sharp_atoms,
    reference_solve_box,
    require,
    sequential_stats_from_quantum,
    shared_atom_gpt,
    worst_marginal_gap,
)

RNG = np.random.default_rng(20240818)

HALF = Fraction(1, 2)


def chsh_scenario():
    return make_scenario(
        [("A0", (0, 1)), ("A1", (0, 1)), ("B0", (0, 1)), ("B1", (0, 1))],
        [["A0", "B0"], ["A0", "B1"], ["A1", "B0"], ["A1", "B1"]],
    )


def pr_box_model():
    corr = {(0, 0): HALF, (1, 1): HALF}
    anti = {(0, 1): HALF, (1, 0): HALF}
    return make_model(chsh_scenario(), {
        ("A0", "B0"): corr, ("A0", "B1"): corr, ("A1", "B0"): corr,
        ("A1", "B1"): anti,
    })


def kcbs_model():
    _, obs, _ = kcbs_construction()
    pvms = [pvm_from_observable(a, f"A{j}") for j, a in enumerate(obs)]
    contexts = [[pvms[j], pvms[(j + 1) % 5]] for j in range(5)]
    return from_quantum(dm([1, 0, 0]), contexts)


def pm_contexts():
    grid = peres_mermin_square()
    labels = [["Z1", "Z2", "ZZ"], ["X2", "X1", "XX"], ["ZX", "XZ", "YY"]]
    pvms = {labels[r][c]: pvm_from_observable(grid[r][c], labels[r][c])
            for r in range(3) for c in range(3)}
    rows = [[pvms[labels[r][c]] for c in range(3)] for r in range(3)]
    cols = [[pvms[labels[r][c]] for r in range(3)] for c in range(3)]
    return rows + cols


class TestScenarioConstruction:
    def test_canonicalizes_context_order(self):
        sc = make_scenario([("B", (0, 1)), ("A", (0, 1))], [["A", "B"]])
        assert sc.contexts == (("B", "A"),)

    def test_duplicate_contexts_rejected(self):
        with pytest.raises(DegenerateContexts):
            make_scenario([("A", (0, 1)), ("B", (0, 1))], [["A", "B"], ["B", "A"]])

    def test_empty_context_rejected(self):
        # The section oracle eliminates each context's last measurement.
        with pytest.raises(DegenerateContexts, match="at least one"):
            make_scenario([("A", (0, 1))], [["A"], []])

    def test_no_context_rejected(self):
        # The section solver reads the first context's sections.
        with pytest.raises(DegenerateContexts, match="at least one context"):
            make_scenario([], [])

    def test_unknown_label_rejected(self):
        with pytest.raises(LabelMismatch):
            make_scenario([("A", (0, 1))], [["A", "C"]])

    def test_uncovered_measurement_rejected(self):
        with pytest.raises(ValueError, match="not covered"):
            make_scenario([("A", (0, 1)), ("B", (0, 1))], [["A"]])

    def test_single_outcome_rejected(self):
        with pytest.raises(ValueError, match=">= 2 outcomes"):
            make_scenario([("A", (0,))], [["A"]])


class TestModelConstruction:
    def test_sparse_entries_filled_with_zero(self):
        sc = make_scenario([("A", (0, 1)), ("B", (0, 1))], [["A", "B"]])
        m = make_model(sc, {("A", "B"): {(0, 0): Fraction(1)}})
        assert m.tables[("A", "B")][(1, 1)] == 0
        assert len(m.tables[("A", "B")]) == 4

    def test_noncanonical_key_order_is_permuted(self):
        sc = make_scenario([("A", (0, 1)), ("B", (0, 1))], [["A", "B"]])
        m = make_model(sc, {("B", "A"): {(0, 1): Fraction(1)}})
        assert m.tables[("A", "B")][(1, 0)] == 1

    def test_bad_sum_rejected(self):
        sc = make_scenario([("A", (0, 1))], [["A"]])
        with pytest.raises(ValueError, match="sums to"):
            make_model(sc, {("A",): {(0,): HALF}})

    def test_negative_rejected(self):
        sc = make_scenario([("A", (0, 1))], [["A"]])
        with pytest.raises(ValueError, match="negative"):
            make_model(sc, {("A",): {(0,): Fraction(3, 2), (1,): Fraction(-1, 2)}})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, bad):
        sc = make_scenario([("A", (0, 1))], [["A"]])
        with pytest.raises(ValueError, match="not finite"):
            make_model(sc, {("A",): {(0,): bad, (1,): 1.0}})

    def test_float_presence_demotes_all_entries(self):
        sc = make_scenario([("A", (0, 1))], [["A"]])
        m = make_model(sc, {("A",): {(0,): 0.5, (1,): HALF}})
        assert all(isinstance(v, float) for v in m.tables[("A",)].values())
        assert not m.is_rational

    def test_table_lookup_accepts_any_order(self):
        m = pr_box_model()
        assert m.table(("B1", "A1"))[(0, 1)] == HALF


class TestMarginalize:
    """`scenario._marginal` reads a table's marginal by outcome position."""

    @staticmethod
    def marginalize(table: dict, context, subset) -> dict:
        """The marginal of ``table``, zeros filled, keyed by outcome tuples of ``subset``."""
        sc = make_scenario([(m, (0, 1)) for m in context], [list(context)])
        full = {o: table.get(o, Fraction(0)) for o in sc.outcome_tuples(context)}
        return dict(zip(itertools.product((0, 1), repeat=len(subset)),
                        scenario._marginal(sc, full, tuple(context), tuple(subset))))

    def test_identity_on_full_context(self):
        t = {(0, 0): HALF, (0, 1): 0, (1, 0): 0, (1, 1): HALF}
        assert self.marginalize(t, ("A", "B"), ("A", "B")) == t

    def test_uniform_to_single_factor(self):
        t = {o: Fraction(1, 4) for o in itertools.product((0, 1), repeat=2)}
        assert self.marginalize(t, ("A", "B"), ("B",)) == {(0,): HALF, (1,): HALF}

    def test_anticorrelated_table(self):
        t = {(0, 1): HALF, (1, 0): HALF}
        assert self.marginalize(t, ("A", "B"), ("A",)) == {(0,): HALF, (1,): HALF}

    def test_not_a_subset(self):
        with pytest.raises(ValueError):
            self.marginalize({(0,): Fraction(1)}, ("A",), ("B",))

    def test_restriction_composes_exactly(self):
        outs = list(itertools.product((0, 1), repeat=3))
        weights = [Fraction(k + 1, 36) for k in range(8)]
        t = dict(zip(outs, weights))
        via = self.marginalize(self.marginalize(t, ("A", "B", "C"), ("A", "B")),
                               ("A", "B"), ("B",))
        direct = self.marginalize(t, ("A", "B", "C"), ("B",))
        assert via == direct
        # Keyed in the order the subset lists its labels: (C, A) = (1, 0).
        assert self.marginalize(t, ("A", "B", "C"), ("C", "A"))[1, 0] == weights[1] + weights[3]


class TestNoDisturbance:
    def test_single_context_passes_with_zero(self):
        sc = make_scenario([("A", (0, 1))], [["A"]])
        m = make_model(sc, {("A",): {(0,): HALF, (1,): HALF}})
        rep = validate_no_disturbance(m)
        assert rep.passed and rep.worst_violation == 0.0

    def test_hand_built_violation_of_point_one(self):
        sc = make_scenario(
            [("A", (0, 1)), ("B", (0, 1)), ("C", (0, 1))],
            [["A", "B"], ["A", "C"]])
        t1 = {(0, 0): 0.7, (1, 1): 0.3}
        t2 = {(0, 0): 0.6, (1, 1): 0.4}
        m = make_model(sc, {("A", "B"): t1, ("A", "C"): t2})
        rep = validate_no_disturbance(m)
        assert not rep.passed
        assert abs(rep.worst_violation - 0.1) < 1e-12
        assert rep.worst_pair[2] == ("A",)

    def test_kcbs_quantum_model_passes(self):
        rep = validate_no_disturbance(kcbs_model())
        assert rep.passed

    def test_pr_box_is_nondisturbing(self):
        assert validate_no_disturbance(pr_box_model()).passed
        assert pr_box_model().exactly_consistent

    @staticmethod
    def count_marginals(monkeypatch) -> list:
        """Every (context, overlap) marginal `scenario._marginal` forms from now on."""
        calls = []
        real = scenario._marginal
        monkeypatch.setattr(scenario, "_marginal",
                            lambda *a: calls.append(a[2:]) or real(*a))
        return calls

    def test_each_context_marginal_computed_once_per_check(self, monkeypatch):
        # 13 settings per party: 169 contexts, each overlapping others on its
        # A and its B measurement, so 338 (context, overlap) marginals per
        # check.  An exact model is checked once, by `make_model`, and the
        # global-section solver's pass-through reads that answer back.
        n = 13
        sc = make_scenario([(f"A{x}", (0, 1)) for x in range(n)]
                           + [(f"B{y}", (0, 1)) for y in range(n)],
                           [[f"A{x}", f"B{y}"] for x in range(n) for y in range(n)])
        quarter = Fraction(1, 4)
        calls = self.count_marginals(monkeypatch)
        model = make_model(sc, {c: {o: quarter for o in sc.outcome_tuples(c)}
                                for c in sc.contexts})
        report = classify_model(model)
        assert report.ks_noncontextual == "undecided"
        assert len(calls) == 338
        assert len(set(calls)) == 338

    def test_float_box_checked_twice(self, monkeypatch):
        # A float 2x2 box has 4 overlapping context pairs, 8 marginals per
        # check: the float no-disturbance check, then the exact check of
        # its rounded entries.
        quarter = {o: 0.25 for o in itertools.product((0, 1), repeat=2)}
        model = make_model(chsh_scenario(),
                           {c: quarter for c in chsh_scenario().contexts})
        calls = self.count_marginals(monkeypatch)
        report = classify_model(model)
        assert (report.bell_local, report.ks_noncontextual) == ("yes", "yes")
        assert len(calls) == 16
        assert len(set(calls)) == 8


class TestExactDeviation:
    """An exact model's worst marginal deviation is exact; only the report's
    number is a float.  Marginals on A: 1/2 in context (A, B), 1/2 + gap in
    (A, C)."""

    @staticmethod
    def gap_model(gap: Fraction):
        sc = make_scenario([("A", (0, 1)), ("B", (0, 1)), ("C", (0, 1))],
                           [["A", "B"], ["A", "C"]])
        half = Fraction(1, 2)
        return make_model(sc, {("A", "B"): {(0, 0): half, (1, 1): half},
                               ("A", "C"): {(0, 0): half + gap, (1, 1): half - gap}})

    def test_a_gap_of_one_billionth_passes(self):
        # Subtracting floats, the gap reads 1.0000000272e-09, above ND_TOL.
        report = validate_no_disturbance(self.gap_model(Fraction(1, 10 ** 9)))
        require(report.passed and report.worst_violation == 1e-9, f"{report}")

    def test_the_bound_is_nd_tol_exactly(self):
        at = Fraction(scenario.ND_TOL)
        require(validate_no_disturbance(self.gap_model(at)).passed, "ND_TOL itself fails")
        past = validate_no_disturbance(self.gap_model(at + Fraction(1, 2 ** 200)))
        require(not past.passed and past.worst_pair == (("A", "B"), ("A", "C"), ("A",)),
                f"{past}")
        with pytest.raises(DisturbingModel):
            rationalize_model(self.gap_model(at + Fraction(1, 2 ** 200)))


class TestFromQuantum:
    def test_z_basis_on_ground_state_is_deterministic(self):
        pc = pvm_from_observable(PAULI_Z, "Z")
        m = from_quantum(dm([1, 0]), [[pc]])
        assert m.tables[("Z",)][(1,)] == pytest.approx(1.0)
        assert m.tables[("Z",)][(-1,)] == pytest.approx(0.0)

    def test_kcbs_correlator_sum(self):
        m = kcbs_model()
        total = 0.0
        for ctx, table in m.tables.items():
            total += sum(a * b * p for (a, b), p in table.items())
        assert abs(total - (5 - 4 * np.sqrt(5))) < 1e-9

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_magic_square_parities(self, seed):
        rho = random_density(4, np.random.default_rng(seed))
        model = from_quantum(rho, pm_contexts())
        signs = {}
        for ctx, table in model.tables.items():
            assert len(table) == 8
            signs[ctx] = sum(a * b * c * p for (a, b, c), p in table.items())
        assert signs[("Z1", "Z2", "ZZ")] == pytest.approx(1.0, abs=1e-9)
        assert signs[("X2", "X1", "XX")] == pytest.approx(1.0, abs=1e-9)
        assert signs[("ZX", "XZ", "YY")] == pytest.approx(1.0, abs=1e-9)
        assert signs[("Z1", "X2", "ZX")] == pytest.approx(1.0, abs=1e-9)
        assert signs[("Z2", "X1", "XZ")] == pytest.approx(1.0, abs=1e-9)
        assert signs[("ZZ", "XX", "YY")] == pytest.approx(-1.0, abs=1e-9)

    def test_output_is_nondisturbing(self):
        for seed in range(3):
            rho = random_density(4, np.random.default_rng(100 + seed))
            model = from_quantum(rho, pm_contexts())
            assert validate_no_disturbance(model).passed

    def test_noncommuting_context_rejected(self):
        pz = pvm_from_observable(PAULI_Z, "Z")
        px = pvm_from_observable(PAULI_X, "X")
        with pytest.raises(NonCommutingContext):
            from_quantum(dm([1, 0]), [[pz, px]])

    def test_inconsistent_sharing_rejected(self):
        pz = pvm_from_observable(PAULI_Z, "M")
        px = pvm_from_observable(PAULI_X, "M")
        with pytest.raises(InconsistentSharing):
            from_quantum(dm([1, 0]), [[pz], [px]])


def cg_contexts(rng, flips=(False, False, False)):
    """Coarse-grainings {0,1}, {0,2}, {0} of one random basis; a flip lists the complement first."""
    u = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    rays = [np.outer(u[:, i], u[:, i].conj()) for i in range(4)]
    meas = []
    for k, (block, flip) in enumerate(zip([(0, 1), (0, 2), (0,)], flips)):
        q = sum(rays[i] for i in block)
        projs = [np.eye(4) - q, q] if flip else [q, np.eye(4) - q]
        meas.append(projective_context(f"M{k}", projs))
    return [[meas[0], meas[1]], [meas[1], meas[2]], [meas[0], meas[2]]]


def reference_cases():
    """(name, state, contexts, sharing) for the shared pass against the product loops."""
    rng = np.random.default_rng(77)
    _, obs, _ = kcbs_construction()
    pvms = [pvm_from_observable(a, f"A{j}") for j, a in enumerate(obs)]
    pentagon = [[pvms[j], pvms[(j + 1) % 5]] for j in range(5)]
    yield "pentagon", dm([1, 0, 0]), pentagon, None
    yield "pentagon, random state", random_density(3, rng), pentagon, None
    for flips in itertools.product((False, True), repeat=3):
        yield f"coarse-grainings {flips}", random_density(4, rng), cg_contexts(rng, flips), None
    yield "Peres-Mermin", random_density(4, rng), pm_contexts(), None
    u = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    basis = [np.outer(u[:, i], u[:, i].conj()) for i in range(3)]
    fine = projective_context("fine", basis, ["a", "b", "c"])
    coarse = projective_context("coarse", [basis[0], np.eye(3) - basis[0]])
    other = projective_context("other", [basis[1], np.eye(3) - basis[1]])
    yield "3-outcome", random_density(3, rng), [[fine, coarse], [coarse, other]], None
    copy = projective_context("coarse again", coarse.projectors)
    yield ("sharing", random_density(3, rng), [[fine, coarse], [copy, other]],
           {"coarse again": "coarse"})


class TestQuantumPassReference:
    """The batched pass against the product loops it replaced (`oracles`)."""

    @pytest.mark.parametrize("case", list(reference_cases()), ids=lambda c: c[0])
    def test_tables_atoms_and_sharp_contexts(self, case):
        _, state, contexts, sharing = case
        qp = scenario.quantum_pass([state], contexts, sharing)
        model = from_quantum(state, contexts, sharing)
        for labels, table in reference_born_tables(state, contexts, sharing).items():
            canon = model.scenario.canonical_context(labels)
            for outc, p in table.items():
                key = tuple(outc[labels.index(m)] for m in canon)
                require(abs(model.tables[canon][key] - p) <= 1e-12, f"{labels} {outc}")
        atoms, sharp_contexts = reference_sharp_atoms(contexts)
        require(qp.sharp_contexts == sharp_contexts, "sharp contexts differ")
        require(len(qp.atoms) == len(atoms), "atom counts differ")
        for mine, theirs in zip(qp.atoms, atoms):
            require(np.max(np.abs(mine - theirs)) <= 1e-12, "atoms differ")

    @pytest.mark.parametrize("case", list(reference_cases()), ids=lambda c: c[0])
    def test_exact_model_reads_the_atoms(self, case):
        name, state, contexts, sharing = case
        qp = scenario.quantum_pass([state], contexts, sharing)
        exact = qp.exact_atoms()
        model = qp.exact_model()
        # Peres-Mermin marginals sum different atoms; its Pauli projectors
        # are exact, so its atoms are exact Born values and agree anyway.
        require(model is not None, f"{name}: no exact model")
        require(exactly_consistent(model.scenario, model.tables), name)
        for (c, o), k in zip(qp.keys, qp.atom_of):
            require(model.tables[c][o] == (0 if k is None else exact[k]), f"{c} {o}")

    def test_states_and_measurements_must_share_a_dimension(self):
        contexts = cg_contexts(np.random.default_rng(5))
        for states in ([np.eye(3) / 3], [np.eye(4) / 4, np.eye(3) / 3]):
            with pytest.raises(DimensionMismatch):
                scenario.quantum_pass(states, contexts)

    def test_pm_square_still_prints_three_infeasible(self, capsys):
        from contextuality.cli import main
        require(main(["pm-square", "--trials", "3", "--seed", "5"]) == 0, "exit code")
        out = json.loads(capsys.readouterr().out)
        require(out["global_section_verdicts"] == ["infeasible"] * 3, str(out))


class TestSequentialBounds:
    def test_compatible_pair_has_zero_error(self):
        rho = random_density(4, RNG)
        a = np.kron(PAULI_Z, np.eye(2))
        b = np.kron(np.eye(2), PAULI_X)
        stats = sequential_stats_from_quantum(rho, a, b)
        rep = flip_error_bounds(stats)
        assert rep.p_err == pytest.approx(0.0, abs=1e-12)
        assert rep.p_flip == pytest.approx(0.0, abs=1e-12)
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)
        assert rep.chain_holds

    def test_z_then_x_on_ground_state(self):
        stats = sequential_stats_from_quantum(dm([1, 0]), PAULI_Z, PAULI_X)
        rep = flip_error_bounds(stats)
        assert rep.p_flip == pytest.approx(0.5, abs=1e-12)
        assert rep.p_err == pytest.approx(0.5, abs=1e-12)
        assert rep.chain_holds

    def test_constructed_cumulativity_violation(self):
        stats = SequentialStats(
            p_a={1: 1.0}, p_b={1: 1.0},
            p_ab={(1, 1): 1.0},
            p_bab={(1, -1): 0.1, (1, 1): 0.9},
            flip_joint={(1, -1): 0.3, (1, 1): 0.7},
        )
        rep = flip_error_bounds(stats)
        assert rep.p_flip == pytest.approx(0.3)
        assert rep.p_err == pytest.approx(0.1)
        assert not rep.chain_holds

    def test_unnormalised_stats_rejected(self):
        with pytest.raises(ValueError, match="not normalised"):
            SequentialStats(p_a={1: 0.5}, p_b={1: 1.0},
                            p_ab={(1, 1): 1.0}, p_bab={(1, 1): 1.0})


@st.composite
def mixture_models(draw, weights):
    """A classical mixture of global assignments, weighted by draws from `weights`.

    Measurements have 2 or 3 outcomes; contexts are the consecutive pairs of
    a 3- or 4-cycle, so every measurement is shared by two contexts, plus
    optionally the triple {M0, M1, M2}, which contains two of the pairs.
    Integer weights give exact tables, float weights float tables.  Returns
    the scenario and its tables.
    """
    n = draw(st.integers(3, 4))
    labels = [f"M{i}" for i in range(n)]
    outcomes = [tuple(range(draw(st.sampled_from((2, 3))))) for _ in labels]
    contexts = [[labels[i], labels[(i + 1) % n]] for i in range(n)]
    if draw(st.booleans()):
        contexts.append(labels[:3])
    sc = make_scenario(list(zip(labels, outcomes)), contexts)
    points = draw(st.lists(st.tuples(*(st.sampled_from(o) for o in outcomes)),
                           min_size=1, max_size=4))
    drawn = draw(st.lists(weights, min_size=len(points), max_size=len(points)))
    total = sum(drawn)
    exact = isinstance(total, int)
    tables = {}
    for c in sc.contexts:
        idx = [labels.index(m) for m in c]
        table = {o: Fraction(0) if exact else 0.0 for o in sc.outcome_tuples(c)}
        for point, w in zip(points, drawn):
            table[tuple(point[i] for i in idx)] += Fraction(w, total) if exact else w / total
        tables[c] = table
    return sc, tables


def no_lp():
    """Fail the test if `rationalize_model` reaches its box-LP path."""
    return mock.patch.object(scenario, "_solve_box",
                             side_effect=AssertionError("box LP ran"))


class TestRationalize:
    """Rationalized models are checked by `oracles.exactly_consistent`, which
    sums in ``Fraction`` arithmetic, not by the package's own exact checks."""

    def test_exact_model_passes_through(self):
        m = pr_box_model()
        require(rationalize_model(m) is m, "exact model rebuilt")

    def test_kcbs_float_model_becomes_exact(self):
        m = kcbs_model()
        r = rationalize_model(m)
        require(r.is_rational, "not rational")
        require(exactly_consistent(r.scenario, r.tables), "not exact")
        for ctx in m.scenario.contexts:
            for outc, v in m.tables[ctx].items():
                require(abs(float(r.tables[ctx][outc]) - v) < 1e-3, f"{ctx} {outc} moved")
        # orthogonal consecutive projectors force an exact zero
        for ctx in r.scenario.contexts:
            require(r.tables[ctx][(1, 1)] == 0, f"{ctx} lost its zero")

    def test_magic_square_zeros_are_pinned(self):
        rho = random_density(4, np.random.default_rng(7))
        r = rationalize_model(from_quantum(rho, pm_contexts()))
        require(exactly_consistent(r.scenario, r.tables), "not exact")
        zeros = sum(1 for t in r.tables.values() for v in t.values() if v == 0)
        require(zeros == 6 * 4, f"{zeros} zeros")

    def test_disturbing_model_rejected(self):
        sc = make_scenario(
            [("A", (0, 1)), ("B", (0, 1)), ("C", (0, 1))],
            [["A", "B"], ["A", "C"]])
        m = make_model(sc, {("A", "B"): {(0, 0): 0.7, (1, 1): 0.3},
                            ("A", "C"): {(0, 0): 0.6, (1, 1): 0.4}})
        with pytest.raises(DisturbingModel):
            rationalize_model(m)

    def test_random_quantum_models_rationalize(self):
        _, obs, _ = kcbs_construction()
        pvms = [pvm_from_observable(a, f"A{j}") for j, a in enumerate(obs)]
        contexts = [[pvms[j], pvms[(j + 1) % 5]] for j in range(5)]
        for seed in range(5):
            rho = random_density(3, np.random.default_rng(200 + seed))
            m = from_quantum(rho, contexts)
            r = rationalize_model(m)
            require(exactly_consistent(r.scenario, r.tables), f"seed {seed}: not exact")
            worst = max(abs(float(r.tables[c][o]) - m.tables[c][o])
                        for c in m.scenario.contexts for o in m.tables[c])
            require(worst < 1e-3, f"seed {seed}: an entry moved by {worst:.2e}")

    @settings(max_examples=120, deadline=None)
    @given(mixture_models(st.integers(1, 5)))
    def test_float_copies_of_small_denominator_models_come_back_exactly(self, drawn):
        sc, tables = drawn
        floats = make_model(sc, {c: {o: float(v) for o, v in t.items()}
                                 for c, t in tables.items()})
        with no_lp():
            r = rationalize_model(floats)
        require(r.tables == tables, "the float copy did not come back")

    @pytest.mark.parametrize("max_den", [10 ** 3, 10 ** 6])
    def test_fast_path_entries_within_half_a_grid_step(self, max_den):
        m = kcbs_model()
        with no_lp():
            r = rationalize_model(m, max_den=max_den)
        require(r.is_rational, "not rational")
        require(exactly_consistent(r.scenario, r.tables), "not exact")
        bound = Fraction(1, 2 * max_den)
        for c, table in m.tables.items():
            for outc, v in table.items():
                require(r.tables[c][outc].denominator <= max_den, f"{c} {outc}: denominator")
                require(abs(r.tables[c][outc] - Fraction(v)) <= bound, f"{c} {outc}: moved")

    def test_random_pentagon_state_takes_the_lp_path(self, monkeypatch):
        _, obs, _ = kcbs_construction()
        pvms = [pvm_from_observable(a, f"A{j}") for j, a in enumerate(obs)]
        contexts = [[pvms[j], pvms[(j + 1) % 5]] for j in range(5)]
        m = from_quantum(random_density(3, np.random.default_rng(211)), contexts)
        calls = []
        real = scenario._solve_box
        monkeypatch.setattr(scenario, "_solve_box",
                            lambda *a: calls.append(1) or real(*a))
        r = rationalize_model(m)
        require(calls, "no box LP ran")
        require(r.is_rational, "not rational")
        require(exactly_consistent(r.scenario, r.tables), "not exact")
        for ctx in r.scenario.contexts:
            # orthogonal consecutive projectors: the zero stays pinned
            require(m.tables[ctx][(1, 1)] <= 1e-9, f"{ctx}: float entry not zero")
            require(r.tables[ctx][(1, 1)] == 0, f"{ctx} lost its zero")


class TestCoordinateRationalization:
    """Float models the entry rounding cannot make exact are rebuilt from
    shared grid-rounded coordinates, with no LP, whenever that keeps every
    entry nonnegative, every zero at zero and every entry near its float."""

    @settings(max_examples=150, deadline=None)
    @given(mixture_models(st.floats(0.01, 1.0)),
           st.one_of(st.just(0.0), st.floats(0.01, 0.2)))
    def test_rebuilt_tables_are_exact_and_near_their_floats(self, drawn, noise):
        # A `noise` share of the uniform mixture of every global point
        # leaves no entry zero.
        sc, mixed = drawn
        tables = {c: {o: (1 - noise) * v + noise / len(t) for o, v in t.items()}
                  for c, t in mixed.items()}
        entry_rounded = {c: {o: Fraction(0) if v <= 1e-9
                             else Fraction(v).limit_denominator(10 ** 6)
                             for o, v in t.items()} for c, t in tables.items()}
        assume(not exactly_consistent(sc, entry_rounded))
        m = make_model(sc, tables)
        rebuilt = scenario._coordinate_model(sc, dict(m.tables), 10 ** 6)
        # Entries of a full-support mixture are at least 0.01 / 27, far
        # above the rounding error, so the stage cannot refuse them.
        require(rebuilt is not None or noise == 0,
                "the coordinate stage refused a full-support model")
        assume(rebuilt is not None)
        with no_lp():
            r = rationalize_model(m)
        require(r.tables == rebuilt.tables, "rationalize_model skipped the stage")
        require(exactly_consistent(sc, r.tables), "rebuilt model is not exact")
        for c, table in tables.items():
            bound = Fraction(len(table), 10 ** 6)
            for outc, v in table.items():
                x = r.tables[c][outc]
                require(x >= 0, f"{c} {outc}: negative entry {x}")
                require(v > 1e-9 or x == 0, f"{c} {outc}: float {v} became {x}")
                require(abs(x - Fraction(v)) <= bound,
                        f"{c} {outc}: {x} is {float(x) - v:.2e} from {v}")
                require(10 ** 6 % x.denominator == 0,
                        f"{c} {outc}: denominator {x.denominator}")

    def test_negative_rebuilt_entry_is_refused(self):
        # P(A=0) and P(B=0) round up by 0.45 grid steps and P(0, 0) down by
        # 0.3, so the entry (1, 1) at 0.2 steps would be rebuilt at -1 step.
        sc = make_scenario([("A", (0, 1)), ("B", (0, 1))], [["A", "B"]])
        m = make_model(sc, {("A", "B"): {(0, 0): 0.2000003, (0, 1): 0.30000025,
                                         (1, 0): 0.49999925, (1, 1): 2e-7}})
        require(scenario._coordinate_model(sc, dict(m.tables), 10 ** 6) is None,
                "the coordinate stage accepted a negative entry")
        r = rationalize_model(m)
        require(exactly_consistent(sc, r.tables), "not exact")
        require(min(r.tables[("A", "B")].values()) >= 0, "negative entry")

    def test_bound_refuses_a_grid_finer_than_the_model_agrees(self):
        # The two tables disagree on P(A=0) by 5e-10, within the
        # no-disturbance tolerance.  On the 1e-12 grid the table that does
        # not host that coordinate moves by 500 steps, beyond its bound of 4.
        sc = make_scenario([("A", (0, 1)), ("B", (0, 1)), ("C", (0, 1))],
                           [["A", "B"], ["A", "C"]])
        m = make_model(sc, {
            ("A", "B"): {(0, 0): 0.1, (0, 1): 0.3, (1, 0): 0.25, (1, 1): 0.35},
            ("A", "C"): {(0, 0): 0.2, (0, 1): 0.2000000005, (1, 0): 0.3,
                         (1, 1): 0.2999999995}})
        require(scenario._coordinate_model(sc, dict(m.tables), 10 ** 6) is not None,
                "the coordinate stage refused the model on the 1e-6 grid")
        require(scenario._coordinate_model(sc, dict(m.tables), 10 ** 12) is None,
                "the coordinate stage accepted entries beyond its bound")

    def test_pentagon_with_the_firing_outcome_first_needs_no_lp(self):
        # The zero of each context, both projectors firing, is a coordinate
        # of its own, so it rounds to an exact zero.
        _, obs, _ = kcbs_construction()
        eye = np.eye(3)
        pvms = [projective_context(f"A{j}", [(eye + a) / 2, (eye - a) / 2], [1, -1])
                for j, a in enumerate(obs)]
        contexts = [[pvms[j], pvms[(j + 1) % 5]] for j in range(5)]
        for seed in range(5):
            m = from_quantum(random_density(3, np.random.default_rng(200 + seed)),
                             contexts)
            with no_lp():
                r = rationalize_model(m)
            require(exactly_consistent(m.scenario, r.tables),
                    f"seed {seed}: not exact")
            for ctx in r.scenario.contexts:
                require(m.tables[ctx][(1, 1)] <= 1e-9 and r.tables[ctx][(1, 1)] == 0,
                        f"seed {seed}: {ctx} lost its zero")

    def test_peres_mermin_zeros_cancel_so_the_lp_runs(self, monkeypatch):
        # Half of every Peres-Mermin table is zero by parity, and those
        # zeros are sums of several nonzero coordinates: rounding them
        # independently leaves some entry nonzero, so the LP rebuilds it.
        rho = random_density(4, np.random.default_rng(7))
        m = from_quantum(rho, pm_contexts())
        calls = []
        real = scenario._solve_box
        monkeypatch.setattr(scenario, "_solve_box",
                            lambda *a: calls.append(1) or real(*a))
        require(scenario._coordinate_model(m.scenario, dict(m.tables), 10 ** 6) is None,
                "the coordinate stage accepted a Peres-Mermin model")
        r = rationalize_model(m)
        require(calls, "no box LP ran")
        require(exactly_consistent(m.scenario, r.tables), "not exact")


@st.composite
def rational_models(draw):
    """An exact 3- or 4-cycle (`mixture_models`) or two-setting box, and its tables.

    Box tables mix 1-4 global points and a Popescu-Rohrlich component with
    integer weights.  When the perturb flag is drawn, one entry of one table
    moves by +1/den and another entry of the same table by -1/den, den the
    common denominator of the model: every table still sums to 1, so only
    the marginal check can fail.
    """
    if draw(st.booleans()):
        sc, tables = draw(mixture_models(st.integers(1, 5)))
    else:
        sc = chsh_scenario()
        points = draw(st.lists(st.tuples(*[st.sampled_from((0, 1))] * 4),
                               min_size=1, max_size=4))
        weights = draw(st.lists(st.integers(1, 5), min_size=len(points),
                                max_size=len(points)))
        pr = draw(st.integers(0, 3))
        total = sum(weights) + pr
        tables = {}
        for c in sc.contexts:
            x, y = int(c[0][1]), int(c[1][1])
            table = {(a, b): Fraction(pr, 2 * total) if a ^ b == x * y else Fraction(0)
                     for a in (0, 1) for b in (0, 1)}
            for point, w in zip(points, weights):
                table[point[x], point[2 + y]] += Fraction(w, total)
            tables[c] = table
    if draw(st.booleans()):
        den = math.lcm(*(v.denominator for t in tables.values() for v in t.values()))
        table = tables[draw(st.sampled_from(sc.contexts))]
        down = draw(st.sampled_from(sorted(o for o, v in table.items() if v)))
        up = draw(st.sampled_from(sorted(o for o in table if o != down)))
        table[down] -= Fraction(1, den)
        table[up] += Fraction(1, den)
    return sc, tables


@st.composite
def faulty_models(draw):
    """Exact tables on a drawn scenario, consistent or moved by one part in their denominator.

    3-5 measurements with 2 or 3 outcomes; 2-4 distinct contexts of 1-3
    measurements, plus one of the measurements no context covers.  The
    tables mix 1-4 global assignments with integer weights, so they are
    consistent.  A drawn fault then moves 1/den, den the common
    denominator, in one table: between two entries ("move": the sums hold
    and only a marginal can break), out of an entry into another
    ("sign": that entry becomes -1/den), or into one entry ("sum").
    """
    labels = [f"M{i}" for i in range(draw(st.integers(3, 5)))]
    outcomes = {m: tuple(range(draw(st.sampled_from((2, 3))))) for m in labels}
    contexts = draw(st.lists(st.lists(st.sampled_from(labels), min_size=1, max_size=3,
                                      unique=True),
                             min_size=2, max_size=4, unique_by=frozenset))
    uncovered = [m for m in labels if not any(m in c for c in contexts)]
    sc = make_scenario([(m, outcomes[m]) for m in labels],
                       contexts + ([uncovered] if uncovered else []))
    points = draw(st.lists(st.tuples(*(st.sampled_from(outcomes[m]) for m in labels)),
                           min_size=1, max_size=4))
    weights = draw(st.lists(st.integers(1, 5), min_size=len(points), max_size=len(points)))
    tables = {}
    for c in sc.contexts:
        table = tables[c] = {o: Fraction(0) for o in sc.outcome_tuples(c)}
        for point, w in zip(points, weights):
            table[tuple(point[labels.index(m)] for m in c)] += Fraction(w, sum(weights))
    fault = draw(st.sampled_from(["none", "move", "sign", "sum"]))
    if fault != "none":
        part = Fraction(1, math.lcm(*(v.denominator for t in tables.values()
                                      for v in t.values())))
        table = tables[draw(st.sampled_from(sc.contexts))]
        up = draw(st.sampled_from(sorted(table)))
        if fault != "sum":
            down = draw(st.sampled_from(sorted(o for o in table if o != up
                                               and (fault == "sign" or table[o]))
                                        or [up]))
            shift = part if fault == "move" else table[down] + part
            table[down] -= shift
            table[up] += shift - part
        table[up] += part
    return sc, tables


class TestIntegerConsistencyChecks:
    """The exact checks run on integer tables over one common denominator;
    they must agree with `oracles.exactly_consistent`, which sums each
    table and marginal in ``Fraction`` arithmetic."""

    @settings(max_examples=200, deadline=None)
    @given(rational_models())
    def test_checks_agree_with_fraction_sums(self, drawn):
        sc, tables = drawn
        m = make_model(sc, tables)
        expected = exactly_consistent(sc, m.tables)
        require(m.exactly_consistent == expected, f"make_model decided {not expected}")
        lazy = EmpiricalModel(scenario=sc, tables=m.tables)
        require(lazy.exactly_consistent == expected,
                f"the check of a model built without make_model is {not expected}")
        if expected:
            require(rationalize_model(m) is m, "a consistent model was rebuilt")
        else:
            with pytest.raises(DisturbingModel):
                rationalize_model(m)

    @settings(max_examples=300, deadline=None)
    @given(faulty_models())
    def test_one_pass_agrees_with_the_fraction_oracle(self, drawn):
        # `make_model` checks signs, sums and marginals on the integer
        # tables it forms; `validate_no_disturbance` reads the exact gap
        # off the same integers.
        sc, tables = drawn
        negative = any(v < 0 for t in tables.values() for v in t.values())
        if negative or any(sum(t.values(), Fraction(0)) != 1 for t in tables.values()):
            with pytest.raises(ValueError, match="negative probability" if negative
                               else "sums to"):
                make_model(sc, tables)
            return
        m = make_model(sc, tables)
        ints, scale = m.integer_tables
        require(all(Fraction(ints[c][o], scale) == v for c, t in tables.items()
                    for o, v in t.items()), "the integer tables differ")
        require(m.exactly_consistent == exactly_consistent(sc, tables),
                f"make_model decided {m.exactly_consistent}")
        gap, pair = worst_marginal_gap(sc, tables)
        report = validate_no_disturbance(m)
        require((report.worst_violation, report.worst_pair) == (float(gap), pair),
                f"{report} against a gap of {gap} on {pair}")
        require(report.passed == (gap <= scenario.ND_TOL), f"{report}")

    def test_a_model_is_checked_once(self, monkeypatch):
        # `make_model` checks the marginals of the integer tables it forms;
        # the pass-through test reads its answer back.
        checked = []
        honest = scenario._marginals_agree
        monkeypatch.setattr(scenario, "_marginals_agree",
                            lambda sc, tables: checked.append(tables) or honest(sc, tables))
        m = pr_box_model()
        require(m.exactly_consistent and m.exactly_consistent, "PR box not exact")
        require(rationalize_model(m) is m, "a consistent model was rebuilt")
        require(len(checked) == 1 and checked[0] is m.integer_tables[0],
                f"{len(checked)} checks of one model")
        floats = make_model(m.scenario, float_tables(m))
        require(not floats.exactly_consistent, "a float model passed")
        require(len(checked) == 1, "a float model was summed")

    def test_table_off_by_one_part_in_its_denominator(self):
        # Built without `make_model`, which would refuse the table.
        sc = chsh_scenario()
        tables = dict(pr_box_model().tables)
        tables[sc.contexts[0]] = {**tables[sc.contexts[0]], (0, 1): Fraction(1, 10 ** 15)}
        m = EmpiricalModel(scenario=sc, tables=tables)
        require(not exactly_consistent(sc, tables), "the oracle accepted the table")
        require(not m.exactly_consistent, "the pass-through test accepted it")


def round_every_table(sc, floats) -> dict:
    """Every entry of every table rounded as `scenario._round` rounds it, in `Fraction`s.

    0 at or below `ZERO_TOL`, else ``Fraction.limit_denominator`` at `MAX_DEN`.
    """
    return {c: {o: Fraction(0) if x <= scenario.ZERO_TOL
                else Fraction(x).limit_denominator(scenario.MAX_DEN)
                for o in sc.outcome_tuples(c) for x in [floats[c].get(o, 0.0)]}
            for c in sc.contexts}


def float_tables(m) -> dict:
    return {c: {o: float(v) for o, v in t.items()} for c, t in m.tables.items()}


def coarse_graining_model(rng):
    """Two-outcome coarse-grainings {0,1}, {0,2}, {0} of one random 4-dimensional basis."""
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    u, _ = np.linalg.qr(g)
    rays = [np.outer(u[:, i], u[:, i].conj()) for i in range(4)]
    meas = []
    for k, block in enumerate([(0, 1), (0, 2), (0,)]):
        q = sum(rays[i] for i in block)
        meas.append(projective_context(f"M{k}", [q, np.eye(4) - q], [0, 1]))
    return from_quantum(random_density(4, rng),
                        [[meas[0], meas[1]], [meas[1], meas[2]], [meas[0], meas[2]]])


class TestEarlyExitRounding:
    """Entry rounding stops at the first table that does not sum to 1.  It
    must accept and return what rounding every table first accepts, and the
    box-LP chain must still centre every table on its rounded entries."""

    @staticmethod
    def require_same_as_rounding_every_table(m):
        sc, floats = m.scenario, float_tables(m)
        everything = round_every_table(sc, floats)
        expected = everything if exactly_consistent(sc, everything) else None
        got = scenario._rounded_model(sc, floats, scenario.MAX_DEN)
        require((got is None) == (expected is None),
                f"entry rounding {'refused' if got is None else 'accepted'} the model")
        if expected is not None:
            require(got.tables == expected, "entry rounding changed an entry")
            require(rationalize_model(m).tables == expected, "rationalize_model did not use it")
        return expected

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(mixture_models(st.integers(1, 5)), mixture_models(st.floats(0.01, 1.0))))
    def test_float_copies_of_rational_models(self, drawn):
        sc, tables = drawn
        self.require_same_as_rounding_every_table(
            make_model(sc, {c: {o: float(v) for o, v in t.items()} for c, t in tables.items()}))

    def test_coarse_graining_stops_at_its_first_table(self, monkeypatch):
        m = coarse_graining_model(np.random.default_rng(5))
        sc = m.scenario
        require(self.require_same_as_rounding_every_table(m) is None,
                "entry rounding accepted a coarse-graining model")
        everything = round_every_table(sc, float_tables(m))
        first = next(k for k, c in enumerate(sc.contexts)
                     if sum(everything[c].values(), Fraction(0)) != 1)
        calls = []
        real = scenario._round
        monkeypatch.setattr(scenario, "_round", lambda *a: calls.append(1) or real(*a))
        scenario._rounded_model(sc, float_tables(m), scenario.MAX_DEN)
        entries = sum(len(everything[c]) for c in sc.contexts[:first + 1])
        require(first < len(sc.contexts) - 1, "no table left to skip")
        require(len(calls) == entries, f"{len(calls)} entries rounded, not {entries}")

    def test_peres_mermin_box_lps_centre_on_every_rounded_table(self, monkeypatch):
        # Entry and coordinate rounding both fail on Peres-Mermin, so each
        # table's box LP runs, centred on that table's rounded entries.
        m = from_quantum(random_density(4, np.random.default_rng(7)), pm_contexts())
        sc = m.scenario
        require(self.require_same_as_rounding_every_table(m) is None,
                "entry rounding accepted a Peres-Mermin model")
        everything = round_every_table(sc, float_tables(m))
        centres = []
        real = scenario._solve_box
        monkeypatch.setattr(scenario, "_solve_box",
                            lambda values, c, *rest: centres.append(list(c))
                            or real(values, c, *rest))
        r = rationalize_model(m)
        tables = [c for c in centres if len(c) == 8]
        require(tables == [[everything[c][o] for o in sc.outcome_tuples(c)]
                           for c in sc.contexts], "a table's box LP is centred elsewhere")
        require(exactly_consistent(sc, r.tables), "not exact")


class TestNearestFraction:
    """`nearest_fraction` is ``Fraction.limit_denominator`` on integers, bit for bit."""

    @staticmethod
    def require_limit_denominator(x, max_den):
        expected = Fraction(x).limit_denominator(max_den)
        got = nearest_fraction(x, max_den)
        require(got == (expected.numerator, expected.denominator),
                f"{x!r} at {max_den}: {got}, not {expected}")

    @settings(max_examples=2000, deadline=None)
    @given(x=st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.floats(0, 1), st.floats(-1e-6, 1e-6),
                       st.floats(scenario.ZERO_TOL, 2 * scenario.ZERO_TOL)),
           max_den=st.integers(1, 10 ** 6))
    @example(x=0.0, max_den=1)
    @example(x=-0.0, max_den=10 ** 6)
    @example(x=5e-324, max_den=10 ** 6)
    @example(x=-5e-324, max_den=1)
    @example(x=2.2250738585072014e-308, max_den=10 ** 6)
    @example(x=math.nextafter(scenario.ZERO_TOL, 1), max_den=10 ** 6)
    @example(x=1 / 3, max_den=2)
    @example(x=0.5, max_den=1)
    @example(x=1.5, max_den=1)
    @example(x=2.5, max_den=1)
    @example(x=1e300, max_den=10 ** 6)
    def test_against_limit_denominator(self, x, max_den):
        self.require_limit_denominator(x, max_den)

    def test_every_max_den_on_fixed_values(self):
        # Every bound below 2000, then every 4999th up to 10**6, on pi - 3,
        # 1/pi and the float just above 1/2.
        for x in (math.pi - 3, 0.3183098861837907, math.nextafter(0.5, 1)):
            for max_den in itertools.chain(range(1, 2000), range(2000, 10 ** 6 + 1, 4999)):
                self.require_limit_denominator(x, max_den)

    def test_numpy_floats(self):
        for x in np.random.default_rng(3).random(200):
            self.require_limit_denominator(x, 10 ** 6)


def exact_pm_contexts():
    """The Peres-Mermin rows, then columns, with projectors (I - P)/2 and (I + P)/2."""
    grid = peres_mermin_square()
    labels = [["Z1", "Z2", "ZZ"], ["X2", "X1", "XX"], ["ZX", "XZ", "YY"]]
    rows = [[sign_measurement(grid[r][c], labels[r][c]) for c in range(3)] for r in range(3)]
    return rows + [list(col) for col in zip(*rows)]


def sign_measurement(p, label):
    eye = np.eye(len(p))
    return projective_context(label, [(eye - p) / 2, (eye + p) / 2], [-1, 1])


def mermin_star_contexts():
    """Mermin's star: five contexts of four commuting three-qubit Pauli products."""
    def pauli(word):
        m = np.eye(1)
        for c in word:
            m = np.kron(m, np.eye(2) if c == "I" else PAULIS[c])
        return m
    lines = ["XII IXI IIX XXX", "YII IYI IIX YYX", "YII IXI IIY YXY",
             "XII IYI IIY XYY", "XXX YYX YXY XYY"]
    made: dict = {}
    return [[made.setdefault(w, sign_measurement(pauli(w), w)) for w in line.split()]
            for line in lines]


def pm_state(a2, b2, delta):
    """sqrt(a2)|00> + sqrt(b2)|01> + c|10> + c|11>, the last two amplitudes tilted by 1 +/- delta.

    The atom |1->, of the column {Z1, X2, ZX}, has probability
    2 (c delta)**2 before normalising.  The rounded state of `scenario._exact_born` puts
    the trace correction on the |10> entry, which moves that atom's exact
    value by half a grid step.
    """
    c = math.sqrt((1 - a2 - b2) / 2)
    psi = np.array([math.sqrt(a2), math.sqrt(b2), c * (1 + delta), c * (1 - delta)])
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi)


class TestExactBornAtoms:
    """Exact Born values against `oracles.reference_exact_born`, and the fallbacks."""

    @staticmethod
    def passes():
        rng = np.random.default_rng(2026)
        for _ in range(6):
            yield "Peres-Mermin", random_density(4, rng), exact_pm_contexts()
        yield "Peres-Mermin by eigh", random_density(4, rng), pm_contexts()
        for _ in range(3):
            yield "Mermin star", random_density(8, rng), mermin_star_contexts()
        yield "Mermin star, GHZ", dm([1, 0, 0, 0, 0, 0, 0, 1]), mermin_star_contexts()

    def test_atoms_and_models_against_the_reference(self):
        for name, state, contexts in self.passes():
            qp = scenario.quantum_pass([state], contexts)
            reference = reference_exact_born(state, qp.atoms)
            require(reference is not None and min(reference) >= 0, f"{name}: bad case")
            exact = qp.exact_atoms()
            require(exact == reference, f"{name}: atoms differ from the reference")
            model = qp.exact_model()
            require(model is not None and exactly_consistent(model.scenario, model.tables),
                    f"{name}: the exact model is not exactly consistent")
            for (c, o), k in zip(qp.keys, qp.atom_of):
                require(model.tables[c][o] == (0 if k is None else exact[k]), f"{name} {c} {o}")
            # The README's bound: d**2/MAX_DEN from the state, 2 d 1e-12 from the atoms.
            d = state.shape[0]
            floats = qp.born[0, list(qp.first)]
            worst = max(abs(float(v) - f) for v, f in zip(exact, floats))
            require(worst <= d * d / scenario.MAX_DEN + 2 * d * 1e-12, f"{name}: moved {worst}")
            require(qp.section_model() is model, f"{name}: the section reads another model")

    def test_peres_mermin_runs_no_box_lp(self):
        with no_lp():
            for _, state, contexts in self.passes():
                qp = scenario.quantum_pass([state], contexts)
                require(rationalize_model(qp.section_model()) is qp.exact_model(), "rebuilt")

    @staticmethod
    def require_fallback(state, contexts):
        qp = scenario.quantum_pass([state], contexts)
        floats = qp.born[0, list(qp.first)].tolist()
        contexts = list(dict.fromkeys(tuple(sorted(c)) for c in qp.sharp_contexts))
        require(scenario._exact_born(state, qp.atoms, qp.born[0, list(qp.first)]) is None,
                "the exact Born values were kept")
        require(qp.exact_atoms() == scenario.rationalize_atoms(floats, contexts),
                "the atoms are not the rounded floats")
        return qp, reference_exact_born(state, qp.atoms)

    def test_irrational_pentagon_rounds_its_floats(self):
        pentagon = next(c for name, _, c, _ in reference_cases() if name == "pentagon")
        for state in (dm([1, 0, 0]), random_density(3, np.random.default_rng(8))):
            _, reference = self.require_fallback(state, pentagon)
            require(reference is None, "the pentagon's atoms snapped")

    def test_negative_atom_falls_back(self):
        state = pm_state(0.10000055, 0.20000155, 1.2e-4)
        qp, reference = self.require_fallback(state, exact_pm_contexts())
        floats = qp.born[0, list(qp.first)]
        negative = [k for k, v in enumerate(reference) if v < 0]
        require(negative and all(floats[k] > scenario.ZERO_TOL for k in negative),
                f"no negative atom above ZERO_TOL: {negative}")
        require(all(v == 0 for v, f in zip(reference, floats) if f <= scenario.ZERO_TOL),
                "a zero atom is not exactly 0")

    def test_zero_atom_off_zero_falls_back(self):
        state = pm_state(0.10000045, 0.20000145, 0)
        qp, reference = self.require_fallback(state, exact_pm_contexts())
        floats = qp.born[0, list(qp.first)]
        require(min(reference) >= 0, "a negative atom")
        require(any(v != 0 for v, f in zip(reference, floats) if f <= scenario.ZERO_TOL),
                "every zero atom is exactly 0")

    def test_tilted_state_keeps_its_exact_values(self):
        state = pm_state(0.10000045, 0.20000145, 1.2e-4)
        qp = scenario.quantum_pass([state], exact_pm_contexts())
        require(qp.exact_atoms() == reference_exact_born(state, qp.atoms), "fell back")


class TestJson:
    def test_round_trip_rational(self):
        m = pr_box_model()
        again = model_from_json(model_to_json(m))
        assert again.tables == m.tables
        assert again.scenario.contexts == m.scenario.contexts

    def test_rational_strings_parsed(self):
        doc = {
            "measurements": [{"label": "A", "outcomes": [0, 1]}],
            "contexts": [["A"]],
            "tables": {"A": {"0": "3/10", "1": "7/10"}},
        }
        m = model_from_json(doc)
        assert m.tables[("A",)][(0,)] == Fraction(3, 10)

    def test_missing_field_is_schema_error(self):
        with pytest.raises(SchemaError):
            model_from_json({"measurements": []})

    def test_bad_rational_is_schema_error(self):
        doc = {
            "measurements": [{"label": "A", "outcomes": [0, 1]}],
            "contexts": [["A"]],
            "tables": {"A": {"0": "1/0", "1": "1"}},
        }
        with pytest.raises(SchemaError):
            model_from_json(doc)

    def test_unknown_outcome_token_is_schema_error(self):
        doc = {
            "measurements": [{"label": "A", "outcomes": [0, 1]}],
            "contexts": [["A"]],
            "tables": {"A": {"2": "1"}},
        }
        with pytest.raises(SchemaError):
            model_from_json(doc)

    def test_float_model_round_trips_by_value(self):
        m = kcbs_model()
        again = model_from_json(model_to_json(m))
        for c in m.scenario.contexts:
            for o, v in m.tables[c].items():
                assert float(again.tables[c][o]) == pytest.approx(v, abs=1e-15)


def read_outcome(reader, *args):
    """What `reader` returns, or the message of the `SchemaError` it raises."""
    try:
        return reader(*args)
    except SchemaError as exc:
        return f"refused: {exc}"


ARABIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                     "\u0665\u0666\u0667\u0668\u0669")

LITERAL_CORPUS = [
    # integers, signs, leading zeros, whitespace
    "3", "+3", "-3", "007", "-0", "+0", " 3", "3 ", "\t3\n", "+ 3", "- 3", "++3",
    "\u00a03\u3000", "\x1c3\x1f", "\u200b3",
    # p/q with signs, whitespace and zeros
    "1/2", "+1/2", "-1/2", " 1/2", "1/2 ", "\n-1/2\t", "1 /2", "1/ 2", "1 / 2",
    "1/+2", "1/-2", "-1/-2", "1/ -2", "007/010", "0/5", "-0/5", "1/0", "0/0", "-1/0",
    "1/2/3", "/2", "1/", "/", "+/2", "1//2",
    # underscores
    "1_000", "1__000", "_1", "1_", "1_0/2_0", "1/2_", "1/_2", "_1/2", "1_/2",
    # decimals and exponents
    "0.25", ".5", "5.", "-.5", "+0.5", "1.5/2", "1/2.5", "1e3", "1E-3", "-2.5e-1",
    "1e", "e5", "1e+5", "1e1_0", "1e_5", "1e5_", "1_e5", "1.5_0", "1_.5", "1.e2",
    "1e1000", "1e-1000", "1e1001", "1e-1001", "0.5e-1_001", "1/2e3", "1/2e3000",
    # Unicode digits
    "12".translate(ARABIC), "1/2".translate(ARABIC), "1e3".translate(ARABIC),
    "\uff11\uff12", "\uff11/\uff12", "\u00b2", "\u00bd", "1/\u00b2",
    # not numbers
    "", " ", "nan", "inf", "-inf", "0x10", "1j", "x", "1,2",
    # the digit bound
    "1" * 1000, "1" * 1001, " " * 1001 + "1", "1/" + "1" * 998, "1/" + "1" * 999,
    # non-strings
    0, 7, -3, 10 ** 2000, True, False, 0.5, None, [1], {"p": 1},
]


# The characters exact literals are made of.
LITERAL_CHARACTERS = "0123456789/._eE+- \u0661\t"


class TestLiteralReader:
    """`rational_literal` reads integer and 'p/q' strings with `int` and
    leaves every other form to `Fraction`; it must accept, refuse
    and value every literal as `oracles.reference_rational_literal`, which
    reads each with `Fraction(str)` behind the same bound, does."""

    @pytest.mark.parametrize("value", LITERAL_CORPUS, ids=lambda v: repr(v)[:24])
    def test_corpus_matches_the_reference(self, value):
        got = read_outcome(rational_literal, value, "x")
        want = read_outcome(reference_rational_literal, value, "x")
        require(got == want and type(got) is type(want), f"{value!r}: {got!r}, not {want!r}")

    @settings(max_examples=500, deadline=None)
    @given(st.text(LITERAL_CHARACTERS, max_size=8))
    def test_short_strings_match_the_reference(self, value):
        got = read_outcome(rational_literal, value, "x")
        want = read_outcome(reference_rational_literal, value, "x")
        require(got == want, f"{value!r}: {got!r}, not {want!r}")

    @pytest.mark.parametrize("value", ["1_000", "1_0/2_0", "1 / 2", "1 /2", "1/ 2"])
    def test_version_dependent_forms_are_read_by_fraction(self, value):
        # Fraction reads underscores from Python 3.11 on and spaces beside
        # the slash from 3.12 on; these forms must be accepted or refused as
        # the running Fraction(str) does, so a Fraction that reads every
        # string as 7 reads them all as 7.
        class Sevens(Fraction):
            def __new__(cls, numerator=0, denominator=None):
                if isinstance(numerator, str):
                    return super().__new__(cls, 7)
                return super().__new__(cls, numerator, denominator)

        with mock.patch.object(scenario, "Fraction", Sevens):
            require(rational_literal("10/20", "x") == Fraction(1, 2), "int path")
            require(rational_literal(value, "x") == 7, f"{value!r} not read by Fraction")

    @pytest.mark.parametrize("value", ["1e_5", "1e5_", "1e_", "2E-_3"])
    def test_malformed_exponent_is_a_bad_entry(self, value):
        with pytest.raises(SchemaError, match="bad probability entry"):
            rational_literal(value, "probability entry")
        doc = {"measurements": [{"label": "A", "outcomes": [0, 1]}],
               "contexts": [["A"]], "tables": {"A": {"0": value, "1": "1"}}}
        with pytest.raises(SchemaError, match="bad probability entry"):
            model_from_json(doc)

    def test_exponent_in_other_digits_is_bounded(self):
        # Seven Arabic-Indic nines: an exponent near 10^7, refused unread.
        value = "1e" + "9999999".translate(ARABIC)
        with pytest.raises(SchemaError, match="exceeds 1000 digits"):
            rational_literal(value, "x")
        require(rational_literal("1e" + "3".translate(ARABIC), "x") == 1000,
                "a small exponent in other digits")


def write_literal(draw, v: Fraction) -> object:
    """One exact way, drawn, of writing ``v`` in a document."""
    p, q = v.numerator, v.denominator
    d = next((d for d in range(7) if 10 ** d % q == 0), None)
    forms = ["pq", "pq-scaled", "pq-spaced"]
    if q == 1:
        forms += ["int", "int-string"]
    if d is not None:
        forms += ["decimal", "exponent"]
    form = draw(st.sampled_from(forms))
    if form == "int":
        return p
    if form == "int-string":
        return draw(st.sampled_from(["", "+", "00", " "])) + str(p)
    if form == "pq-scaled":
        k = draw(st.integers(2, 12))
        return f"{p * k}/{q * k}"
    if form == "pq-spaced":
        text = (draw(st.sampled_from(["+", " ", "\t0"])) + f"{p}/{q}"
                + draw(st.sampled_from(["", " ", "\n"])))
        return text.translate(ARABIC) if draw(st.booleans()) else text
    if form in ("decimal", "exponent"):
        n = p * 10 ** d // q
        if form == "exponent":
            return f"{n}e-{d}"
        digits = str(n).rjust(d + 1, "0")
        return f"{digits[:len(digits) - d]}.{digits[len(digits) - d:]}" if d else digits
    return f"{p}/{q}"


FAULTS = (None, None, None, "negative", "off", "token", "literal", "float", "missing",
          "arity")


@st.composite
def exact_documents(draw):
    """An empirical document with context keys and outcome keys in a drawn order.

    The scenario is an n-cycle (n from 3 to 5) or a two-setting box, its
    measurements with outcomes (0, 1), ("a", "b") or (0, 1, 2).  Each table
    has drawn weights; each entry is written by `write_literal`, and zero
    entries may be left out.  In 7 of 10 documents a drawn fault makes one
    entry negative, moves one off its table's sum, writes an unknown token,
    a bad literal, a float or a key of the wrong arity, or drops a table.
    """
    if draw(st.booleans()):
        n = draw(st.integers(3, 5))
        labels = [f"M{i}" for i in range(n)]
        contexts = [[labels[i], labels[(i + 1) % n]] for i in range(n)]
    else:
        labels = ["A0", "A1", "B0", "B1"]
        contexts = [[a, b] for a in labels[:2] for b in labels[2:]]
    outcomes = {m: draw(st.sampled_from([[0, 1], ["a", "b"], [0, 1, 2]])) for m in labels}
    tables = {}
    for ctx in draw(st.permutations(contexts)):
        order = draw(st.permutations(ctx))
        joint = list(itertools.product(*(outcomes[m] for m in order)))
        weights = draw(st.lists(st.integers(0, 4), min_size=len(joint), max_size=len(joint)))
        weights[draw(st.integers(0, len(joint) - 1))] += 1
        entries = {}
        for outc, w in draw(st.permutations(list(zip(joint, weights)))):
            if w == 0 and draw(st.booleans()):
                continue
            entries[",".join(map(str, outc))] = write_literal(draw, Fraction(w, sum(weights)))
        tables[",".join(order)] = entries
    fault = draw(st.sampled_from(FAULTS))
    key = draw(st.sampled_from(sorted(tables)))
    okey = draw(st.sampled_from(sorted(tables[key])))
    if fault == "negative":
        tables[key][okey] = "-1/7"
    elif fault == "off":
        tables[key][okey] = str(rational_literal(tables[key][okey], "x") + Fraction(1, 97))
    elif fault == "token":
        tables[key]["9z," + okey.split(",", 1)[1]] = "0"
    elif fault == "literal":
        tables[key][okey] = draw(st.sampled_from(["1/-2", "1e_5", "x", True, None, "1/0"]))
    elif fault == "float":
        tables[key][okey] = float(rational_literal(tables[key][okey], "x"))
    elif fault == "missing":
        del tables[key]
    elif fault == "arity":
        tables[key][okey + ",0"] = "0"
    return {"measurements": [{"label": m, "outcomes": outcomes[m]} for m in labels],
            "contexts": contexts, "tables": tables}


class TestDocumentReaderReference:
    """`model_from_json` resolves tokens by dict, reads each literal once
    and clears the denominators once per model; on random documents with
    permuted context keys it must accept, refuse and read what
    `oracles.reference_model_from_json`, one entry and table at a time,
    does, and its integer tables must be the exact tables over their
    common denominator."""

    @settings(max_examples=300, deadline=None)
    @given(exact_documents())
    def test_tables_match_the_reference(self, doc):
        got = read_outcome(model_from_json, doc)
        want = read_outcome(reference_model_from_json, doc)
        if isinstance(want, str) or isinstance(got, str):
            require(got == want, f"{got!r}, not {want!r}")
            return
        require(list(got.tables.items()) == list(want.tables.items()),
                "the tables differ")
        require(all(type(v) is type(w) for c in want.tables
                    for v, w in zip(got.tables[c].values(), want.tables[c].values())),
                "an entry changed type")
        if want.is_rational:
            ints, scale = got.integer_tables
            require(all(Fraction(ints[c][o], scale) == v for c, t in want.tables.items()
                        for o, v in t.items()), "the integer tables differ")
            require(all(sum(t.values()) == scale for t in ints.values()),
                    "an integer table does not sum to the scale")

    def test_outcomes_sharing_a_token_are_refused(self):
        # A token could name either outcome, and a table key either entry.
        doc = {"measurements": [{"label": "A", "outcomes": ["1", 1, 2]}],
               "contexts": [["A"]], "tables": {"A": {"1": "1/3", "2": "2/3"}}}
        with pytest.raises(SchemaError, match=r"outcomes \['1', 1, 2\] of measurement 'A'"):
            model_from_json(doc)


class TestDuplicateTables:
    """Two tables for one context are refused, naming both keys."""

    def test_document_with_both_key_orders(self):
        doc = model_to_json(pr_box_model())
        doc["tables"]["B0,A0"] = doc["tables"]["A0,B0"]
        with pytest.raises(SchemaError, match="tables 'A0,B0' and 'B0,A0' are both context"):
            model_from_json(doc)

    def test_make_model_with_both_key_orders(self):
        sc = make_scenario([("A", (0, 1)), ("B", (0, 1))], [["A", "B"]])
        table = {(0, 1): HALF, (1, 0): HALF}
        with pytest.raises(ValueError, match=r"tables \('B', 'A'\) and 'A,B' are both context"):
            make_model(sc, {("B", "A"): table, "A,B": table})


class TestBoxLpAgainstReference:
    """Every stage-3 box LP returns the table `oracles.reference_solve_box` returns.

    The reference builds the dense ``Fraction`` rows the package once built
    for each attempt and solves them by `oracles.reference_solve_eq_nonneg`;
    the package builds one column source per box from sparse 0/1 rows,
    changes only the right-hand side between attempts, skips an empty box
    and re-checks each result.
    """

    @pytest.fixture
    def boxes(self, monkeypatch):
        """(package, reference) tables of every box LP the test runs."""
        pairs = []
        real = scenario._solve_box

        def checked(*args):
            got = real(*args)
            pairs.append((got, reference_solve_box(*args)))
            return got

        monkeypatch.setattr(scenario, "_solve_box", checked)
        return pairs

    @staticmethod
    def require_same(pairs):
        require(pairs, "no box LP ran")
        for k, (got, want) in enumerate(pairs):
            require(got is not None and got == want, f"box {k}: {got}, not {want}")

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_float_peres_mermin_tables(self, boxes, seed):
        rationalize_model(from_quantum(random_density(4, np.random.default_rng(seed)),
                                       pm_contexts()))
        self.require_same(boxes)

    @pytest.mark.parametrize("seed", [1, 3, 4])
    def test_float_pentagons_with_the_firing_outcome_last(self, boxes, seed):
        _, obs, _ = kcbs_construction()
        pvms = [pvm_from_observable(a, f"A{j}") for j, a in enumerate(obs)]
        contexts = [[pvms[j], pvms[(j + 1) % 5]] for j in range(5)]
        rationalize_model(from_quantum(random_density(3, np.random.default_rng(seed)),
                                       contexts))
        self.require_same(boxes)

    @pytest.mark.parametrize("values", [
        [0.20000055, 0.30000055, 0.49999855, 3.5e-7, 3.5e-7],
        [0.2000003, 0.3000003, 0.4999994, 0.0, 0.0],
    ], ids=["negative", "zero"])
    def test_unpinnable_atoms(self, boxes, values):
        rationalize_atoms(values, [[0, 1, 2, 3], [0, 1, 2, 4]])
        self.require_same(boxes)

    def test_shared_atom_gpt(self, boxes):
        induced_model(shared_atom_gpt(random_density(4, np.random.default_rng(3))), 0)
        self.require_same(boxes)
