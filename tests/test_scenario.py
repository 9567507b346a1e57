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
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextuality import scenario
from contextuality.classify import classify_model
from contextuality.quantum import (
    PAULI_X,
    PAULI_Z,
    dm,
    kcbs_construction,
    peres_mermin_square,
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
    NotASubset,
    SchemaError,
    SequentialStats,
    exact_no_disturbance,
    flip_error_bounds,
    from_quantum,
    make_model,
    make_scenario,
    marginalize,
    model_from_json,
    model_to_json,
    rationalize_model,
    sequential_stats_from_quantum,
    validate_no_disturbance,
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
    def test_identity_on_full_context(self):
        t = {(0, 0): HALF, (1, 1): HALF}
        assert marginalize(t, ("A", "B"), ("A", "B")) == t

    def test_uniform_to_single_factor(self):
        t = {o: Fraction(1, 4) for o in itertools.product((0, 1), repeat=2)}
        assert marginalize(t, ("A", "B"), ("B",)) == {(0,): HALF, (1,): HALF}

    def test_anticorrelated_table(self):
        t = {(0, 1): HALF, (1, 0): HALF}
        assert marginalize(t, ("A", "B"), ("A",)) == {(0,): HALF, (1,): HALF}

    def test_not_a_subset(self):
        with pytest.raises(NotASubset):
            marginalize({(0,): Fraction(1)}, ("A",), ("B",))

    def test_restriction_composes_exactly(self):
        outs = list(itertools.product((0, 1), repeat=3))
        weights = [Fraction(k + 1, 36) for k in range(8)]
        t = dict(zip(outs, weights))
        via = marginalize(marginalize(t, ("A", "B", "C"), ("A", "B")), ("A", "B"), ("B",))
        direct = marginalize(t, ("A", "B", "C"), ("B",))
        assert via == direct


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
        assert exact_no_disturbance(pr_box_model())

    @staticmethod
    def count_marginals(monkeypatch) -> list:
        calls = []
        real = scenario.marginalize
        monkeypatch.setattr(scenario, "marginalize",
                            lambda *a: calls.append(a[1:]) or real(*a))
        return calls

    def test_each_context_marginal_computed_once_per_check(self, monkeypatch):
        # 13 settings per party: 169 contexts, each overlapping others on its
        # A and its B measurement, so 338 (context, overlap) marginals per
        # check.  An exact model is checked once, by the global-section
        # solver's exact pass-through test.
        n = 13
        sc = make_scenario([(f"A{x}", (0, 1)) for x in range(n)]
                           + [(f"B{y}", (0, 1)) for y in range(n)],
                           [[f"A{x}", f"B{y}"] for x in range(n) for y in range(n)])
        quarter = Fraction(1, 4)
        model = make_model(sc, {c: {o: quarter for o in sc.outcome_tuples(c)}
                                for c in sc.contexts})
        calls = self.count_marginals(monkeypatch)
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
def small_denominator_models(draw):
    """A classical mixture of global assignments with small integer weights.

    Measurements have 2 or 3 outcomes; contexts are the consecutive pairs of
    a 3- or 4-cycle, so every measurement is shared by two contexts, plus
    optionally the triple {M0, M1, M2}, which contains two of the pairs.
    Returns the scenario and its exact tables.
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
    weights = draw(st.lists(st.integers(1, 5), min_size=len(points),
                            max_size=len(points)))
    total = sum(weights)
    tables = {}
    for c in sc.contexts:
        idx = [labels.index(m) for m in c]
        table = {o: Fraction(0) for o in sc.outcome_tuples(c)}
        for point, w in zip(points, weights):
            table[tuple(point[i] for i in idx)] += Fraction(w, total)
        tables[c] = table
    return sc, tables


def no_lp():
    """Fail the test if `rationalize_model` reaches its box-LP path."""
    return mock.patch.object(scenario, "solve_box_eq",
                             side_effect=AssertionError("box LP ran"))


class TestRationalize:
    def test_exact_model_passes_through(self):
        m = pr_box_model()
        assert rationalize_model(m) is m

    def test_kcbs_float_model_becomes_exact(self):
        m = kcbs_model()
        r = rationalize_model(m)
        assert r.is_rational
        assert exact_no_disturbance(r)
        for ctx in m.scenario.contexts:
            assert sum(r.tables[ctx].values()) == 1
            for outc, v in m.tables[ctx].items():
                assert abs(float(r.tables[ctx][outc]) - v) < 1e-3
        # orthogonal consecutive projectors force an exact zero
        for ctx in r.scenario.contexts:
            assert r.tables[ctx][(1, 1)] == 0

    def test_magic_square_zeros_are_pinned(self):
        rho = random_density(4, np.random.default_rng(7))
        r = rationalize_model(from_quantum(rho, pm_contexts()))
        assert exact_no_disturbance(r)
        zeros = sum(1 for t in r.tables.values() for v in t.values() if v == 0)
        assert zeros == 6 * 4

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
            assert exact_no_disturbance(r)
            worst = max(abs(float(r.tables[c][o]) - m.tables[c][o])
                        for c in m.scenario.contexts for o in m.tables[c])
            assert worst < 1e-3

    @settings(max_examples=120, deadline=None)
    @given(small_denominator_models())
    def test_float_copies_of_small_denominator_models_come_back_exactly(self, drawn):
        sc, tables = drawn
        floats = make_model(sc, {c: {o: float(v) for o, v in t.items()}
                                 for c, t in tables.items()})
        with no_lp():
            r = rationalize_model(floats)
        assert r.tables == tables

    @pytest.mark.parametrize("max_den", [10 ** 3, 10 ** 6])
    def test_fast_path_entries_within_half_a_grid_step(self, max_den):
        m = kcbs_model()
        with no_lp():
            r = rationalize_model(m, max_den=max_den)
        assert r.is_rational and exact_no_disturbance(r)
        bound = Fraction(1, 2 * max_den)
        for c, table in m.tables.items():
            assert sum(r.tables[c].values()) == 1
            for outc, v in table.items():
                assert r.tables[c][outc].denominator <= max_den
                assert abs(r.tables[c][outc] - Fraction(v)) <= bound

    def test_random_pentagon_state_takes_the_lp_path(self, monkeypatch):
        _, obs, _ = kcbs_construction()
        pvms = [pvm_from_observable(a, f"A{j}") for j, a in enumerate(obs)]
        contexts = [[pvms[j], pvms[(j + 1) % 5]] for j in range(5)]
        m = from_quantum(random_density(3, np.random.default_rng(211)), contexts)
        calls = []
        real = scenario.solve_box_eq
        monkeypatch.setattr(scenario, "solve_box_eq",
                            lambda *a: calls.append(1) or real(*a))
        r = rationalize_model(m)
        assert calls
        assert r.is_rational and exact_no_disturbance(r)
        for ctx in r.scenario.contexts:
            assert sum(r.tables[ctx].values()) == 1
            # orthogonal consecutive projectors: the zero stays pinned
            assert m.tables[ctx][(1, 1)] <= 1e-9
            assert r.tables[ctx][(1, 1)] == 0


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
