"""Global-section LP checks.

Verification strategy:
- matrix shapes and section counts are asserted against closed-form counts;
- the column-sparse incidence matrix equals the dense row-by-row oracle
  matrix on random scenarios;
- every infeasible verdict's separating functional is re-multiplied against
  the oracle matrix in the test itself, independent of the library's own
  matrix and check;
- the pentagon and box examples are cross-checked against two independent
  oracles: support counting over deterministic assignments, and exact
  convex-hull membership among the deterministic behaviours;
- feasible verdicts are round-tripped through the induced hidden-variable
  model, which must reproduce the tables exactly in rational arithmetic.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextuality.exactlp import TooLargeError
from contextuality.quantum import dm, kcbs_construction, pvm_from_observable, random_density, peres_mermin_square
from contextuality.scenario import (
    DisturbingModel,
    make_model,
    make_scenario,
    from_quantum,
)
from contextuality.sheaf import (
    HiddenVariableModel,
    InvalidCertificate,
    build_incidence_matrix,
    enumerate_global_assignments,
    enumerate_local_sections,
    global_assignment_count,
    hv_model_from_section,
    solve_global_section,
)
from oracles import enumerate_vertices, reference_hulls_intersect, reference_incidence_rows

HALF = Fraction(1, 2)


def chsh_scenario():
    return make_scenario(
        [("A0", (0, 1)), ("A1", (0, 1)), ("B0", (0, 1)), ("B1", (0, 1))],
        [["A0", "B0"], ["A0", "B1"], ["A1", "B0"], ["A1", "B1"]],
    )


def box_model(z00, z01, z10, z11, a0=HALF, a1=HALF, b0=HALF, b1=HALF):
    """Two-setting box with prescribed singles and P(0,0) per context (exactly consistent)."""
    singles = {"A0": a0, "A1": a1, "B0": b0, "B1": b1}
    zs = {("A0", "B0"): z00, ("A0", "B1"): z01, ("A1", "B0"): z10, ("A1", "B1"): z11}
    tables = {}
    for (ma, mb), z in zs.items():
        a, b = singles[ma], singles[mb]
        tables[(ma, mb)] = {(0, 0): z, (0, 1): a - z, (1, 0): b - z,
                            (1, 1): 1 - a - b + z}
    return make_model(chsh_scenario(), tables)


def pr_box_model():
    return box_model(HALF, HALF, HALF, Fraction(0))


def kcbs_model():
    _, obs, _ = kcbs_construction()
    pvms = [pvm_from_observable(a, f"A{j}") for j, a in enumerate(obs)]
    return from_quantum(dm([1, 0, 0]), [[pvms[j], pvms[(j + 1) % 5]] for j in range(5)])


def pm_model(seed=0):
    grid = peres_mermin_square()
    labels = [["Z1", "Z2", "ZZ"], ["X2", "X1", "XX"], ["ZX", "XZ", "YY"]]
    pvms = {labels[r][c]: pvm_from_observable(grid[r][c], labels[r][c])
            for r in range(3) for c in range(3)}
    rows = [[pvms[labels[r][c]] for c in range(3)] for r in range(3)]
    cols = [[pvms[labels[r][c]] for r in range(3)] for c in range(3)]
    rho = random_density(4, np.random.default_rng(seed))
    return from_quantum(rho, rows + cols)


def recheck_dual(result):
    """Independent multiplication check of an infeasibility certificate."""
    y = result.dual
    entries = reference_incidence_rows(result.model.scenario)
    v = [result.model.tables[ctx][sec] for ctx, sec in result.matrix.rows]
    p, q = len(entries), len(entries[0])
    assert len(y) == p
    for j in range(q):
        assert sum(y[i] * entries[i][j] for i in range(p)) <= 0
    assert sum(y[i] * v[i] for i in range(p)) > 0


def oracle_columns(scenario) -> tuple:
    """Rows of each column's 1s in the dense oracle matrix, which must be all 0/1."""
    dense = reference_incidence_rows(scenario)
    assert {v for row in dense for v in row} <= {0, 1}
    return tuple(tuple(i for i, row in enumerate(dense) if row[j])
                 for j in range(len(dense[0])))


@st.composite
def random_scenarios(draw):
    """2- and 3-outcome measurements; contexts of 1-3 of them, sharing freely."""
    n_meas = draw(st.integers(1, 5))
    measurements = [(f"M{k}", tuple(range(draw(st.sampled_from([2, 3])))))
                    for k in range(n_meas)]
    labels = [lab for lab, _ in measurements]
    contexts = draw(st.lists(
        st.lists(st.sampled_from(labels), min_size=1, max_size=3, unique=True),
        min_size=1, max_size=5, unique_by=frozenset))
    covered = {lab for ctx in contexts for lab in ctx}
    contexts += [[lab] for lab in labels if lab not in covered]
    return make_scenario(measurements, contexts)


@settings(max_examples=120, deadline=None)
@given(random_scenarios())
def test_sparse_columns_equal_dense_oracle(sc):
    mat = build_incidence_matrix(sc)
    assert mat.columns == oracle_columns(sc)
    assert mat.shape == (len(reference_incidence_rows(sc)), len(mat.columns))


class TestSections:
    def test_counts(self):
        sc = make_scenario([("A", (0, 1)), ("B", (0, 1))], [["A", "B"]])
        assert len(enumerate_local_sections(sc)) == 4
        assert len(enumerate_local_sections(kcbs_model().scenario)) == 20
        assert len(enumerate_local_sections(pm_model().scenario)) == 48

    def test_lexicographic_order(self):
        sc = make_scenario([("A", (0, 1)), ("B", (0, 1))], [["A", "B"]])
        secs = [sec for _, sec in enumerate_local_sections(sc)]
        assert secs == [(0, 0), (0, 1), (1, 0), (1, 1)]


class TestIncidenceMatrix:
    def test_single_measurement_identity(self):
        sc = make_scenario([("A", (0, 1))], [["A"]])
        mat = build_incidence_matrix(sc)
        assert mat.shape == (2, 2)
        assert mat.columns == ((0,), (1,))

    def test_pentagon_shape(self):
        mat = build_incidence_matrix(kcbs_model().scenario)
        assert mat.shape == (20, 32)
        assert global_assignment_count(kcbs_model().scenario) == 32

    def test_magic_square_shape(self):
        mat = build_incidence_matrix(pm_model().scenario)
        assert mat.shape == (48, 512)

    def test_column_sums_equal_context_count(self):
        for model in (kcbs_model(), pm_model()):
            mat = build_incidence_matrix(model.scenario)
            p, q = mat.shape
            contexts = model.scenario.contexts
            assert len(mat.columns) == q
            for column in mat.columns:
                assert [mat.rows[i][0] for i in column] == list(contexts)
                assert all(0 <= i < p for i in column)

    def test_sparse_lp_form_is_all_ones(self):
        mat = build_incidence_matrix(kcbs_model().scenario)
        lp = mat.sparse()
        assert (lp.m, lp.n) == mat.shape
        assert [idx for idx, _ in lp.cols] == list(mat.columns)
        assert all(vals == (1,) * 5 for _, vals in lp.cols)

    def test_too_many_assignments_refused(self):
        meas = [(f"M{i}", (0, 1)) for i in range(25)]
        contexts = [[f"M{i}" for i in range(5 * k, 5 * k + 5)] for k in range(5)]
        sc = make_scenario(meas, contexts)
        with pytest.raises(TooLargeError, match="global assignments"):
            build_incidence_matrix(sc)


class TestSolveGlobalSection:
    def test_deterministic_model_gives_dirac_weight(self):
        tables = {c: {(0, 0): Fraction(1)} for c in chsh_scenario().contexts}
        model = make_model(chsh_scenario(), tables)
        res = solve_global_section(model)
        assert res.feasible
        assignments = enumerate_global_assignments(model.scenario)
        target = assignments.index((0, 0, 0, 0))
        assert res.primal[target] == 1
        assert sum(res.primal) == 1

    def test_uniform_model_feasible_and_round_trips(self):
        tables = {c: {o: Fraction(1, 4) for o in itertools.product((0, 1), repeat=2)}
                  for c in chsh_scenario().contexts}
        model = make_model(chsh_scenario(), tables)
        res = solve_global_section(model)
        assert res.feasible
        hv = hv_model_from_section(res.primal, model.scenario)
        assert hv.induced_model().tables == model.tables

    def test_pentagon_model_infeasible_with_verified_dual(self):
        res = solve_global_section(kcbs_model())
        assert not res.feasible
        recheck_dual(res)

    def test_magic_square_infeasible_for_random_states(self):
        for seed in range(3):
            res = solve_global_section(pm_model(seed))
            assert not res.feasible
            recheck_dual(res)

    def test_pr_box_infeasible(self):
        res = solve_global_section(pr_box_model())
        assert not res.feasible
        recheck_dual(res)

    def test_pr_box_support_oracle(self):
        # independent argument: every deterministic assignment must place, in
        # each context, its restriction inside the table's support; none of the
        # 16 assignments survives all four box constraints.
        model = pr_box_model()
        survivors = 0
        for t in itertools.product((0, 1), repeat=4):
            lam = dict(zip(model.scenario.measurements, t))
            ok = all(model.tables[ctx][tuple(lam[m] for m in ctx)] > 0
                     for ctx in model.scenario.contexts)
            survivors += ok
        assert survivors == 0

    def test_disturbing_model_rejected(self):
        sc = make_scenario(
            [("A", (0, 1)), ("B", (0, 1)), ("C", (0, 1))],
            [["A", "B"], ["A", "C"]])
        m = make_model(sc, {("A", "B"): {(0, 0): 0.7, (1, 1): 0.3},
                            ("A", "C"): {(0, 0): 0.6, (1, 1): 0.4}})
        with pytest.raises(DisturbingModel):
            solve_global_section(m)

    def test_certificate_payload(self):
        res = solve_global_section(pr_box_model())
        cert = res.certificate()
        assert cert["verdict"] == "infeasible"
        assert len(cert["dual"]) == 16
        assert len(cert["rows"]) == len(cert["rhs"]) == 16


class TestHiddenVariableModels:
    def test_dirac_weight_single_state(self):
        sc = chsh_scenario()
        weights = [Fraction(0)] * 16
        weights[5] = Fraction(1)
        hv = hv_model_from_section(weights, sc)
        assert len(hv.assignments) == 1
        assert hv.weights == (Fraction(1),)

    def test_uniform_two_states(self):
        sc = chsh_scenario()
        weights = [Fraction(0)] * 16
        weights[0] = HALF
        weights[15] = HALF
        hv = hv_model_from_section(weights, sc)
        assert hv.weights == (HALF, HALF)
        assert hv.assignments[0] == {"A0": 0, "A1": 0, "B0": 0, "B1": 0}
        assert hv.assignments[1] == {"A0": 1, "A1": 1, "B0": 1, "B1": 1}

    def test_response_factorises(self):
        sc = chsh_scenario()
        weights = [Fraction(0)] * 16
        weights[3] = Fraction(1)
        hv = hv_model_from_section(weights, sc)
        lam = hv.assignments[0]
        table = hv.response(lam, ("A0", "B0"))
        point = (lam["A0"], lam["B0"])
        for sec, val in table.items():
            expected = Fraction(1) if sec == point else Fraction(0)
            assert val == expected

    def test_random_pushforward_round_trip_exact(self):
        sc = chsh_scenario()
        rng = np.random.default_rng(11)
        raw = [Fraction(int(k), 1) for k in rng.integers(0, 9, size=16)]
        total = sum(raw)
        weights = [w / total for w in raw]
        hv = hv_model_from_section(weights, sc)
        model = hv.induced_model()
        res = solve_global_section(model)
        assert res.feasible
        again = hv_model_from_section(res.primal, sc).induced_model()
        assert again.tables == model.tables

    def test_invalid_certificates_rejected(self):
        sc = chsh_scenario()
        with pytest.raises(InvalidCertificate):
            hv_model_from_section([Fraction(1)] * 3, sc)
        bad = [Fraction(0)] * 16
        bad[0] = Fraction(2)
        bad[1] = Fraction(-1)
        with pytest.raises(InvalidCertificate):
            hv_model_from_section(bad, sc)
        with pytest.raises(InvalidCertificate):
            hv_model_from_section([Fraction(1, 16)] * 15 + [Fraction(0)], sc)


class TestOracleEquivalence:
    @staticmethod
    def behaviour_vector(model):
        return [model.tables[ctx][sec]
                for ctx in model.scenario.contexts
                for sec in model.scenario.outcome_tuples(ctx)]

    @staticmethod
    def deterministic_vectors(scenario):
        vecs = []
        for t in itertools.product(*(scenario.outcomes[m] for m in scenario.measurements)):
            lam = dict(zip(scenario.measurements, t))
            vec = []
            for ctx in scenario.contexts:
                point = tuple(lam[m] for m in ctx)
                vec.extend(Fraction(1) if sec == point else Fraction(0)
                           for sec in scenario.outcome_tuples(ctx))
            vecs.append(vec)
        return vecs

    def test_lp_verdict_matches_hull_membership(self):
        rng = np.random.default_rng(23)
        lds = self.deterministic_vectors(chsh_scenario())
        feasible_seen = infeasible_seen = 0
        for _ in range(40):
            singles = [Fraction(int(k), 12) for k in rng.integers(1, 12, size=4)]
            a0, a1, b0, b1 = singles
            zs = []
            for a, b in [(a0, b0), (a0, b1), (a1, b0), (a1, b1)]:
                lo = max(Fraction(0), a + b - 1)
                hi = min(a, b)
                t = Fraction(int(rng.integers(0, 13)), 12)
                zs.append(lo + t * (hi - lo))
            model = box_model(*zs, a0=a0, a1=a1, b0=b0, b1=b1)
            res = solve_global_section(model)
            member = reference_hulls_intersect([self.behaviour_vector(model)], lds)
            assert res.feasible == member
            feasible_seen += res.feasible
            infeasible_seen += not res.feasible
        assert feasible_seen > 0 and infeasible_seen > 0

    def test_lp_verdict_matches_vertex_enumeration(self):
        sc = make_scenario(
            [("A", (0, 1)), ("B", (0, 1)), ("C", (0, 1))],
            [["A", "B"], ["B", "C"], ["A", "C"]])
        rng = np.random.default_rng(29)
        mat = build_incidence_matrix(sc)
        a_rows = [[Fraction(e) for e in row] for row in reference_incidence_rows(sc)]
        for _ in range(20):
            singles = [Fraction(int(k), 8) for k in rng.integers(1, 8, size=3)]
            sa, sb, sc_ = singles
            tables = {}
            for (x, y), (ma, mb) in zip([(sa, sb), (sb, sc_), (sa, sc_)],
                                        [("A", "B"), ("B", "C"), ("A", "C")]):
                lo = max(Fraction(0), x + y - 1)
                hi = min(x, y)
                t = Fraction(int(rng.integers(0, 9)), 8)
                z = lo + t * (hi - lo)
                tables[(ma, mb)] = {(0, 0): z, (0, 1): x - z, (1, 0): y - z,
                                    (1, 1): 1 - x - y + z}
            model = make_model(sc, tables)
            res = solve_global_section(model)
            v = [model.tables[ctx][sec] for ctx, sec in mat.rows]
            verts = enumerate_vertices(a_rows, v)
            assert res.feasible == (len(verts) > 0)
