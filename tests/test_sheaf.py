"""Global-section LP checks.

Verification strategy:
- matrix shapes and section counts are asserted against closed-form counts;
- the implicit incidence matrix's columns equal the dense row-by-row
  oracle matrix on random scenarios;
- on random exactly consistent models with up to 12 measurements, the
  section verdict equals the reference simplex's, the support reproduces
  the tables, every dual is <= 0 on every enumerated column, and the
  elimination oracle's maximum and its smallest maximizer equal a
  column-by-column scan;
- every infeasible verdict's separating functional is re-multiplied against
  the oracle matrix in the test itself, independent of the library's own
  matrix and check;
- the pentagon and box examples are cross-checked against two independent
  oracles: support counting over deterministic assignments, and exact
  convex-hull membership among the deterministic behaviours;
- feasible verdicts are round-tripped through the induced hidden-variable
  model, which must reproduce the tables exactly in rational arithmetic;
- the Collins-Gisin row basis the LP solves on has the Collins-Gisin rank,
  spans the full system by exact row reduction, and gives the verdict of
  a plain solve of the full listed system, with a dual of 0 on its
  dropped rows;
- the solved system pivots as the reference simplex does when it prices
  the largest score with the same phase-1 costs: the same weights or the
  same Farkas vector, and a pinned number of pricing rounds on three
  ladder-sized models and three noisy cycles of 14 to 20 measurements;
- listed columns cost 1 each, section rows ``|c| + 1 - |N(s)|``, any
  positive costs give the costed reference's pivots, and costs that are
  not one positive integer per row are refused;
- on that restricted system, with forbidden and outside sections, the
  oracle's maximum, price, columns and support equal enumeration's;
- the greedy decomposition ahead of the LP takes, at each step, the
  largest bottleneck a scan of every assignment finds; a complete one
  passes `check_solution` on the full and the listed system and runs no
  LP, the verdict equals the reference simplex's on mixtures of
  deterministic assignments, a stalled one starts the LP from its
  assignments with pinned pricing rounds, and start columns pivot as in
  the reference simplex offered the same columns;
- every vector of the odd-cycle stage is an integer Farkas vector by
  multiplication against the dense oracle matrix; on binary n-cycles and
  two-setting boxes it finds one exactly when the reference simplex finds
  the system infeasible, the same one twice; a found one is the verdict
  with no greedy step and no LP, and without one the greedy and the LP
  decide;
- the one-pass section plan equals the pass-by-pass reference plan on
  random scenarios declared in shuffled order: its gathers, decode
  strides, lookup positions, row basis, costs and restricted row maps,
  and the elimination's value and decoded digits under sum and minimum.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import prod
from operator import add

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contextuality import sheaf
from contextuality.exactlp import (
    Feasibility,
    SparseColumns,
    TooLargeError,
    check_farkas,
    check_solution,
    clear_denominators,
    columns_from_rows,
    require_certificate,
    solve_eq_nonneg,
)
from contextuality.quantum import dm, kcbs_construction, pvm_from_observable, random_density, peres_mermin_square
from contextuality.scenario import (
    make_model,
    make_scenario,
    from_quantum,
    rationalize_model,
)
from contextuality.sheaf import (
    build_incidence_matrix,
    global_assignment_count,
    solve_global_section,
)
from oracles import (
    InvalidCertificate,
    enumerate_global_assignments,
    enumerate_vertices,
    exact_rank,
    hv_model_from_section,
    orient_rows,
    reference_argmax,
    reference_hulls_intersect,
    reference_incidence_rows,
    reference_section_plan,
    reference_solve_eq_nonneg,
    require,
)

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
    assignments = list(enumerate_global_assignments(sc))
    assert tuple(mat.column(t)[0] for t in assignments) == oracle_columns(sc)
    assert mat.shape == (len(reference_incidence_rows(sc)), len(assignments))


@st.composite
def signed_models(draw, max_measurements=12, max_assignments=4096):
    """Exactly consistent models on 1-12 measurements, contextual or not.

    The tables are the marginals of one signed measure on the global
    assignments, so they agree on shared measurements.  The measure is a
    few random assignments with positive weights and, when the scenario
    starts with a ring of two-measurement contexts, the ring's
    quasi-probability core: the 2r assignments that alternate around the
    ring but for one equal edge, less the two constant ones, all equal to
    one assignment off the ring.  The core is perfectly anticorrelated on
    every edge of the ring, whose length r is odd, so it is contextual; it
    is kept only when every table entry stays nonnegative.  Sparse supports leave zero entries;
    small scenarios may add uniform noise.
    """
    n = draw(st.integers(1, max_measurements))
    sizes = []
    for k in range(n):
        three = (draw(st.booleans())
                 and 3 * prod(sizes) * 2 ** (n - k - 1) <= max_assignments)
        sizes.append(3 if three else 2)
    labels = [f"M{k}" for k in range(n)]
    ring = (labels[:draw(st.sampled_from(range(3, n + 1, 2)))]
            if n >= 3 and draw(st.sampled_from([True, True, False])) else [])
    contexts = [[a, b] for a, b in zip(ring, ring[1:] + ring[:1])]
    contexts += draw(st.lists(
        st.lists(st.sampled_from(labels), min_size=1, max_size=3, unique=True),
        min_size=0 if ring else 1, max_size=2 if ring else n + 2))
    contexts = list({frozenset(c): c for c in contexts}.values())
    covered = {lab for ctx in contexts for lab in ctx}
    contexts += [[lab] for lab in labels if lab not in covered]
    sc = make_scenario(list(zip(labels, (tuple(range(k)) for k in sizes))), contexts)
    pos = {m: i for i, m in enumerate(sc.measurements)}

    def assignment():
        return tuple(draw(st.integers(0, k - 1)) for k in sizes)

    def tables_of(measure):
        tables = {}
        for ctx in sc.contexts:
            table = {sec: Fraction(0) for sec in sc.outcome_tuples(ctx)}
            for t, w in measure:
                table[tuple(t[pos[m]] for m in ctx)] += w
            tables[ctx] = table
        return tables

    measure = [(assignment(), Fraction(draw(st.integers(1, 3))))
               for _ in range(draw(st.integers(1, 3)))]
    if ring:
        rest, weight, r = assignment(), Fraction(draw(st.integers(1, 4))), len(ring)
        core = []
        for edge in range(r):
            for first in (0, 1):
                t = list(rest)
                for j in range(r):
                    t[pos[ring[(edge + 1 + j) % r]]] = first ^ (j % 2)
                core.append((tuple(t), weight))
        for bit in (0, 1):
            t = list(rest)
            for m in ring:
                t[pos[m]] = bit
            core.append((tuple(t), -weight))
        tables = tables_of(measure + core)
        if all(v >= 0 for table in tables.values() for v in table.values()):
            measure += core
    tables = tables_of(measure)
    noise = draw(st.sampled_from([Fraction(0), HALF])) if prod(sizes) <= 64 else Fraction(0)
    total = sum(w for _, w in measure) + noise
    return make_model(sc, {ctx: {sec: (v + noise / len(table)) / total
                                 for sec, v in table.items()}
                           for ctx, table in tables.items()})


def reference_verdict(model) -> bool:
    """Feasibility by the reference simplex on the dense oracle matrix.

    Columns through a zero entry must carry no weight, so they are left
    out, as are the zero rows; the verdict is unchanged.
    """
    sc = model.scenario
    rows = reference_incidence_rows(sc)
    v = [model.tables[ctx][sec] for ctx in sc.contexts for sec in sc.outcome_tuples(ctx)]
    live = [i for i, vi in enumerate(v) if vi]
    cols = [j for j in range(len(rows[0])) if all(v[i] for i, row in enumerate(rows) if row[j])]
    a = [[Fraction(rows[i][j]) for j in cols] for i in live]
    return reference_solve_eq_nonneg(a, [v[i] for i in live]).feasible if cols else False


def recheck_against_enumeration(res) -> None:
    """The support reproduces the tables, or the dual is <= 0 on every column."""
    sc = res.model.scenario
    rows = reference_incidence_rows(sc)
    v = [res.model.tables[ctx][sec] for ctx, sec in res.matrix.rows]
    assignments = list(enumerate_global_assignments(sc))
    if res.feasible:
        weight = dict(res.primal)
        assert len(weight) == len(res.primal) and all(w > 0 for w in weight.values())
        column = {t: j for j, t in enumerate(assignments)}
        for row, vi in zip(rows, v):
            assert sum(w for t, w in weight.items() if row[column[t]]) == vi
    else:
        y = res.dual
        for j in range(len(assignments)):
            assert sum(yi for yi, row in zip(y, rows) if row[j]) <= 0
        assert sum(yi * vi for yi, vi in zip(y, v)) > 0
        assert res.matrix.maximum(y) == reference_argmax(sc, y)


class TestEliminationAgainstEnumeration:
    """The section LP and its pricing oracle against plain enumeration.

    The reference simplex runs in dense ``Fraction`` arithmetic, so the
    verdict comparison runs up to 7 measurements and 128 columns; the
    certificate re-checks, which prove the verdict on their own, run up to
    12 measurements and 4096 columns.
    """

    @settings(max_examples=60, deadline=None)
    @given(signed_models(max_measurements=7, max_assignments=128))
    def test_verdict_equals_the_reference_simplex(self, model):
        res = solve_global_section(model)
        assert res.feasible == reference_verdict(res.model)
        recheck_against_enumeration(res)

    @settings(max_examples=30, deadline=None)
    @given(signed_models())
    def test_certificates_against_every_column(self, model):
        recheck_against_enumeration(solve_global_section(model))

    @settings(max_examples=40, deadline=None)
    @given(signed_models(), st.data())
    def test_oracle_argmax_is_the_smallest_maximizer(self, model, data):
        sc = model.scenario
        mat = build_incidence_matrix(sc)
        # Few distinct values, so that maximizers tie often.
        y = [data.draw(st.sampled_from([-2, -1, 0, 0, 1, HALF])) for _ in mat.rows]
        score, best = mat.maximum(y)
        assert (score, best) == reference_argmax(sc, y)
        assert mat.price(y) == (best if score > 0 else None)


class TestSections:
    def test_counts(self):
        sc = make_scenario([("A", (0, 1)), ("B", (0, 1))], [["A", "B"]])
        assert len(build_incidence_matrix(sc).rows) == 4
        assert len(build_incidence_matrix(kcbs_model().scenario).rows) == 20
        assert len(build_incidence_matrix(pm_model().scenario).rows) == 48

    def test_lexicographic_order(self):
        sc = make_scenario([("A", (0, 1)), ("B", (0, 1))], [["A", "B"]])
        secs = [sec for _, sec in build_incidence_matrix(sc).rows]
        assert secs == [(0, 0), (0, 1), (1, 0), (1, 1)]


class TestIncidenceMatrix:
    def test_single_measurement_identity(self):
        sc = make_scenario([("A", (0, 1))], [["A"]])
        mat = build_incidence_matrix(sc)
        assert mat.shape == (2, 2)
        assert [mat.column((o,))[0] for o in (0, 1)] == [(0,), (1,)]

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
            assignments = list(enumerate_global_assignments(model.scenario))
            assert len(assignments) == q
            for t in assignments:
                column = mat.column(t)[0]
                assert [mat.rows[i][0] for i in column] == list(contexts)
                assert all(0 <= i < p for i in column)

    def test_sparse_lp_form_is_all_ones(self):
        sc = kcbs_model().scenario
        mat = build_incidence_matrix(sc)
        assert mat.m == mat.shape[0]
        assert all(mat.column(t)[1:] == ((1,) * 5, 1)
                   for t in enumerate_global_assignments(sc))

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
        assert res.primal == (((0, 0, 0, 0), Fraction(1)),)

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
        with pytest.raises(ValueError, match="no-disturbance: FAIL"):
            solve_global_section(m)

    def test_certificate_payload(self):
        res = solve_global_section(pr_box_model())
        cert = res.certificate()
        assert cert["verdict"] == "infeasible"
        assert len(cert["dual"]) == 16
        assert len(cert["rows"]) == len(cert["rhs"]) == 16


def support_pairs(weights, sc):
    """The (assignment, weight) pairs of a dense weight list over all assignments."""
    return [(t, w) for t, w in zip(enumerate_global_assignments(sc), weights) if w]


class TestHiddenVariableModels:
    def test_dirac_weight_single_state(self):
        sc = chsh_scenario()
        weights = [Fraction(0)] * 16
        weights[5] = Fraction(1)
        hv = hv_model_from_section(support_pairs(weights, sc), sc)
        assert len(hv.assignments) == 1
        assert hv.weights == (Fraction(1),)

    def test_uniform_two_states(self):
        sc = chsh_scenario()
        weights = [Fraction(0)] * 16
        weights[0] = HALF
        weights[15] = HALF
        hv = hv_model_from_section(support_pairs(weights, sc), sc)
        assert hv.weights == (HALF, HALF)
        assert hv.assignments[0] == {"A0": 0, "A1": 0, "B0": 0, "B1": 0}
        assert hv.assignments[1] == {"A0": 1, "A1": 1, "B0": 1, "B1": 1}

    def test_response_factorises(self):
        sc = chsh_scenario()
        weights = [Fraction(0)] * 16
        weights[3] = Fraction(1)
        hv = hv_model_from_section(support_pairs(weights, sc), sc)
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
        hv = hv_model_from_section(support_pairs(weights, sc), sc)
        model = hv.induced_model()
        res = solve_global_section(model)
        assert res.feasible
        again = hv_model_from_section(res.primal, sc).induced_model()
        assert again.tables == model.tables

    def test_invalid_certificates_rejected(self):
        sc = chsh_scenario()
        with pytest.raises(InvalidCertificate):
            hv_model_from_section([((0, 1, 0), Fraction(1))], sc)
        with pytest.raises(InvalidCertificate):
            hv_model_from_section([((0, 1, 0, 2), Fraction(1))], sc)
        with pytest.raises(InvalidCertificate):
            hv_model_from_section([((0, 0, 0, 0), HALF)] * 2, sc)
        bad = [Fraction(0)] * 16
        bad[0] = Fraction(2)
        bad[1] = Fraction(-1)
        with pytest.raises(InvalidCertificate):
            hv_model_from_section(support_pairs(bad, sc), sc)
        with pytest.raises(InvalidCertificate):
            hv_model_from_section(support_pairs([Fraction(1, 16)] * 15 + [Fraction(0)], sc), sc)


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


def cg_rank(sc) -> int:
    """sum_S prod_{m in S} (k_m - 1) over the measurement sets S inside a context."""
    inside = {frozenset(sub) for ctx in sc.contexts for k in range(len(ctx) + 1)
              for sub in itertools.combinations(ctx, k)}
    return sum(prod(len(sc.outcomes[m]) - 1 for m in s) for s in inside)


def box_scenario(n, k=2):
    """n settings per party, k outcomes each, every Alice-Bob pair a context."""
    alice, bob = [f"A{i}" for i in range(n)], [f"B{i}" for i in range(n)]
    return make_scenario([(m, tuple(range(k))) for m in alice + bob],
                         [[a, b] for a in alice for b in bob])


def cycle_scenario(n):
    labels = [f"M{i}" for i in range(n)]
    return make_scenario([(m, (0, 1)) for m in labels],
                         [[labels[i], labels[(i + 1) % n]] for i in range(n)])


def mixed_scenario():
    """Two-, three- and four-outcome measurements in contexts of two and three."""
    return make_scenario([("A", (0, 1)), ("B", (0, 1, 2)), ("C", (0, 1, 2, 3)), ("D", (0, 1))],
                         [["A", "B", "C"], ["C", "D"], ["A", "D"]])


def uniform_model(sc):
    return make_model(sc, {ctx: {sec: Fraction(1, len(sc.outcome_tuples(ctx)))
                                 for sec in sc.outcome_tuples(ctx)}
                           for ctx in sc.contexts})


def noisy_cycle_model(n, vis=Fraction(9, 10)):
    """Anticorrelated n-cycle at visibility ``vis``: no zero entries, contextual for odd n < 20."""
    sc = cycle_scenario(n)
    apart, same = (1 + vis) / 4, (1 - vis) / 4
    return make_model(sc, {ctx: {(0, 0): same, (0, 1): apart, (1, 0): apart, (1, 1): same}
                           for ctx in sc.contexts})


def listed_system(model):
    """The full section system with every assignment's column listed.

    Built from the scenario alone: one row per (context, section) in
    declared order, one column per global assignment.
    """
    sc = model.scenario
    rows = [(ctx, sec) for ctx in sc.contexts for sec in sc.outcome_tuples(ctx)]
    at = {row: i for i, row in enumerate(rows)}
    pos = {m: i for i, m in enumerate(sc.measurements)}
    cols = tuple((tuple(sorted(at[ctx, tuple(t[pos[m]] for m in ctx)] for ctx in sc.contexts)),
                  (1,) * len(sc.contexts))
                 for t in enumerate_global_assignments(sc))
    return SparseColumns(len(rows), cols), [model.tables[ctx][sec] for ctx, sec in rows]


ROW_BASIS_SCENARIOS = {
    "box2": lambda: box_scenario(2),
    "box3": lambda: box_scenario(3),
    "box4": lambda: box_scenario(4),
    "box2-3-outcomes": lambda: box_scenario(2, 3),
    "cycle3": lambda: cycle_scenario(3),
    "cycle5": lambda: cycle_scenario(5),
    "cycle9": lambda: cycle_scenario(9),
    "cycle12": lambda: cycle_scenario(12),
    "square3x3": lambda: pm_model().scenario,
    "mixed": mixed_scenario,
}


class TestRowBasis:
    """The section LP solves on the Collins-Gisin row basis.

    The basis size must be the Collins-Gisin rank, its rows independent and
    spanning the full system by exact row reduction, the solved system
    must have exactly the basis rows with a nonzero right-hand side, and
    every verdict must equal an independent solve of the full listed system,
    with certificates that pass on the full matrix and read 0 on dropped
    rows.
    """

    @staticmethod
    def solved_rows(model, monkeypatch) -> list:
        """The row count of each LP `section_lp` solves for an exact model, and its result.

        The LP step runs on its own: through `solve_global_section` the
        greedy decomposition decides the uniform models with no LP.
        """
        sizes = []

        def recording_solve(a, b, start=()):
            sizes.append(a.m)
            return solve_eq_nonneg(a, b, start)

        monkeypatch.setattr(sheaf, "solve_eq_nonneg", recording_solve)
        res = run_section_lp(model)
        monkeypatch.undo()
        return sizes, res

    @pytest.mark.parametrize("name", ROW_BASIS_SCENARIOS)
    def test_solved_rows_are_the_collins_gisin_rank(self, name, monkeypatch):
        sc = ROW_BASIS_SCENARIOS[name]()
        basis = build_incidence_matrix(sc).basis()
        require(len(basis) == cg_rank(sc), f"{name}: {len(basis)} rows, rank {cg_rank(sc)}")
        sizes, res = self.solved_rows(uniform_model(sc), monkeypatch)
        require(sizes == [cg_rank(sc)], f"{name}: solved {sizes}")
        require(res.feasible, f"{name}: uniform model infeasible")

    @pytest.mark.parametrize("name", ["box2", "box2-3-outcomes", "cycle5", "mixed"])
    def test_basis_rows_are_independent_and_span(self, name):
        sc = ROW_BASIS_SCENARIOS[name]()
        dense = [[Fraction(e) for e in row] for row in reference_incidence_rows(sc)]
        basis = build_incidence_matrix(sc).basis()
        rank = exact_rank([dense[i] for i in basis])
        require(rank == len(basis) == exact_rank(dense),
                f"{name}: basis rank {rank} of {len(basis)}, full rank {exact_rank(dense)}")

    @pytest.mark.parametrize("model, live, solved, feasible", [
        (pr_box_model, 8, 4, False),
        (lambda: noisy_cycle_model(12, Fraction(1)), 24, 12, True),
    ])
    def test_zero_rows_leave_the_solved_system(self, model, live, solved, feasible,
                                               monkeypatch):
        model = model()
        mat = build_incidence_matrix(model.scenario)
        v = [model.tables[ctx][sec] for ctx, sec in mat.rows]
        require(sum(1 for vi in v if vi) == live, "live rows")
        require(sum(1 for i in mat.basis() if v[i]) == solved, "live basis rows")
        sizes, res = self.solved_rows(model, monkeypatch)
        require(sizes == [solved], f"solved {sizes}")
        require(res.feasible == feasible, f"feasible: {res.feasible}")

    @pytest.mark.parametrize("model", [pr_box_model, kcbs_model, pm_model,
                                       lambda: noisy_cycle_model(5)])
    def test_dual_is_zero_on_dropped_rows(self, model):
        # The LP's own dual: the odd-cycle stage decides all but pm_model first.
        res = run_section_lp(model())
        require(not res.feasible, "feasible")
        v = [res.model.tables[ctx][sec] for ctx, sec in res.matrix.rows]
        kept = set(res.matrix.basis())
        dropped = [i for i, vi in enumerate(v) if vi and i not in kept]
        require(dropped, "no dropped row with a nonzero rhs")
        require(all(res.dual[i] == 0 for i in dropped),
                f"dual {[res.dual[i] for i in dropped]} on dropped rows")
        cert = res.certificate()
        require(len(cert["dual"]) == len(cert["rows"]) == len(cert["rhs"]) == res.matrix.m,
                "certificate does not list every row")

    @settings(max_examples=60, deadline=None)
    @given(signed_models(max_measurements=7, max_assignments=128))
    @example(pr_box_model())
    @example(noisy_cycle_model(5))
    @example(noisy_cycle_model(6))
    def test_verdicts_equal_the_full_listed_system(self, model):
        res = solve_global_section(model)
        listed, v = listed_system(res.model)
        plain = solve_eq_nonneg(listed, v)
        require(res.feasible == plain.feasible, f"{res.verdict} against {plain.feasible}")
        require_certificate(res.matrix, v, Feasibility(res.feasible, x=res.primal,
                                                       farkas=res.dual), "row basis")
        if res.feasible:
            weight = dict(res.primal)
            dense = tuple(weight.get(t, Fraction(0))
                          for t in enumerate_global_assignments(res.model.scenario))
            require(check_solution(listed, v, dense), "primal fails the listed system")
        else:
            require(check_farkas(listed, v, res.dual), "dual fails the listed system")
            # The LP's own dual, not the odd-cycle stage's, reads 0 off the basis.
            lp = run_section_lp(res.model)
            require(not lp.feasible, "the section LP finds the model feasible")
            kept = set(res.matrix.basis())
            require(all(lp.dual[i] == 0 for i, vi in enumerate(v) if vi and i not in kept),
                    "dual nonzero on a dropped row")


def ladder_box(n, w):
    """n settings per party: the PR box at weight w against white noise on
    the first two settings of each party, uniform tables elsewhere."""
    sc = box_scenario(n)
    tables = {}
    for a, b in sc.contexts:
        x, y = int(a[1:]), int(b[1:])
        tables[(a, b)] = {(p, q): (w * (HALF if p ^ q == x & y else 0) + (1 - w) / 4
                                   if x < 2 and y < 2 else Fraction(1, 4))
                          for p in (0, 1) for q in (0, 1)}
    return make_model(sc, tables)


def section_system(model):
    """The full matrix, its rhs, and the live and outside rows `solve_global_section` uses.

    Live rows are the basis rows with a nonzero rhs, outside rows the other
    nonzero rows; the zero rows are the forbidden ones.
    """
    mat = build_incidence_matrix(model.scenario)
    v = [model.tables[ctx][sec] for ctx, sec in mat.rows]
    basis = mat.basis()
    kept = set(basis)
    return (mat, v, [i for i in basis if v[i]],
            [i for i, vi in enumerate(v) if vi and i not in kept])


def row_cost(sc, ctx, sec):
    """``|c| + 1 - |N(s)|``: N(s) holds the measurements not at their last outcome."""
    not_last = [m for m, o in zip(ctx, sec) if o != sc.outcomes[m][-1]]
    return len(ctx) + 1 - len(not_last)


def priced_section(model, monkeypatch, limit=1000):
    """`section_lp`'s result on an exact model and its pricing rounds.

    The LP step runs on its own, from the all-artificial basis, so the
    greedy decomposition neither decides the model nor starts the LP
    (`TestGreedySections` pins that route).  More than ``limit`` rounds
    fail at once: a kernel whose phase-1 dual drifts from ``c_B B^-1``
    may cycle rather than end.
    """
    calls = []

    def counting_solve(a, b, start=()):
        price = a.price

        def counting(y):
            calls.append(y)
            require(len(calls) <= limit, f"more than {limit} pricing rounds")
            return price(y)

        a.price = counting
        return solve_eq_nonneg(a, b, start)

    monkeypatch.setattr(sheaf, "solve_eq_nonneg", counting_solve)
    res = run_section_lp(model)
    monkeypatch.undo()
    return res, len(calls)


def run_section_lp(model):
    """`sheaf.section_lp` alone, from the all-artificial basis, as a re-checked section.

    The model is rationalized and the LP handed what `solve_global_section`
    hands it; the result is re-checked on the full matrix.
    """
    model = rationalize_model(model)
    mat = build_incidence_matrix(model.scenario)
    tables, _ = model.integer_tables
    v = [model.tables[ctx][sec] for ctx, sec in mat.rows]
    res = require_certificate(mat, v, sheaf.section_lp(
        mat, v, [tables[ctx][sec] for ctx, sec in mat.rows]), "section LP")
    return sheaf.SectionFeasibility(feasible=res.feasible, primal=res.x, dual=res.farkas,
                                    matrix=mat, model=model)


class TestSectionPivots:
    """The section LP pivots as the reference simplex that prices the largest score.

    `solve_eq_nonneg` on ``restrict(live, outside)`` must return the same
    weight per assignment, or the same Farkas vector, as
    `reference_solve_eq_nonneg` with ``largest=True`` on the dense listed
    system: live rows only, the columns through a zero row dropped, the
    rest in lexicographic order.  Both take the largest score with ties to
    the lexicographically smallest assignment, the same lexicographic
    ratio test and the same phase-1 costs, which the test reads off the
    rows as ``|c| + 1 - |N(s)|``.  The pricing rounds of three ladder-sized
    models are pinned.
    """

    @settings(max_examples=60, deadline=None)
    @given(signed_models(max_measurements=7, max_assignments=128))
    @example(pr_box_model())
    @example(noisy_cycle_model(5))
    @example(box_model(HALF, Fraction(1, 4), Fraction(1, 4), 0))
    def test_same_result_as_the_largest_score_reference(self, model):
        mat, v, live, outside = section_system(model)
        rhs = [v[i] for i in live]
        res = solve_eq_nonneg(mat.restrict(live, outside), rhs)
        dense = reference_incidence_rows(model.scenario)
        zero = [row for row, vi in zip(dense, v) if not vi]
        cols = [j for j in range(len(dense[0])) if not any(row[j] for row in zero)]
        ref = reference_solve_eq_nonneg([[Fraction(dense[i][j]) for j in cols] for i in live],
                                        rhs, largest=True,
                                        costs=[row_cost(model.scenario, *mat.rows[i])
                                               for i in live])
        require(res.feasible == ref.feasible, f"{res.feasible} against {ref.feasible}")
        if ref.feasible:
            assignments = list(enumerate_global_assignments(model.scenario))
            weights = {assignments[j]: w for j, w in zip(cols, ref.x) if w}
            require(dict(res.x) == weights, f"weights {res.x} against {weights}")
        else:
            require(res.farkas == ref.farkas, f"dual {res.farkas} against {ref.farkas}")

    @pytest.mark.parametrize("model, feasible, rounds", [
        (lambda: noisy_cycle_model(9), False, 25),
        (lambda: ladder_box(3, Fraction(1, 3)), True, 19),
        (lambda: ladder_box(3, Fraction(2, 3)), False, 24),
    ], ids=["noisy-9-cycle", "local-3-setting-box", "nonlocal-3-setting-box"])
    def test_pricing_rounds_are_pinned(self, model, feasible, rounds, monkeypatch):
        res, calls = priced_section(model(), monkeypatch)
        require(res.feasible == feasible, f"feasible: {res.feasible}")
        require(calls == rounds, f"{calls} pricing rounds, {rounds} expected")


class CostedColumns(SparseColumns):
    """Listed columns priced by Bland's rule with the phase-1 costs ``weights``.

    Pricing fails after 1000 rounds, more than a system of at most 5 rows
    and 12 columns has bases, so a kernel that cycles fails the test.
    """

    def __init__(self, m, cols, weights):
        super().__init__(m, cols)
        object.__setattr__(self, "weights", tuple(weights))
        object.__setattr__(self, "rounds", [])

    @property
    def costs(self):
        return self.weights

    def price(self, y):
        self.rounds.append(y)
        require(len(self.rounds) <= 1000, "more than 1000 pricing rounds")
        return super().price(y)


class TestWeightedPhaseOne:
    """Phase 1 weighs each artificial by its row's cost.

    The section rows cost ``|c| + 1 - |N(s)|`` and listed columns 1.  With
    any positive costs the kernel pivots as the reference simplex given
    the same costs, and a cost vector that is not one positive integer
    per row is refused.  The pricing rounds of three noisy cycles past
    the ladder are pinned; the 20-cycle has exactly `MAX_ASSIGNMENTS`
    global assignments.
    """

    @pytest.mark.parametrize("n, feasible, rounds", [
        (14, True, 49), (19, False, 50), (20, True, 74),
    ], ids=["noisy-14-cycle", "noisy-19-cycle", "noisy-20-cycle"])
    def test_pricing_rounds_on_long_noisy_cycles(self, n, feasible, rounds, monkeypatch):
        model = noisy_cycle_model(n)
        require(global_assignment_count(model.scenario) <= sheaf.MAX_ASSIGNMENTS, "over the cap")
        res, calls = priced_section(model, monkeypatch)
        require(res.feasible == feasible, f"feasible: {res.feasible}")
        require(calls == rounds, f"{calls} pricing rounds, {rounds} expected")

    def test_section_rows_cost_by_their_last_outcomes(self):
        model = uniform_model(mixed_scenario())
        mat, _, live, outside = section_system(model)
        sub = mat.restrict(live, outside)
        require(mat.costs == tuple(row_cost(model.scenario, *row) for row in mat.rows),
                f"costs {mat.costs}")
        require(sub.costs == tuple(mat.costs[i] for i in live), f"restricted costs {sub.costs}")

    def test_listed_columns_cost_one(self):
        a = columns_from_rows([[Fraction(1), Fraction(0), Fraction(2)],
                               [Fraction(0), Fraction(1), Fraction(1)]])
        require(a.costs == (1, 1), f"costs {a.costs}")
        require(a.select([2]).costs == (1, 1), "selected costs")

    @pytest.mark.parametrize("weights, match", [
        ((1, 0), "cost 0 of row 1 is not a positive integer"),
        ((2, -1), "cost -1 of row 1 is not a positive integer"),
        ((1, 1.0), "cost 1.0 of row 1 is not a positive integer"),
        ((1,), "1 phase-1 costs for 2 rows"),
        ((1, 1, 1), "3 phase-1 costs for 2 rows"),
    ], ids=["zero", "negative", "float", "short", "long"])
    def test_bad_costs_are_refused(self, weights, match):
        a = CostedColumns(2, columns_from_rows([[Fraction(1), Fraction(0)],
                                                [Fraction(0), Fraction(1)]]).cols, weights)
        with pytest.raises(ValueError, match=match):
            solve_eq_nonneg(a, [Fraction(1), Fraction(1)])

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 7), st.data())
    def test_costed_kernel_equals_the_costed_reference(self, m, n, data):
        entries = st.sampled_from([Fraction(0), Fraction(0), Fraction(1), Fraction(2),
                                   Fraction(-1), HALF])
        a = [[data.draw(entries) for _ in range(n)] for _ in range(m)]
        b = [data.draw(st.sampled_from([Fraction(0), Fraction(1), Fraction(2), Fraction(-1)]))
             for _ in range(m)]
        a, b = orient_rows(a, b)
        weights = data.draw(st.lists(st.integers(1, 5), min_size=m, max_size=m))
        cols = CostedColumns(m, columns_from_rows(a).cols, weights)
        res = solve_eq_nonneg(cols, b)
        ref = reference_solve_eq_nonneg(a, b, costs=weights)
        require(res == ref, f"{res} against {ref}")
        require(require_certificate(cols, b, res) is res, "certificate")


class TestRestrictedOracle:
    """The oracle of ``restrict(live, outside)`` against enumeration.

    On the system the section LP solves, zero rows forbid their sections
    and outside rows score 0: `maximum` must equal the column scan of
    `reference_argmax` over the columns left, `price` must give its
    maximizer exactly when it scores above 0, and `column` and `support`
    must give every assignment's live rows, None at a forbidden section.
    """

    @settings(max_examples=60, deadline=None)
    @given(signed_models(max_measurements=7, max_assignments=256), st.data())
    def test_oracle_against_enumeration(self, model, data):
        sc = model.scenario
        mat, v, live, outside = section_system(model)
        sub = mat.restrict(live, outside)
        # Few distinct values, so that maximizers tie often.
        y = [data.draw(st.sampled_from([-2, -1, 0, 0, 1, HALF])) for _ in live]
        ref = reference_argmax(sc, y, live, outside)
        if ref is not None:
            require(sub.maximum(y) == ref, f"maximum {sub.maximum(y)} against {ref}")
        priced = sub.price(clear_denominators(y)[0])
        expected = ref[1] if ref is not None and ref[0] > 0 else None
        require(priced == expected, f"priced {priced} against {expected}")
        at = {row: i for i, row in enumerate(mat.rows)}
        pos = {m: i for i, m in enumerate(sc.measurements)}
        row_of = {i: k for k, i in enumerate(live)}
        for t in enumerate_global_assignments(sc):
            full = [at[ctx, tuple(t[pos[m]] for m in ctx)] for ctx in sc.contexts]
            idx = tuple(row_of.get(i) for i in full if i not in outside)
            require(sub.column(t) == (idx, (1,) * len(idx), 1), f"column of {t}")
            require((sub.support([(t, 1)]) is None) == (None in idx), f"support of {t}")


def twisted_model(sc):
    """A non-disturbing model with uniform marginals that is often contextual.

    On a two-party box, context (A_x, B_y) of k-outcome measurements has
    ``b = a + x y mod k`` with probability 1/k each (the PR box for k = 2);
    on any other scenario each two-measurement context is uniform over
    unequal outcome pairs, perfectly anticorrelated for k = 2, which an odd
    binary cycle cannot be.
    """
    tables = {}
    for ctx in sc.contexts:
        secs = sc.outcome_tuples(ctx)
        k = len(sc.outcomes[ctx[0]])
        if all(m[0] in "AB" for m in ctx) and len(ctx) == 2 and ctx[0][0] != ctx[1][0]:
            x, y = int(ctx[0][1:]), int(ctx[1][1:])
            hit = [b == (a + x * y) % k for a, b in secs]
        else:
            hit = [a != b for a, b in secs]
        tables[ctx] = {sec: Fraction(h, sum(hit)) for sec, h in zip(secs, hit)}
    return tables


@st.composite
def deterministic_mixtures(draw):
    """Rational mixtures of deterministic assignments, some with a contextual part.

    The scenario is a binary n-cycle (n = 3..6), a binary box with 2 or 3
    settings per party, a three-outcome box with 2 settings, or a cycle of
    three three-outcome measurements.  One to five drawn assignments get
    integer weights, and with weight 0, 1/5, 1/2 or 4/5 the mixture takes
    in `twisted_model`'s tables.
    """
    family = draw(st.sampled_from(["cycle", "box", "box3", "ternary"]))
    if family == "cycle":
        sc = cycle_scenario(draw(st.integers(3, 6)))
    elif family == "box":
        sc = box_scenario(draw(st.integers(2, 3)))
    elif family == "box3":
        sc = box_scenario(2, 3)
    else:
        labels = ["T0", "T1", "T2"]
        sc = make_scenario([(m, (0, 1, 2)) for m in labels],
                           [["T0", "T1"], ["T1", "T2"], ["T0", "T2"]])
    pos = {m: i for i, m in enumerate(sc.measurements)}
    picks = draw(st.lists(st.tuples(
        st.tuples(*(st.sampled_from(sc.outcomes[m]) for m in sc.measurements)),
        st.integers(1, 4)), min_size=1, max_size=5))
    total = sum(w for _, w in picks)
    twist = draw(st.sampled_from([Fraction(0), Fraction(1, 5), HALF, Fraction(4, 5)]))
    twisted = twisted_model(sc)
    tables = {}
    for ctx in sc.contexts:
        table = {sec: twist * twisted[ctx][sec] for sec in sc.outcome_tuples(ctx)}
        for t, w in picks:
            table[tuple(t[pos[m]] for m in ctx)] += (1 - twist) * Fraction(w, total)
        tables[ctx] = table
    return make_model(sc, tables)


def replay_greedy(model, pairs) -> list:
    """Replay the greedy steps by scanning every assignment; return the residual.

    Each step's weight must be the largest smallest residual entry over
    every column of `reference_incidence_rows`, and its assignment must
    attain it.  Checks raise through `oracles.require`.
    """
    sc = model.scenario
    dense = reference_incidence_rows(sc)
    residual = [model.tables[ctx][sec] for ctx in sc.contexts for sec in sc.outcome_tuples(ctx)]
    assignments = list(enumerate_global_assignments(sc))
    cols = [[i for i, row in enumerate(dense) if row[j]] for j in range(len(assignments))]
    for s, w in pairs:
        best = max(min(residual[i] for i in col) for col in cols)
        col = cols[assignments.index(s)]
        require(w == best > 0, f"step weight {w}, largest bottleneck {best}")
        require(min(residual[i] for i in col) == w, f"{s} does not attain {w}")
        for i in col:
            residual[i] -= w
    require(max(min(residual[i] for i in col) for col in cols) <= 0 or not any(residual),
            "the greedy stopped with a positive bottleneck left")
    return residual


def section_route(model, monkeypatch, odd_cycles=True) -> tuple:
    """`solve_global_section`'s result, its LP solves and their pricing rounds.

    With ``odd_cycles`` false the odd-cycle stage finds nothing, so the
    greedy and the LP decide as they do when it finds no walk.
    """
    solves, rounds = [], []
    if not odd_cycles:
        monkeypatch.setattr(sheaf, "odd_cycle_dual", lambda matrix, ints, scale: None)

    def counting_solve(a, b, start=()):
        solves.append(list(start))
        price = a.price

        def counting(y):
            rounds.append(y)
            require(len(rounds) <= 1000, "more than 1000 pricing rounds")
            return price(y)

        a.price = counting
        return solve_eq_nonneg(a, b, start)

    monkeypatch.setattr(sheaf, "solve_eq_nonneg", counting_solve)
    res = solve_global_section(model)
    monkeypatch.undo()
    return res, solves, len(rounds)


class TestGreedySections:
    """The greedy bottleneck decomposition ahead of the section LP.

    On random rational mixtures of deterministic assignments, some with a
    contextual part, each greedy step must take the largest bottleneck
    that a scan of every assignment finds; a complete decomposition must
    pass `check_solution` and the listed system's own check, and the
    verdict of `solve_global_section` must equal the reference simplex's
    on the dense listed system.  A stalled decomposition hands its
    assignments to the LP as start columns, which the kernel offers as the
    reference simplex does.  Checks raise through `oracles.require`, so
    the class also tests something under ``python -O``.
    """

    @settings(max_examples=40, deadline=None)
    @given(deterministic_mixtures())
    @example(noisy_cycle_model(5))
    @example(noisy_cycle_model(6))
    @example(pr_box_model())
    @example(ladder_box(3, Fraction(1, 3)))
    def test_greedy_against_enumeration(self, model):
        mat = build_incidence_matrix(model.scenario)
        v = [model.tables[ctx][sec] for ctx, sec in mat.rows]
        pairs, whole = mat.greedy(*clear_denominators(v))
        require(len(pairs) <= sum(1 for vi in v if vi), f"{len(pairs)} steps")
        residual = replay_greedy(model, pairs)
        require(whole == (not any(residual)), "whole disagrees with the residual")
        res = solve_global_section(model)
        require(res.feasible == reference_verdict(model),
                f"verdict {res.verdict} against the reference simplex")
        if whole:
            require(check_solution(mat, v, pairs), "greedy primal fails check_solution")
            listed, rhs = listed_system(model)
            weight = dict(pairs)
            dense = tuple(weight.get(t, Fraction(0))
                          for t in enumerate_global_assignments(model.scenario))
            require(check_solution(listed, rhs, dense), "greedy primal fails the listed system")
            require(res.primal == mat.primal(pairs), "the section is not the greedy's")
        elif not res.feasible:
            recheck_dual(res)

    @pytest.mark.parametrize("model", [
        lambda: uniform_model(box_scenario(4)),
        lambda: uniform_model(mixed_scenario()),
        lambda: uniform_model(pm_model().scenario),
        lambda: noisy_cycle_model(12, Fraction(1)),
        lambda: noisy_cycle_model(20),
        lambda: ladder_box(2, Fraction(1, 3)),
    ], ids=["uniform-box4", "uniform-mixed", "uniform-square3x3", "sharp-12-cycle",
            "noisy-20-cycle", "local-2-setting-box"])
    def test_complete_decomposition_runs_no_lp(self, model, monkeypatch):
        res, solves, _ = section_route(model(), monkeypatch)
        require(res.feasible and solves == [], f"{res.verdict}, LP solves {solves}")
        require(check_solution(res.matrix, [res.model.tables[ctx][sec]
                                            for ctx, sec in res.matrix.rows], res.primal),
                "primal fails check_solution")

    def test_stalled_odd_cycle_gives_a_rechecked_no(self, monkeypatch):
        # Every alternating assignment of the noisy 9-cycle crosses one equal
        # edge, at 1/40: 18 such steps cover 9/20 and leave no assignment
        # clear of a zeroed entry.
        model = noisy_cycle_model(9)
        mat = build_incidence_matrix(model.scenario)
        pairs, whole = mat.greedy(*clear_denominators(
            [model.tables[ctx][sec] for ctx, sec in mat.rows]))
        require(not whole and len(pairs) == 18, f"{len(pairs)} steps, whole {whole}")
        require(sum(w for _, w in pairs) == Fraction(9, 20), "covered weight")
        res, solves, rounds = section_route(model, monkeypatch, odd_cycles=False)
        require(not res.feasible, res.verdict)
        require(solves == [[s for s, _ in pairs]], "the LP did not start from the greedy")
        recheck_dual(res)
        require(rounds == 7, f"{rounds} pricing rounds, 7 expected")

    @pytest.mark.parametrize("model, feasible, rounds", [
        (lambda: noisy_cycle_model(5), False, 3),
        (lambda: ladder_box(3, Fraction(1, 3)), True, 18),
        (lambda: ladder_box(3, Fraction(2, 3)), False, 10),
        (lambda: noisy_cycle_model(19), False, 17),
    ], ids=["noisy-5-cycle", "local-3-setting-box", "nonlocal-3-setting-box",
            "noisy-19-cycle"])
    def test_pricing_rounds_from_the_greedy_start(self, model, feasible, rounds,
                                                  monkeypatch):
        # From the all-artificial basis these take 13, 19, 24 and 50 rounds.
        res, solves, calls = section_route(model(), monkeypatch, odd_cycles=False)
        require(res.feasible == feasible and len(solves) == 1, res.verdict)
        require(calls == rounds, f"{calls} pricing rounds, {rounds} expected")

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 7), st.data())
    def test_start_columns_pivot_as_the_reference(self, m, n, data):
        entries = st.sampled_from([Fraction(0), Fraction(0), Fraction(1), Fraction(2),
                                   Fraction(-1), HALF])
        a = [[data.draw(entries) for _ in range(n)] for _ in range(m)]
        b = [data.draw(st.sampled_from([Fraction(0), Fraction(1), Fraction(2), Fraction(-1)]))
             for _ in range(m)]
        a, b = orient_rows(a, b)
        # Repeats and columns that do not improve are passed over.
        start = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
        cols = columns_from_rows(a)
        res = solve_eq_nonneg(cols, b, start)
        ref = reference_solve_eq_nonneg(a, b, start=start)
        require(res == ref, f"{res} against {ref}")
        require(require_certificate(cols, b, res) is res, "certificate")


@st.composite
def binary_pair_models(draw):
    """Exact models on a binary n-cycle (n = 3..9) or a two-setting box.

    Each measurement's P(0) and each context's P(0, 0) are drawn on small
    grids, the latter between its Frechet bounds and often at one of them,
    where perfectly (anti)correlated edges make odd cycles contextual.
    """
    sc = cycle_scenario(draw(st.integers(3, 9))) if draw(st.booleans()) else box_scenario(2)
    p = {m: draw(st.sampled_from([HALF, HALF, Fraction(1, 3), Fraction(2, 3), Fraction(2, 5)]))
         for m in sc.measurements}
    tables = {}
    for a, b in sc.contexts:
        lo, hi = max(Fraction(0), p[a] + p[b] - 1), min(p[a], p[b])
        z = lo + draw(st.sampled_from([0, 0, Fraction(1, 10), HALF, 1, 1])) * (hi - lo)
        tables[(a, b)] = {(0, 0): z, (0, 1): p[a] - z, (1, 0): p[b] - z,
                          (1, 1): 1 - p[a] - p[b] + z}
    return make_model(sc, tables)


def odd_cycle_vector(model):
    """`sheaf.odd_cycle_dual` on the full matrix and integer tables of an
    exact model, as `solve_global_section` hands them."""
    mat = build_incidence_matrix(model.scenario)
    tables, scale = model.integer_tables
    return sheaf.odd_cycle_dual(mat, [tables[ctx][sec] for ctx, sec in mat.rows], scale)


def recheck_odd_cycle_vector(model, y) -> None:
    """An integer y with y^T a <= 0 on every column of the dense oracle matrix
    and y^T v > 0, multiplied out here."""
    sc = model.scenario
    dense = reference_incidence_rows(sc)
    v = [model.tables[ctx][sec] for ctx in sc.contexts for sec in sc.outcome_tuples(ctx)]
    require(len(y) == len(dense), f"{len(y)} entries for {len(dense)} rows")
    require(all(yi.denominator == 1 for yi in y), f"not an integer vector: {y}")
    for j in range(len(dense[0])):
        score = sum(yi * row[j] for yi, row in zip(y, dense))
        require(score <= 0, f"column {j} scores {score}")
    require(sum(yi * vi for yi, vi in zip(y, v)) > 0, "y^T v <= 0")


class TestOddCycleStage:
    """The odd-cycle stage ahead of the greedy and the section LP.

    Every vector it returns is an integer Farkas vector, re-multiplied here
    against `reference_incidence_rows`, with no use of the section oracle.
    On binary n-cycles and two-setting boxes, whose noncontextual polytopes
    the odd-cycle inequalities bound, it returns one exactly when the
    reference simplex finds the system infeasible, and the same vector on
    the same input.  When it returns one, `solve_global_section` returns it
    with no greedy step and no LP; when it does not, as on the Peres-Mermin
    square or a box on a CHSH facet, the greedy and the LP decide.  Checks
    raise through `oracles.require`, so the class also tests something
    under ``python -O``.
    """

    @settings(max_examples=100, deadline=None)
    @given(signed_models(max_measurements=9, max_assignments=512))
    @example(pr_box_model())
    @example(noisy_cycle_model(5))
    @example(noisy_cycle_model(6))
    def test_vectors_pass_an_independent_recheck(self, model):
        y = odd_cycle_vector(model)
        if y is not None:
            recheck_odd_cycle_vector(model, y)

    @settings(max_examples=80, deadline=None)
    @given(binary_pair_models())
    @example(noisy_cycle_model(9))
    @example(ladder_box(2, HALF))
    def test_complete_on_cycles_and_two_setting_boxes(self, model):
        y = odd_cycle_vector(model)
        contextual = not reference_verdict(model)
        require((y is not None) == contextual,
                f"vector {y} against a {'contextual' if contextual else 'classical'} model")
        if y is not None:
            recheck_odd_cycle_vector(model, y)
            require(odd_cycle_vector(model) == y, "a second run gives another vector")

    @pytest.mark.parametrize("model", [pr_box_model, kcbs_model, lambda: noisy_cycle_model(9),
                                       lambda: ladder_box(3, Fraction(2, 3))],
                             ids=["pr-box", "kcbs", "noisy-9-cycle", "nonlocal-3-setting-box"])
    def test_a_found_walk_decides_with_no_greedy_and_no_lp(self, model, monkeypatch):
        steps = []
        greedy = sheaf.IncidenceMatrix.greedy
        monkeypatch.setattr(sheaf.IncidenceMatrix, "greedy",
                            lambda self, *args: steps.append(args) or greedy(self, *args))
        res, solves, _ = section_route(model(), monkeypatch)
        require(not res.feasible and steps == [] and solves == [],
                f"{res.verdict}, {len(steps)} greedy runs, LP solves {solves}")
        require(res.dual == odd_cycle_vector(res.model), "the dual is not the stage's vector")
        recheck_dual(res)

    @pytest.mark.parametrize("model, feasible", [
        (pm_model, False), (lambda: ladder_box(2, HALF), True),
        (lambda: ladder_box(3, Fraction(1, 3)), True)],
        ids=["square3x3", "chsh-facet-box", "local-3-setting-box"])
    def test_no_walk_leaves_the_greedy_and_the_lp_to_decide(self, model, feasible):
        res = solve_global_section(model())
        require(odd_cycle_vector(res.model) is None, "a walk lighter than 1")
        require(res.feasible == feasible, res.verdict)


@st.composite
def shuffled_scenarios(draw):
    """Measurements of 2-4 outcomes declared in a drawn order, and contexts
    of 1-3 of them, each listed in a drawn order and overlapping: often a
    ring of pairs through the measurements in a drawn order, whose
    elimination passes messages on to wider tables, then up to 4 drawn
    contexts; each measurement not yet covered gets a context of its own."""
    labels = draw(st.permutations([f"M{k}" for k in range(draw(st.integers(1, 5)))]))
    measurements = [(lab, tuple(range(draw(st.integers(2, 4))))) for lab in labels]
    ring = draw(st.permutations(labels)) if len(labels) >= 3 and draw(st.booleans()) else []
    contexts = [[a, b] for a, b in zip(ring, ring[1:] + ring[:1])]
    contexts += draw(st.lists(
        st.lists(st.sampled_from(labels), min_size=1, max_size=3, unique=True),
        min_size=0 if ring else 1, max_size=4))
    contexts = list({frozenset(c): c for c in contexts}.values())
    covered = {lab for ctx in contexts for lab in ctx}
    contexts += [[lab] for lab in labels if lab not in covered]
    return make_scenario(measurements, contexts)


class TestSectionPlanReference:
    """The one-pass section plan against the pass-by-pass reference plan.

    `oracles.reference_section_plan` builds the plan as the package once
    did: one index map per bucket part mapped through each table's range,
    one dict per context for the lookup, and the basis, costs and
    restricted row maps from the sections' outcome tuples.  On random
    scenarios the package's plan must give the same gathers (read as index
    tuples), decode strides, lookup positions, basis rows, costs and
    restricted maps, and its elimination the same value and digits under
    sum and minimum on random integer tables.  Checks raise through
    `oracles.require`, so the class also tests something under
    ``python -O``.
    """

    @settings(max_examples=150, deadline=None)
    @given(shuffled_scenarios(), st.randoms(use_true_random=False))
    @example(cycle_scenario(5), random.Random(5))
    @example(box_scenario(3), random.Random(3))
    @example(mixed_scenario(), random.Random(0))
    def test_plan_equals_the_reference(self, sc, rnd):
        mat = build_incidence_matrix(sc)
        plan, ref = mat.plan, reference_section_plan(sc)
        n = len(mat.rows)
        require(mat.rows == tuple(ref.rows) and n == len(ref.costs), "rows")
        buffer = range(n + len(plan.room))
        steps = [(v, first(buffer), [g(buffer) for g in rest], k, start, end)
                 for v, first, rest, k, start, end in plan.steps]
        require(steps == ref.steps, f"gathers {steps} against {ref.steps}")
        require(plan.constants == ref.constants and plan.room == ref.room, "message slots")
        require(plan.decode == ref.decode, f"decode {plan.decode} against {ref.decode}")
        for (get, base, offsets), (scope, at) in zip(plan.lookup, ref.lookup, strict=True):
            for key, p in at.items():
                digits = [0] * len(sc.measurements)
                for u, d in zip(scope, key if len(scope) > 1 else (key,)):
                    digits[u] = d
                require(get(digits) == key and base + offsets[key] == p,
                        f"lookup of {key} in context {scope}")
        require(mat.basis() == ref.basis, f"basis {mat.basis()} against {ref.basis}")
        require(mat.costs == ref.costs, f"costs {mat.costs} against {ref.costs}")
        # Each row kept, outside or forbidden, as the draw falls.
        fate = [rnd.randrange(3) for _ in range(n)]
        keep = [i for i in range(n) if fate[i] == 0]
        outside = [i for i in range(n) if fate[i] == 1]
        sub = mat.restrict(keep, outside)
        flat, costs, slots = ref.restrict(keep, outside)
        require(list(sub.flat) == flat and sub.costs == costs, "restricted row map")
        require(list(sub._gather(range(len(keep) + 2))) == slots, "restricted gather")
        tables = [rnd.randint(-3, 3) for _ in range(n)]
        for combine in (add, min):
            got, want = plan.maximize(tables, combine), ref.maximize(tables, combine)
            require(got == want, f"{combine.__name__}: {got} against {want}")
