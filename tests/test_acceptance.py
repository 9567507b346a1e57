"""End-to-end acceptance suite.

One test per acceptance criterion.  Each test enforces the stated numeric
tolerances and runtime budget, then prints a single `[PASS] criterion N`
line (visible with `pytest -s`; under plain pytest the per-test PASSED
line serves the same purpose).  Expected values come from independent
oracles: a Born-rule angle grid, operator-product signs, brute-force
enumerations, and binomial three-sigma bounds.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    atom_values,
    behaviour_table,
    grid_scan_max,
    ld_vertex_boxes,
    random_unitary,
    reference_membership_lp,
    reference_sharp_mixture,
)

from contextuality.classify import (
    RunConfig,
    check_implications,
    classify,
    classify_gpt,
    classify_prep_ensemble,
    classify_quantum,
)
from contextuality.embedding import (
    embed_sharp,
    induced_model,
    make_gpt,
    prep_nc_check,
    pusey_incomplete_check,
    qubit_prep_ensemble,
    sharp_gpt_from_quantum,
    six_ensemble_statistics,
)
from contextuality.polytope import (
    badziag_inequality,
    chsh_value,
    csw_inequality,
    kcbs_graph,
    make_behaviour,
    membership_lp,
    singlet_behaviour,
)
from contextuality.qsl import (
    BASES,
    QslProgram,
    quantum_outcome_probs,
    run_program,
)
from contextuality.quantum import (
    PM_LABELS,
    kcbs_construction,
    peres_mermin_square,
    projective_context,
    pvm_from_observable,
    random_density,
    sup_norm,
)
from contextuality.scenario import model_from_json
from contextuality.sheaf import solve_global_section


def report_pass(number: int, detail: str) -> None:
    print(f"[PASS] criterion {number}: {detail}")


def pentagon_contexts():
    _, observables, _ = kcbs_construction()
    contexts = []
    for j in range(5):
        k = (j + 1) % 5
        contexts.append([pvm_from_observable(observables[j], f"A{j}"),
                         pvm_from_observable(observables[k], f"A{k}")])
    return contexts


def pr_box_table(alpha_bit: int, beta_bit: int, gamma_bit: int) -> dict:
    p = {}
    for x in range(2):
        for y in range(2):
            target = (x & y) ^ (alpha_bit & x) ^ (beta_bit & y) ^ gamma_bit
            for a in range(2):
                for b in range(2):
                    p[(a, b, x, y)] = (Fraction(1, 2)
                                       if (a ^ b) == target else Fraction(0))
    return p


def random_nd_box(rng) -> dict:
    """Rational no-disturbance box: LD vertices mixed with one PR-type box."""
    vertices = ld_vertex_boxes(2, 2, 2, 2)
    ld_weights = [int(w) for w in rng.integers(0, 4, size=16)]
    pr_weight = int(rng.integers(0, 40))
    total = sum(ld_weights) + pr_weight
    if total == 0:
        ld_weights[0] = 1
        total = 1
    p = {(a, b, x, y): Fraction(0) for a in range(2) for b in range(2)
         for x in range(2) for y in range(2)}
    for weight, vertex in zip(ld_weights, vertices):
        if weight == 0:
            continue
        for key, value in vertex.items():
            p[key] += Fraction(weight, total) * value
    if pr_weight:
        bits = [int(t) for t in rng.integers(0, 2, size=3)]
        for key, value in pr_box_table(*bits).items():
            p[key] += Fraction(pr_weight, total) * value
    return p


def box_model_doc(p: dict) -> dict:
    tables = {}
    for x in range(2):
        for y in range(2):
            tables[f"A{x},B{y}"] = {f"{a},{b}": str(p[(a, b, x, y)])
                                    for a in range(2) for b in range(2)}
    return {
        "measurements": [{"label": f"A{x}", "outcomes": [0, 1]}
                         for x in range(2)]
                      + [{"label": f"B{y}", "outcomes": [0, 1]}
                         for y in range(2)],
        "contexts": [[f"A{x}", f"B{y}"] for x in range(2) for y in range(2)],
        "tables": tables,
    }


def random_sharp_instance(rng):
    """Random (state, contexts) pair with Hilbert dim at most 3.

    Half the draws use the pentagon's five pair contexts (where the
    canonical state is a guaranteed refusal), the rest use commuting
    coarse-grainings of a random eigenbasis.
    """
    if rng.integers(0, 2):
        contexts = pentagon_contexts()
        hdim = 3
        if rng.integers(0, 2):
            state, _, _ = kcbs_construction()
        else:
            state = random_density(3, rng)
    else:
        hdim = int(rng.integers(2, 4))
        u = random_unitary(hdim, rng)
        basis = [np.outer(u[:, k], u[:, k].conj()) for k in range(hdim)]
        fine = projective_context("fine", basis)
        coarse = projective_context("coarse",
                                    [basis[0], np.eye(hdim) - basis[0]])
        contexts = [[fine, coarse]]
        if rng.integers(0, 2):
            state = random_density(hdim, rng)
        else:
            v = random_unitary(hdim, rng)[:, 0:1]
            state = v @ v.conj().T
    return state, contexts


class TestCriterion1Kcbs:
    def test_pentagon_numbers_and_certificates(self):
        t0 = time.perf_counter()
        psi, _, total = kcbs_construction()
        assert total == pytest.approx(5 - 4 * np.sqrt(5), abs=1e-9)
        from contextuality.scenario import from_quantum
        section = solve_global_section(from_quantum(psi, pentagon_contexts()))
        assert section.verdict == "infeasible"
        assert section.dual is not None
        cert = section.certificate()
        assert cert["verdict"] == "infeasible" and "dual" in cert
        graph = kcbs_graph()
        csw = csw_inequality(graph, state=psi)
        assert csw.lhs == pytest.approx(np.sqrt(5), abs=1e-9)
        best = 0
        for size in range(1, 6):
            for subset in itertools.combinations(graph.labels, size):
                chosen = set(subset)
                if any(a in chosen and b in chosen for a, b in graph.edges):
                    continue
                best = max(best, size)
        assert csw.bound == best == 2
        assert csw.violated
        elapsed = time.perf_counter() - t0
        assert elapsed < 2.0
        report_pass(1, f"sum {total:.9f} within 1e-9 of 5-4*sqrt(5), "
                       f"section infeasible with dual, CSW {csw.lhs:.6f} > 2 "
                       f"({elapsed:.2f}s)")


class TestCriterion2Chsh:
    def test_grid_oracle_vertices_and_separation(self):
        t0 = time.perf_counter()
        oracle = grid_scan_max(1.0)
        assert oracle >= 2.828 - 1e-3
        vertices = [make_behaviour(2, 2, 2, 2, p) for p in ld_vertex_boxes(2, 2, 2, 2)]
        assert len(vertices) == 16
        ld_values = [chsh_value(v) for v in vertices]
        assert all(value <= 2 for value in ld_values)
        assert max(ld_values) == 2
        result = membership_lp(singlet_behaviour())
        assert result.verdict == "outside"
        ineq = result.separating
        vertex_values = []
        for vb in vertices:
            p = behaviour_table(vb)
            vertex_values.append(sum(coeff * p.get(key, Fraction(0))
                                     for key, coeff
                                     in ineq.coefficients.items()))
        assert max(vertex_values) == ineq.bound
        assert result.value > ineq.bound
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0
        report_pass(2, f"oracle {oracle:.6f} >= 2.827, 16 LD values <= 2 "
                       f"exactly, separating bound equals LD maximum "
                       f"({elapsed:.2f}s)")


class TestCriterion3WernerGap:
    def test_local_yet_preparation_contextual(self):
        t0 = time.perf_counter()
        behaviour = singlet_behaviour(alpha=0.4)
        membership = membership_lp(behaviour)
        assert membership.verdict == "inside"
        nc = prep_nc_check(qubit_prep_ensemble(Fraction(0)))
        assert not nc.feasible
        assert len(nc.cases) == 16
        assert all(not case.feasible for case in nc.cases)
        doc = {"kind": "empirical", "model": None,
               "prep_ensemble": {"r": "0"}}
        tables = {",".join(ctx): {f"{a},{b}": float(v) for (a, b), v in table.items()}
                  for ctx, table in behaviour.tables.items()}
        doc["model"] = {
            "measurements": [{"label": f"A{x}", "outcomes": [0, 1]}
                             for x in range(2)]
                          + [{"label": f"B{y}", "outcomes": [0, 1]}
                             for y in range(2)],
            "contexts": [[f"A{x}", f"B{y}"]
                         for x in range(2) for y in range(2)],
            "tables": tables,
        }
        report = classify(doc, RunConfig())
        assert report.bell_local == "yes"
        assert report.spekkens_noncontextual == "no"
        assert check_implications(report) is None
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0
        report_pass(3, "alpha=0.4 inside local polytope, 16/16 ensemble "
                       f"cases infeasible, classifier yes/yes/no "
                       f"({elapsed:.2f}s)")


class TestCriterion4PeresMermin:
    def test_sign_oracle_and_state_independence(self):
        t0 = time.perf_counter()
        grid = peres_mermin_square()
        eye = np.eye(4)

        def sign(product):
            if sup_norm(product - eye) < 1e-9:
                return 1
            if sup_norm(product + eye) < 1e-9:
                return -1
            raise AssertionError("context product is not +/- identity")

        rows = [sign(grid[i][0] @ grid[i][1] @ grid[i][2]) for i in range(3)]
        cols = [sign(grid[0][j] @ grid[1][j] @ grid[2][j]) for j in range(3)]
        assert rows == [1, 1, 1]
        assert cols == [1, 1, -1]
        satisfying = 0
        for bits in itertools.product((1, -1), repeat=9):
            cells = [bits[0:3], bits[3:6], bits[6:9]]
            ok = all(cells[i][0] * cells[i][1] * cells[i][2] == rows[i]
                     for i in range(3))
            ok = ok and all(cells[0][j] * cells[1][j] * cells[2][j] == cols[j]
                            for j in range(3))
            satisfying += ok
        assert satisfying == 0
        contexts = []
        for i in range(3):
            contexts.append([pvm_from_observable(grid[i][j], PM_LABELS[i][j])
                             for j in range(3)])
        for j in range(3):
            contexts.append([pvm_from_observable(grid[i][j], PM_LABELS[i][j])
                             for i in range(3)])
        from contextuality.scenario import from_quantum
        rng = np.random.default_rng(20240819)
        for _ in range(3):
            section = solve_global_section(
                from_quantum(random_density(4, rng), contexts))
            assert section.verdict == "infeasible"
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0
        report_pass(4, "0 of 512 assignments satisfy the six sign "
                       f"constraints, 3/3 random states infeasible "
                       f"({elapsed:.2f}s)")


class TestCriterion5QslStatistics:
    def test_nine_basis_pairs_within_three_sigma(self):
        t0 = time.perf_counter()
        shots = 100_000
        checked = 0
        for i, prep_basis in enumerate(BASES):
            for j, meas_basis in enumerate(BASES):
                program = QslProgram(preparation=(prep_basis, 0),
                                     measurement=meas_basis,
                                     shots=shots, seed=1000 + 10 * i + j)
                result = run_program(program)
                probs = quantum_outcome_probs((prep_basis, 0), (),
                                              meas_basis)
                if prep_basis == meas_basis:
                    assert result.freqs[0] == 1.0
                    assert result.freqs[1] == 0.0
                else:
                    for outcome in (0, 1):
                        p = probs[outcome]
                        bound = 3 * np.sqrt(p * (1 - p) / shots)
                        assert abs(result.freqs[outcome] - p) <= bound
                checked += 1
        assert checked == 9
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0
        report_pass(5, f"9/9 basis pairs at {shots} shots within three "
                       f"sigma, same-basis exact ({elapsed:.2f}s)")


class TestCriterion6OracleEquivalence:
    def test_sheaf_equals_membership_on_200_models(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(20240821)
        inside = outside = 0
        for _ in range(200):
            p = random_nd_box(rng)
            reference = reference_membership_lp(p, 2, 2, 2, 2)
            membership = membership_lp(make_behaviour(2, 2, 2, 2, p))
            section = solve_global_section(model_from_json(box_model_doc(p)))
            assert (section.verdict == "feasible") == reference.inside
            assert membership.inside == reference.inside
            if reference.inside:
                inside += 1
            else:
                outside += 1
        assert inside > 0 and outside > 0
        elapsed = time.perf_counter() - t0
        report_pass(6, f"200/200 verdicts agree ({inside} local, "
                       f"{outside} nonlocal, {elapsed:.1f}s)")


class TestCriterion7SharpCorrespondence:
    def test_embed_sharp_equals_sheaf_on_50_gpts(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(20240822)
        embeddable = refused = 0
        for _ in range(50):
            state, contexts = random_sharp_instance(rng)
            gpt = sharp_gpt_from_quantum([state], contexts)
            res = embed_sharp(gpt)
            # independent route: the mixture LP over backtracked assignments
            oracle = reference_sharp_mixture(
                gpt.sharp_contexts, atom_values(induced_model(gpt, 0)))
            assert res.feasible == oracle.feasible
            if res.feasible:
                embeddable += 1
            else:
                refused += 1
        assert embeddable > 0 and refused > 0
        elapsed = time.perf_counter() - t0
        report_pass(7, f"50/50 verdicts agree ({embeddable} embeddable, "
                       f"{refused} refused, {elapsed:.1f}s)")


class TestCriterion8ImplicationLattice:
    def test_500_random_inputs_zero_violations(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(20240823)
        reports = []
        for _ in range(350):
            doc = {"kind": "empirical",
                   "model": box_model_doc(random_nd_box(rng))}
            reports.append(classify(doc, RunConfig()))
        for _ in range(50):
            state, contexts = random_sharp_instance(rng)
            reports.append(classify_quantum(state, contexts))
        for _ in range(30):
            state, contexts = random_sharp_instance(rng)
            gpt = sharp_gpt_from_quantum([state], contexts)
            reports.append(classify_gpt(gpt))
        for _ in range(20):
            d = int(rng.integers(2, 5))
            n_states = int(rng.integers(1, 4))
            states = []
            for _ in range(n_states):
                raw = rng.integers(1, 9, size=d)
                states.append(np.array([Fraction(int(v), int(raw.sum()))
                                        for v in raw], dtype=float))
            effects = [np.eye(d)[i] for i in range(d)]
            gpt = make_gpt(states, effects, np.ones(d), sharp_contexts=())
            reports.append(classify_gpt(gpt))
        for _ in range(50):
            r = Fraction(int(rng.integers(-9, 10)), 10)
            axis = rng.normal(size=3)
            while float(np.linalg.norm(axis)) < 1e-6:
                axis = rng.normal(size=3)
            problem = qubit_prep_ensemble(r, tuple(axis))
            reports.append(classify_prep_ensemble(problem))
        assert len(reports) == 500
        violations = [detail for detail in map(check_implications, reports)
                      if detail is not None]
        assert violations == []
        levels = sorted({r.hierarchy_level for r in reports})
        elapsed = time.perf_counter() - t0
        report_pass(8, f"500 inputs, zero lattice violations, levels seen: "
                       f"{', '.join(levels)} ({elapsed:.1f}s)")


class TestCriterion9PairwiseBounds:
    def test_formula_values_and_toy_brute_force(self):
        t0 = time.perf_counter()
        assert badziag_inequality(9, 6).bound == 34
        assert badziag_inequality(5, 3).bound == 3
        toy = badziag_inequality(3, contexts=[(0, 1), (1, 2), (0, 2),
                                              (0, 1, 2)])
        values = [toy.evaluate_assignment(assignment)
                  for assignment in itertools.product((1, -1), repeat=3)]
        assert len(values) == 8
        assert all(value <= toy.bound for value in values)
        elapsed = time.perf_counter() - t0
        report_pass(9, f"bounds 34 and 3 by formula, toy maximum "
                       f"{max(values)} <= {toy.bound} over 8 assignments "
                       f"({elapsed:.2f}s)")


class TestCriterion10PuseyRoute:
    def test_six_ensemble_and_single_prep(self):
        t0 = time.perf_counter()
        stats, group, problem = six_ensemble_statistics(Fraction(1, 2))
        result = pusey_incomplete_check(stats, declared_equivalences=[group])
        assert result.verdict == "contextual"
        single = pusey_incomplete_check({"phi": stats["phi"]})
        assert single.verdict == "inconclusive"
        nc = prep_nc_check(problem)
        assert (not nc.feasible) == (result.verdict == "contextual")
        elapsed = time.perf_counter() - t0
        report_pass(10, "six-ensemble contextual, single preparation "
                        f"inconclusive, agrees with the case analysis "
                        f"({elapsed:.2f}s)")
