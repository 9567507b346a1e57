"""Local-polytope and graph-inequality checks.

Verification strategy:
- the two-setting functional is maximised by an independent two-stage angle
  grid built directly from Born-rule traces (coarse scan plus local
  refinement), and the frozen optimum 2*sqrt(2) is asserted against it;
- separating inequalities are re-checked in the test against every
  deterministic vertex, exactly;
- independence numbers are cross-checked against subset brute force;
- deterministic-assignment bounds (pairwise-correlation and exclusivity
  functionals, and the two-party lift) are verified by full enumeration;
- the membership verdict is compared with the dense-vertex LP oracle
  (`reference_membership_lp`, its own vertex list and simplex) on
  randomised no-signaling boxes, and its weights or separating inequality
  are re-checked on the oracle's vertex list;
- the two-party lift's deterministic maximum is compared with a 4^n
  brute-force scan on random weighted graphs.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextuality.exactlp import TooLargeError
from contextuality.polytope import (
    CHSH_OPTIMAL_ANGLES,
    BipartiteLift,
    LabelMismatch,
    MissingProjectors,
    ShapeMismatch,
    TooFewContexts,
    badziag_inequality,
    behaviour_from_quantum,
    bipartite_structure,
    chsh_value,
    contextuality_to_bell,
    csw_inequality,
    kcbs_graph,
    make_behaviour,
    make_orthogonality_graph,
    membership_from_section,
    membership_lp,
    singlet_behaviour,
    weighted_independence_number,
)
from contextuality.quantum import (
    BadEigenvalue,
    PAULI_Z,
    dm,
    peres_mermin_square,
    pvm_from_observable,
    tensor,
    werner_state,
)
from contextuality.scenario import (
    SchemaError,
    make_model,
    make_scenario,
    validate_no_disturbance,
)
from contextuality.sheaf import solve_global_section

RNG = np.random.default_rng(20240819)

PM_LABELS = [["Z1", "Z2", "ZZ"], ["X2", "X1", "XX"], ["ZX", "XZ", "YY"]]


def uniform_behaviour(nX=2, nY=2, nA=2, nB=2):
    v = Fraction(1, nA * nB)
    p = {(a, b, x, y): v for a in range(nA) for b in range(nB)
         for x in range(nX) for y in range(nY)}
    return make_behaviour(nX, nY, nA, nB, p)


from oracles import (  # noqa: E402
    HiddenVariableModel,
    behaviour_from_json,
    behaviour_table,
    behaviour_to_json,
    brute_force_lift_maximum,
    correlator,
    enumerate_global_assignments,
    grid_scan_max,
    ld_vertex_boxes,
    pr_box_model,
    random_box,
    reference_membership_lp,
    sic_to_sdc_reduction,
)


def vertex_behaviours(nX=2, nY=2, nA=2, nB=2):
    return [make_behaviour(nX, nY, nA, nB, p) for p in ld_vertex_boxes(nX, nY, nA, nB)]


class TestBehaviour:
    def test_slice_sums_enforced(self):
        with pytest.raises(ValueError, match="sums to"):
            make_behaviour(1, 1, 2, 2, {(0, 0, 0, 0): Fraction(1, 2)})

    def test_exact_slice_must_sum_to_exactly_one(self):
        p = {(0, 0, 0, 0): Fraction(1, 2), (1, 1, 0, 0): Fraction(1, 2) + Fraction(1, 10 ** 14)}
        with pytest.raises(ValueError, match="sums to"):
            make_behaviour(1, 1, 2, 2, p)
        # A float slice keeps its float tolerance.
        make_behaviour(1, 1, 2, 2, {k: float(v) for k, v in p.items()})

    def test_float_slice_tolerance_is_the_model_tolerance(self):
        # make_model forgives a float table's miss up to ND_TOL; so does a slice.
        near = make_behaviour(1, 1, 2, 2, {(0, 0, 0, 0): 0.5, (1, 1, 0, 0): 0.5 + 1e-11})
        assert membership_lp(near).inside
        with pytest.raises(ValueError, match="sums to"):
            make_behaviour(1, 1, 2, 2, {(0, 0, 0, 0): 0.5, (1, 1, 0, 0): 0.5 + 1e-8})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_entries_rejected(self, bad):
        p = {(0, 0, 0, 0): bad, (1, 1, 0, 0): 1.0}
        with pytest.raises(ValueError, match="not finite"):
            make_behaviour(1, 1, 2, 2, p)
        doc = behaviour_to_json(make_behaviour(1, 1, 2, 2, {(1, 1, 0, 0): 1.0}))
        doc["p"]["0,0|0,0"] = bad
        with pytest.raises(SchemaError, match="not finite"):
            behaviour_from_json(doc)

    def test_key_outside_declared_ranges_rejected(self):
        for key in ((2, 0, 0, 0), (0, 1, 0, 1), (0, 0, -1, 0)):
            with pytest.raises(ShapeMismatch, match="outside declared ranges"):
                make_behaviour(1, 1, 2, 2, {(0, 0, 0, 0): Fraction(1), key: Fraction(0)})

    def test_layout_is_the_two_party_scenario(self):
        b = make_behaviour(2, 3, 2, 3, {(0, 0, x, y): Fraction(1)
                                        for x in range(2) for y in range(3)})
        sc = b.scenario
        assert sc.measurements == ("A0", "A1", "B0", "B1", "B2")
        assert sc.contexts == tuple((f"A{x}", f"B{y}") for x in range(2) for y in range(3))
        assert sc.outcomes["A1"] == (0, 1) and sc.outcomes["B2"] == (0, 1, 2)
        assert b.tables[("A1", "B2")][(0, 0)] == 1 and b.tables[("A1", "B2")][(1, 2)] == 0

    def test_pr_box_signature(self):
        b = pr_box_model()
        assert correlator(b, 0, 0) == 1
        assert correlator(b, 0, 1) == -1
        assert correlator(b, 1, 1) == 1
        assert b.exactly_consistent
        assert validate_no_disturbance(b).passed

    def test_singlet_correlators_follow_cosine_law(self):
        b = singlet_behaviour((0.0, np.pi / 2, np.pi / 4, 3 * np.pi / 4))
        angles = {(0, 0): (0, np.pi / 4), (0, 1): (0, 3 * np.pi / 4),
                  (1, 0): (np.pi / 2, np.pi / 4), (1, 1): (np.pi / 2, 3 * np.pi / 4)}
        for (x, y), (ta, tb) in angles.items():
            assert correlator(b, x, y) == pytest.approx(-np.cos(ta - tb), abs=1e-12)

    def test_json_round_trip(self):
        b = pr_box_model()
        again = behaviour_from_json(behaviour_to_json(b))
        assert again.tables == b.tables

    def test_json_bad_key_rejected(self):
        with pytest.raises(SchemaError):
            behaviour_from_json({"nX": 1, "nY": 1, "nA": 2, "nB": 2,
                                 "p": {"zero|stuff": "1"}})

    def test_rationalize_preserves_no_signaling_exactly(self):
        b = singlet_behaviour()
        rb = membership_lp(b).model
        assert rb.is_rational
        assert rb.exactly_consistent
        assert validate_no_disturbance(rb, tol=0.0).passed
        floats, exact = behaviour_table(b), behaviour_table(rb)
        assert exact.keys() == floats.keys()
        worst = max(abs(float(exact[c]) - floats[c]) for c in floats)
        assert worst < 1e-3


class TestLdVertices:
    """The local deterministic vertices are the two-party model's global assignments."""

    def test_counts(self):
        for n, count in ((2, 16), (3, 64)):
            model = uniform_behaviour(nX=n, nY=n)
            assert solve_global_section(model).matrix.shape[1] == count

    def test_vertex_behaviour_entries_are_boolean(self):
        model = uniform_behaviour()
        sc = model.scenario
        for t in itertools.islice(enumerate_global_assignments(sc), 4):
            point = HiddenVariableModel(sc, (dict(zip(sc.measurements, t)),),
                                        (Fraction(1),))
            values = {v for table in point.induced_model().tables.values()
                      for v in table.values()}
            assert values <= {Fraction(0), Fraction(1)}


class TestChshValue:
    def test_ld_maximum_is_exactly_two(self):
        values = [chsh_value(v) for v in vertex_behaviours()]
        assert max(values) == 2
        assert all(v <= 2 for v in values)

    def test_pr_box_reaches_four(self):
        assert chsh_value(pr_box_model()) == 4

    def test_singlet_optimal_value(self):
        b = singlet_behaviour(CHSH_OPTIMAL_ANGLES)
        assert chsh_value(b) == pytest.approx(2 * np.sqrt(2), abs=1e-9)

    def test_grid_oracle_confirms_optimum(self):
        best = grid_scan_max(alpha=1.0)
        assert best >= 2 * np.sqrt(2) - 1e-3
        assert best <= 2 * np.sqrt(2) + 1e-9

    def test_werner_04_never_violates_on_grid(self):
        best = grid_scan_max(alpha=0.4)
        assert best == pytest.approx(0.4 * 2 * np.sqrt(2), abs=1e-3)
        assert best < 2

    def test_shape_guard(self):
        with pytest.raises(ShapeMismatch):
            chsh_value(uniform_behaviour(nX=3, nY=2))
        with pytest.raises(ShapeMismatch):
            chsh_value(uniform_behaviour(nA=3))


class TestMembership:
    def test_uniform_noise_inside(self):
        res = membership_lp(uniform_behaviour())
        assert res.inside
        assert sum(w for _, w in res.weights) == 1

    def test_uniform_inside_three_settings(self):
        res = membership_lp(uniform_behaviour(nX=3, nY=3))
        assert res.inside

    def test_singlet_outside_with_sound_certificate(self):
        res = membership_lp(singlet_behaviour(CHSH_OPTIMAL_ANGLES))
        assert not res.inside
        ineq = res.separating

        def evaluate(model):
            p = behaviour_table(model)
            assert ineq.coefficients.keys() == p.keys()
            return sum(coeff * p[key] for key, coeff in ineq.coefficients.items())

        for v in vertex_behaviours():
            assert evaluate(v) <= ineq.bound
        value = evaluate(res.model)
        assert value > ineq.bound
        assert value == res.value

    def test_pr_box_outside(self):
        assert not membership_lp(pr_box_model()).inside

    def test_model_without_two_party_layout_rejected(self):
        pentagon = make_model(
            make_scenario([(f"M{j}", (0, 1)) for j in range(5)],
                          [[f"M{j}", f"M{(j + 1) % 5}"] for j in range(5)]),
            {(f"M{j}", f"M{(j + 1) % 5}"): {(0, 1): Fraction(1, 2), (1, 0): Fraction(1, 2)}
             for j in range(5)})
        with pytest.raises(ShapeMismatch, match="two-party"):
            membership_lp(pentagon)

    def test_werner_04_inside(self):
        res = membership_lp(singlet_behaviour(CHSH_OPTIMAL_ANGLES, alpha=0.4))
        assert res.inside

    def test_convex_mixture_of_inside_stays_inside(self):
        u = behaviour_table(uniform_behaviour())
        w = behaviour_table(
            membership_lp(singlet_behaviour(CHSH_OPTIMAL_ANGLES, alpha=0.4)).model)
        lam = Fraction(1, 3)
        mix = make_behaviour(2, 2, 2, 2, {c: lam * u[c] + (1 - lam) * w[c] for c in u})
        assert membership_lp(mix).inside

    def test_matches_global_section_verdict_on_random_boxes(self):
        rng = np.random.default_rng(31)
        agreements = 0
        for _ in range(25):
            singles = [Fraction(int(k), 12) for k in rng.integers(1, 12, size=4)]
            a0, a1, b0, b1 = singles
            p = {}
            for x, a in ((0, a0), (1, a1)):
                for y, b in ((0, b0), (1, b1)):
                    lo = max(Fraction(0), a + b - 1)
                    hi = min(a, b)
                    z = lo + Fraction(int(rng.integers(0, 13)), 12) * (hi - lo)
                    p[(0, 0, x, y)] = z
                    p[(0, 1, x, y)] = a - z
                    p[(1, 0, x, y)] = b - z
                    p[(1, 1, x, y)] = 1 - a - b + z
            beh = make_behaviour(2, 2, 2, 2, p)
            assert membership_lp(beh).inside == reference_membership_lp(p, 2, 2, 2, 2).inside
            agreements += 1
        assert agreements == 25

    @pytest.mark.parametrize("shape", [(2, 2, 2, 2), (2, 3, 2, 3), (3, 2, 3, 2)])
    def test_certificate_fields_against_oracle_vertices(self, shape):
        """Either verdict is proven on the oracle's own vertex list."""
        rng = np.random.default_rng(sum(shape))
        vertices = ld_vertex_boxes(*shape)
        seen = set()
        for trial in range(6):
            p = random_box(rng, shape, Fraction(trial, 5))
            res = membership_lp(make_behaviour(*shape, p))
            seen.add(res.inside)
            if res.inside:
                support = [k for k, _ in res.weights]
                assert support == sorted(set(support))
                assert all(0 <= k < len(vertices) and w > 0 for k, w in res.weights)
                for c in p:
                    assert sum(w * vertices[k][c] for k, w in res.weights) == p[c]
                continue
            ineq = res.separating
            assert set(ineq.coefficients) == set(p)
            scores = [sum(ineq.coefficients[c] * v[c] for c in p) for v in vertices]
            assert max(scores) == ineq.bound
            assert scores.index(ineq.bound) == res.witness_vertex
            assert res.value == sum(ineq.coefficients[c] * p[c] for c in p)
            assert res.value > ineq.bound
        assert seen == {True, False}


class TestBellReadout:
    """`membership_from_section` sums y^T v on the integer tables, with y
    cleared once, and formats each coefficient as it is.  Value, bound,
    witness and every written coefficient must match a recomputation in
    ``Fraction`` arithmetic from the section's dual, the oracle's vertex
    list and the box itself."""

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 4), st.integers(2, 4), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([Fraction(7, 10), Fraction(4, 5), Fraction(1)]))
    def test_readout_against_fraction_recomputation(self, nX, nY, seed, pr_weight):
        # Past 2/3 the PR component breaks the CHSH bound whatever the mixture.
        shape = (nX, nY, 2, 2)
        p = random_box(np.random.default_rng(seed), shape, pr_weight)
        model = make_behaviour(*shape, p)
        section = solve_global_section(model)
        res = membership_from_section(section, bipartite_structure(model))
        assert not res.inside
        coefficients = {}
        for (ctx, (a, b)), yi in zip(section.matrix.rows, section.dual):
            coefficients[a, b, int(ctx[0][1:]), int(ctx[1][1:])] = Fraction(yi)
        scores = [sum(c * v[k] for k, c in coefficients.items())
                  for v in ld_vertex_boxes(*shape)]
        value = sum(c * p[k] for k, c in coefficients.items())
        assert (res.value, res.separating.bound) == (value, max(scores))
        assert res.witness_vertex == scores.index(max(scores))
        assert res.separating.coefficients == coefficients
        cert = res.certificate()
        written = {f"{a},{b}|{x},{y}": f"{c.numerator}/{c.denominator}"
                   for (a, b, x, y), c in coefficients.items()}
        assert cert["separating"] == {"kind": "bell", "coefficients": written,
                                      "bound": f"{max(scores).numerator}/"
                                               f"{max(scores).denominator}"}
        assert cert["value_on_behaviour"] == f"{value.numerator}/{value.denominator}"


class TestPairwiseCorrelationBound:
    def test_frozen_bounds(self):
        assert badziag_inequality(9, 6).bound == 34
        assert badziag_inequality(5, 3).bound == 3

    def test_toy_assignments_respect_bound(self):
        ineq = badziag_inequality(3, contexts=[(0, 1), (1, 2), (0, 2), (0, 1, 2)])
        assert ineq.d == 4
        assert ineq.bound == 4
        assert ineq.pairs == ((0, 1), (0, 2), (1, 2))
        best = max(ineq.evaluate_assignment(v)
                   for v in itertools.product((1, -1), repeat=3))
        assert best == 2
        assert best <= ineq.bound

    def test_degenerate_context_count_rejected(self):
        with pytest.raises(TooFewContexts):
            badziag_inequality(3, 2)

    def test_expectation_form_matches_assignment_form(self):
        ineq = badziag_inequality(4, 5)
        values = (1, -1, -1, 1)
        singles = {i: values[i] for i in range(4)}
        pairs = {p: values[p[0]] * values[p[1]] for p in ineq.pairs}
        assert ineq.evaluate(singles, pairs) == ineq.evaluate_assignment(values)


def brute_force_alpha(g):
    best = Fraction(0)
    labels = g.labels
    adj = set(g.edges)
    for bits in itertools.product((0, 1), repeat=len(labels)):
        chosen = [l for l, s in zip(labels, bits) if s]
        if any(tuple(sorted((a, b), key=str)) in adj
               for a, b in itertools.combinations(chosen, 2)):
            continue
        best = max(best, sum(Fraction(g.weights[l]) for l in chosen))
    return best


class TestIndependenceNumber:
    def test_pentagon(self):
        g = make_orthogonality_graph(
            {i: 1 for i in range(5)}, [(i, (i + 1) % 5) for i in range(5)])
        alpha, witness = weighted_independence_number(g)
        assert alpha == 2
        assert alpha == brute_force_alpha(g)
        assert len(witness) == 2

    def test_edgeless(self):
        g = make_orthogonality_graph({0: 1, 1: 1, 2: 1}, [])
        alpha, witness = weighted_independence_number(g)
        assert alpha == 3 and set(witness) == {0, 1, 2}

    def test_complete_graph_picks_heaviest(self):
        g = make_orthogonality_graph({0: 1, 1: 2, 2: 3},
                                     [(0, 1), (1, 2), (0, 2)])
        alpha, witness = weighted_independence_number(g)
        assert alpha == 3 and witness == (2,)

    def test_matches_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(37)
        for trial in range(5):
            n = 8 + 2 * trial
            weights = {i: Fraction(int(k), 4) for i, k in
                       enumerate(rng.integers(1, 9, size=n))}
            edges = [(i, j) for i, j in itertools.combinations(range(n), 2)
                     if rng.random() < 0.3]
            g = make_orthogonality_graph(weights, edges)
            alpha, witness = weighted_independence_number(g)
            assert alpha == brute_force_alpha(g)
            assert sum(weights[l] for l in witness) == alpha

    def test_size_guard(self):
        g = make_orthogonality_graph({i: 1 for i in range(41)}, [])
        with pytest.raises(TooLargeError):
            weighted_independence_number(g)


class TestExclusivityInequality:
    def test_pentagon_quantum_violation(self):
        rep = csw_inequality(kcbs_graph(), state=dm([1, 0, 0]))
        assert rep.lhs == pytest.approx(np.sqrt(5), abs=1e-9)
        assert rep.bound == 2
        assert rep.violated

    def test_deterministic_assignments_respect_bound(self):
        g = kcbs_graph()
        for bits in itertools.product((0, 1), repeat=5):
            singles = {l: Fraction(s) for l, s in zip(g.labels, bits)}
            joints = {(a, b): singles[a] * singles[b] for a, b in g.edges}
            rep = csw_inequality(g, singles=singles, joints=joints)
            assert rep.lhs <= rep.bound
            assert not rep.violated

    def test_all_zero_probabilities(self):
        g = kcbs_graph()
        singles = {l: Fraction(0) for l in g.labels}
        joints = {e: Fraction(0) for e in g.edges}
        rep = csw_inequality(g, singles=singles, joints=joints)
        assert rep.lhs == 0 and not rep.violated

    def test_missing_probability_rejected(self):
        g = kcbs_graph()
        with pytest.raises(LabelMismatch):
            csw_inequality(g, singles={"P0": 1})

    def test_pentagon_edges_are_the_cycle(self):
        g = kcbs_graph()
        assert len(g.edges) == 5
        degree = {l: 0 for l in g.labels}
        for a, b in g.edges:
            degree[a] += 1
            degree[b] += 1
        assert set(degree.values()) == {2}


class TestBipartiteLift:
    def test_pentagon_lift_matches_maximally_mixed(self):
        lift = contextuality_to_bell(kcbs_graph(), 3)
        single = csw_inequality(kcbs_graph(), state=np.eye(3, dtype=complex) / 3)
        assert lift.quantum_value == pytest.approx(single.lhs, abs=1e-9)
        assert lift.quantum_value == pytest.approx(5 / 3, abs=1e-9)
        assert lift.bound == 2

    def test_deterministic_strategies_respect_bound(self):
        lift = contextuality_to_bell(kcbs_graph(), 3)
        assert lift.ld_maximum() == Fraction(2)

    def test_ld_maximum_matches_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(41)
        for trial in range(12):
            n = 1 + trial % 6
            weights = {f"v{i}": Fraction(int(k), 3)
                       for i, k in enumerate(rng.integers(0, 7, size=n))}
            edges = [(f"v{i}", f"v{j}") for i, j in itertools.combinations(range(n), 2)
                     if rng.random() < 0.4]
            lift = BipartiteLift(graph=make_orthogonality_graph(weights, edges),
                                 dim=n, bound=Fraction(0), quantum_value=0.0)
            assert lift.ld_maximum() == brute_force_lift_maximum(weights, lift.graph.edges)

    def test_zero_weight_graph_trivial(self):
        vs = kcbs_graph().projectors
        g = make_orthogonality_graph({l: Fraction(0) for l in vs},
                                     [], projectors=vs)
        lift = contextuality_to_bell(g, 3)
        assert lift.bound == 0
        assert lift.quantum_value == pytest.approx(0.0, abs=1e-12)

    def test_size_guard_counts_first_party_answers(self):
        g = make_orthogonality_graph({i: 1 for i in range(11)}, [])
        lift = BipartiteLift(graph=g, dim=2, bound=Fraction(0), quantum_value=0.0)
        with pytest.raises(TooLargeError, match=r"2\^11 first-party answers"):
            lift.ld_maximum()

    def test_projectors_required(self):
        g = make_orthogonality_graph({0: 1, 1: 1}, [(0, 1)])
        with pytest.raises(MissingProjectors):
            contextuality_to_bell(g, 3)


def pm_observables():
    grid = peres_mermin_square()
    return {PM_LABELS[r][c]: grid[r][c] for r in range(3) for c in range(3)}


def pm_contexts_labels():
    rows = [PM_LABELS[r] for r in range(3)]
    cols = [[PM_LABELS[r][c] for r in range(3)] for c in range(3)]
    return rows + cols


class TestStateReduction:
    def test_removed_set_plus_chosen_is_original(self):
        obs = pm_observables()
        reduced, _ = sic_to_sdc_reduction(obs, "Z1", +1)
        assert set(reduced) | {"Z1"} == set(obs)
        assert "Z1" not in reduced

    def test_post_state_is_normalised_projection(self):
        obs = pm_observables()
        _, rho = sic_to_sdc_reduction(obs, "Z1", +1)
        np.testing.assert_allclose(rho, np.diag([0.5, 0.5, 0, 0]), atol=1e-12)

    def test_magic_square_remnant_is_infeasible(self):
        obs = pm_observables()
        reduced, rho = sic_to_sdc_reduction(obs, "Z1", +1)
        pvms = {l: pvm_from_observable(m, l) for l, m in reduced.items()}
        contexts = [[pvms[l] for l in ctx if l != "Z1"]
                    for ctx in pm_contexts_labels()]
        from contextuality.scenario import from_quantum
        model = from_quantum(rho, contexts)
        assert not solve_global_section(model).feasible

    def test_commuting_set_remnant_is_feasible(self):
        obs = {"Z1": tensor(PAULI_Z, np.eye(2)),
               "Z2": tensor(np.eye(2), PAULI_Z),
               "ZZ": tensor(PAULI_Z, PAULI_Z)}
        reduced, rho = sic_to_sdc_reduction(obs, "Z1", +1)
        pvms = [pvm_from_observable(m, l) for l, m in reduced.items()]
        from contextuality.scenario import from_quantum
        model = from_quantum(rho, [pvms])
        assert solve_global_section(model).feasible

    def test_bad_eigenvalue(self):
        with pytest.raises(BadEigenvalue):
            sic_to_sdc_reduction(pm_observables(), "Z1", 0.5)

    def test_unknown_label(self):
        with pytest.raises(LabelMismatch):
            sic_to_sdc_reduction(pm_observables(), "nope", 1)


class TestQuantumBehaviourBridge:
    def test_werner_reproduces_scaled_correlators(self):
        b = behaviour_from_quantum(werner_state(0.4),
                                   [pvm_from_observable(PAULI_Z, "A0")],
                                   [pvm_from_observable(PAULI_Z, "B0")])
        assert b.scenario.measurements == ("A0", "B0")
        # eigh orders eigenvalues ascending, so index 0 is the -1 outcome on
        # both sides and the correlator convention still yields -(0.4)
        assert correlator(b, 0, 0) == pytest.approx(-0.4, abs=1e-12)

    def test_outcome_count_mismatch_rejected(self):
        qutrit = pvm_from_observable(np.diag([1.0, 2.0, 3.0]), "A1")
        with pytest.raises(ShapeMismatch):
            behaviour_from_quantum(werner_state(0.4),
                                   [pvm_from_observable(PAULI_Z, "A0"), qutrit],
                                   [pvm_from_observable(PAULI_Z, "B0")])
