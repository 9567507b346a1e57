"""Tests for the top-level classifier and its verdict lattice.

Verification strategy: the lattice rules are checked against hand-picked
verdict triples, the hierarchy ladder against all reachable combinations,
and the end-to-end classifier against scenarios whose verdicts are
independently established by the solver-level test modules (PR box,
tilted singlet, pentagon, observable grid, mixed-state controls).
Report serialization must be byte-identical across repeated runs.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import os
import subprocess
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import contextuality
from contextuality.cli import main
from contextuality.exactlp import CertificateError, Feasibility, require_certificate
from contextuality.polytope import bipartite_structure, membership_from_section
from contextuality.sheaf import SectionFeasibility, solve_global_section

from contextuality.classify import (
    HIERARCHY_LEVELS,
    LatticeViolation,
    RunConfig,
    assemble_report,
    check_implications,
    classify,
    hierarchy_level,
    parse_document,
    report_to_json,
)
from contextuality.embedding import gpt_to_json, sharp_gpt_from_quantum
from contextuality.polytope import CHSH_OPTIMAL_ANGLES, singlet_behaviour
from contextuality.quantum import (
    dm,
    kcbs_construction,
    matrix_to_json,
    max_entangled,
    projective_context,
    pvm_from_observable,
)
from contextuality.scenario import SchemaError, from_quantum, make_scenario, model_from_json
from oracles import cycle_margin, reference_bipartite_structure


def uniform_chsh_tables() -> dict:
    tables = {}
    for x in range(2):
        for y in range(2):
            tables[f"A{x},B{y}"] = {f"{a},{b}": "1/4"
                                    for a in range(2) for b in range(2)}
    return tables


def chsh_model_doc(tables: dict) -> dict:
    return {
        "kind": "empirical",
        "model": {
            "measurements": [{"label": f"A{x}", "outcomes": [0, 1]}
                             for x in range(2)]
                          + [{"label": f"B{y}", "outcomes": [0, 1]}
                             for y in range(2)],
            "contexts": [[f"A{x}", f"B{y}"]
                         for x in range(2) for y in range(2)],
            "tables": tables,
        },
    }


def pr_box_doc() -> dict:
    tables = {}
    for x in range(2):
        for y in range(2):
            t = {}
            for a in range(2):
                for b in range(2):
                    t[f"{a},{b}"] = "1/2" if (a ^ b) == (x & y) else "0"
            tables[f"A{x},B{y}"] = t
    return chsh_model_doc(tables)


def behaviour_doc(model) -> dict:
    tables = {",".join(ctx): {f"{a},{b}": float(v) for (a, b), v in table.items()}
              for ctx, table in model.tables.items()}
    return chsh_model_doc(tables)


def kcbs_contexts():
    _, observables, _ = kcbs_construction()
    contexts = []
    for j in range(5):
        k = (j + 1) % 5
        contexts.append([pvm_from_observable(observables[j], f"A{j}"),
                         pvm_from_observable(observables[k], f"A{k}")])
    return contexts


def kcbs_quantum_doc(state) -> dict:
    contexts = []
    for ctx in kcbs_contexts():
        contexts.append([{"label": m.label,
                          "projectors": [matrix_to_json(p)
                                         for p in m.projectors]}
                         for m in ctx])
    return {"kind": "quantum", "state": matrix_to_json(state),
            "contexts": contexts}


def verdicts(report) -> tuple:
    return (report.bell_local, report.ks_noncontextual,
            report.spekkens_noncontextual)


class TestCheckImplications:
    def test_consistent_all_yes(self):
        assert check_implications(assemble_report("yes", "yes", "yes")) is None

    def test_bell_no_forces_ks_no(self):
        from contextuality.classify import ClassificationReport
        report = ClassificationReport(
            bell_local="no", ks_noncontextual="yes",
            spekkens_noncontextual="yes", hierarchy_level="undecided",
            certificates=())
        assert check_implications(report) is not None

    def test_not_applicable_contextual_is_fine(self):
        report = assemble_report("not-applicable", "no", "no")
        assert check_implications(report) is None

    def test_spekkens_yes_needs_ks_not_no(self):
        from contextuality.classify import ClassificationReport
        report = ClassificationReport(
            bell_local="not-applicable", ks_noncontextual="no",
            spekkens_noncontextual="yes", hierarchy_level="undecided",
            certificates=())
        assert check_implications(report) is not None

    def test_spekkens_yes_with_undecided_ks_is_fine(self):
        report = assemble_report("not-applicable", "undecided", "yes")
        assert check_implications(report) is None

    def test_domain_violations_detected(self):
        from contextuality.classify import ClassificationReport
        report = ClassificationReport(
            bell_local="maybe", ks_noncontextual="yes",
            spekkens_noncontextual="yes", hierarchy_level="undecided",
            certificates=())
        assert check_implications(report) is not None

    def test_undecided_bell_is_out_of_domain(self):
        from contextuality.classify import ClassificationReport
        report = ClassificationReport(
            bell_local="undecided", ks_noncontextual="yes",
            spekkens_noncontextual="undecided",
            hierarchy_level="undecided", certificates=())
        assert check_implications(report) is not None

    def test_assemble_raises_on_violation(self):
        with pytest.raises(LatticeViolation):
            assemble_report("no", "yes", "yes")


class TestHierarchyLevel:
    def test_all_seven_levels_reachable(self):
        reached = {
            hierarchy_level("no", "no", "no"),
            hierarchy_level("yes", "no", "no"),
            hierarchy_level("yes", "yes", "no"),
            hierarchy_level("yes", "yes", "yes"),
            hierarchy_level("yes", "yes", "undecided"),
            hierarchy_level("yes", "undecided", "undecided"),
            hierarchy_level("not-applicable", "undecided", "undecided"),
        }
        assert reached == set(HIERARCHY_LEVELS)

    def test_most_nonclassical_wins(self):
        assert hierarchy_level("no", "no", "no") == "bell-nonlocal"
        assert hierarchy_level("not-applicable", "no", "no") == "ks-contextual"
        assert hierarchy_level("yes", "yes", "no") == "spekkens-contextual"

    def test_spekkens_yes_dominates_ks_yes(self):
        assert hierarchy_level("yes", "yes", "yes") == "spekkens-noncontextual"

    def test_partial_knowledge(self):
        assert hierarchy_level("yes", "undecided",
                               "undecided") == "bell-local"
        assert hierarchy_level("not-applicable", "yes",
                               "undecided") == "ks-noncontextual"
        assert hierarchy_level("not-applicable", "undecided",
                               "undecided") == "undecided"


class TestBipartiteDetection:
    def test_chsh_grid_detected(self):
        model = model_from_json(pr_box_doc()["model"])
        split = bipartite_structure(model)
        assert split is not None
        side_a, side_b = split
        assert set(side_a) == {"A0", "A1"}
        assert set(side_b) == {"B0", "B1"}

    def test_first_declared_side_comes_first(self):
        model = model_from_json(pr_box_doc()["model"])
        side_a, _ = bipartite_structure(model)
        assert "A0" in side_a

    def test_pentagon_cycle_rejected(self):
        psi, _, _ = kcbs_construction()
        model = from_quantum(psi, kcbs_contexts())
        assert bipartite_structure(model) is None

    def test_incomplete_grid_rejected(self):
        doc = pr_box_doc()
        doc["model"]["contexts"] = doc["model"]["contexts"][:3]
        doc["model"]["tables"] = {k: v for i, (k, v) in
                                  enumerate(doc["model"]["tables"].items())
                                  if i < 3}
        model = model_from_json(doc["model"])
        assert bipartite_structure(model) is None

    def test_mixed_outcome_counts_rejected(self):
        doc = {
            "kind": "empirical",
            "model": {
                "measurements": [
                    {"label": "A0", "outcomes": [0, 1]},
                    {"label": "A1", "outcomes": [0, 1, 2]},
                    {"label": "B0", "outcomes": [0, 1]},
                ],
                "contexts": [["A0", "B0"], ["A1", "B0"]],
                "tables": {
                    "A0,B0": {"0,0": "1/4", "0,1": "1/4",
                              "1,0": "1/4", "1,1": "1/4"},
                    "A1,B0": {"0,0": "1/6", "0,1": "1/6",
                              "1,0": "1/6", "1,1": "1/6",
                              "2,0": "1/6", "2,1": "1/6"},
                },
            },
        }
        model = model_from_json(doc["model"])
        assert bipartite_structure(model) is None

    def test_triple_contexts_rejected(self):
        psi = max_entangled(2)
        from contextuality.quantum import peres_mermin_square, PM_LABELS
        grid = peres_mermin_square()
        contexts = []
        for i in range(3):
            contexts.append([pvm_from_observable(grid[i][j], PM_LABELS[i][j])
                             for j in range(3)])
        model = from_quantum(psi, contexts)
        assert bipartite_structure(model) is None

    def test_matches_the_two_colouring_reference(self):
        """Random pair scenarios, half of them complete two-party layouts."""
        rng = np.random.default_rng(59)
        found = 0
        for trial in range(300):
            n = int(rng.integers(2, 7))
            labels = [f"M{i}" for i in rng.permutation(n)]
            if trial % 2:
                k = int(rng.integers(1, n))
                pairs = [(a, b) for a in labels[:k] for b in labels[k:]]
                pairs = [p for p in pairs if rng.random() < 0.9] or pairs[:1]
            else:
                pairs = [p for p in itertools.combinations(labels, 2) if rng.random() < 0.5]
            covered = {m for p in pairs for m in p}
            if not pairs or len(covered) < n:
                continue
            outcomes = {m: tuple(range(int(rng.choice([2, 2, 3])))) for m in labels}
            sc = make_scenario([(m, outcomes[m]) for m in sorted(labels)], pairs)
            model = types.SimpleNamespace(scenario=sc)
            want = reference_bipartite_structure(sc)
            assert bipartite_structure(model) == want, sc
            found += want is not None
        assert found >= 30


class TestClassifyEmpirical:
    def test_pr_box_bell_nonlocal(self):
        report = classify(pr_box_doc(), RunConfig())
        assert verdicts(report) == ("no", "no", "no")
        assert report.hierarchy_level == "bell-nonlocal"

    def test_tilted_singlet_nonlocal(self):
        doc = behaviour_doc(singlet_behaviour(CHSH_OPTIMAL_ANGLES, alpha=1.0))
        report = classify(doc, RunConfig())
        assert verdicts(report) == ("no", "no", "no")

    def test_werner_point_four_local(self):
        doc = behaviour_doc(singlet_behaviour(CHSH_OPTIMAL_ANGLES, alpha=0.4))
        report = classify(doc, RunConfig())
        assert verdicts(report) == ("yes", "yes", "undecided")
        assert report.hierarchy_level == "ks-noncontextual"

    def test_werner_with_ensemble_attachment(self):
        doc = behaviour_doc(singlet_behaviour(CHSH_OPTIMAL_ANGLES, alpha=0.4))
        doc["prep_ensemble"] = {"r": "0"}
        report = classify(doc, RunConfig())
        assert verdicts(report) == ("yes", "yes", "no")
        assert report.hierarchy_level == "spekkens-contextual"

    def test_uniform_grid_local(self):
        report = classify(chsh_model_doc(uniform_chsh_tables()), RunConfig())
        assert verdicts(report) == ("yes", "yes", "undecided")

    def test_deterministic_table_fully_classical(self):
        tables = {}
        for x in range(2):
            for y in range(2):
                t = {f"{a},{b}": "0" for a in range(2) for b in range(2)}
                t["0,0"] = "1"
                tables[f"A{x},B{y}"] = t
        report = classify(chsh_model_doc(tables), RunConfig())
        assert verdicts(report) == ("yes", "yes", "yes")
        assert report.hierarchy_level == "spekkens-noncontextual"

    def test_bell_and_ks_always_agree_on_grids(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            alpha = float(rng.uniform(0.0, 1.0))
            doc = behaviour_doc(singlet_behaviour(CHSH_OPTIMAL_ANGLES,
                                                  alpha=alpha))
            report = classify(doc, RunConfig())
            bell, ks, _ = verdicts(report)
            assert (bell == "yes") == (ks == "yes")

    def test_claims_refuted_on_pr_box(self, tmp_path, capsys):
        doc = pr_box_doc()
        doc["claims"] = {"classical": True}
        report = classify(doc, RunConfig())
        assert report.claim_check == "refuted"
        written = report_to_json(report)
        assert (written["claims"], written["claim_check"]) == ({"classical": True}, "refuted")
        path = tmp_path / "pr.json"
        path.write_text(json.dumps(doc))
        assert main(["classify", str(path), "--format", "text"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "claim_check: refuted" in lines
        assert lines[lines.index("claims:") + 1] == "  classical: True"

    def test_claims_consistent_on_deterministic(self):
        tables = {}
        for x in range(2):
            for y in range(2):
                t = {f"{a},{b}": "0" for a in range(2) for b in range(2)}
                t["1,1"] = "1"
                tables[f"A{x},B{y}"] = t
        doc = chsh_model_doc(tables)
        doc["claims"] = {"classical": True}
        report = classify(doc, RunConfig())
        assert report.claim_check == "consistent"
        written = report_to_json(report)
        assert (written["claims"], written["claim_check"]) == ({"classical": True}, "consistent")

    def test_claims_undetermined_when_spekkens_open(self):
        doc = chsh_model_doc(uniform_chsh_tables())
        doc["claims"] = {"classical": True}
        report = classify(doc, RunConfig())
        assert report.claim_check == "undetermined"
        written = report_to_json(report)
        assert (written["claims"], written["claim_check"]) == ({"classical": True}, "undetermined")


class TestClassifyQuantum:
    def test_pentagon_pure_state_contextual(self):
        psi, _, _ = kcbs_construction()
        report = classify(kcbs_quantum_doc(psi), RunConfig())
        assert verdicts(report) == ("not-applicable", "no", "no")
        assert report.hierarchy_level == "ks-contextual"

    def test_pentagon_maximally_mixed_noncontextual(self):
        report = classify(kcbs_quantum_doc(np.eye(3, dtype=complex) / 3),
                          RunConfig())
        assert verdicts(report) == ("not-applicable", "yes", "yes")
        assert report.hierarchy_level == "spekkens-noncontextual"

    def test_observable_grid_state_independent(self):
        from contextuality.quantum import peres_mermin_square, PM_LABELS
        grid = peres_mermin_square()
        pvms = [[pvm_from_observable(grid[i][j], PM_LABELS[i][j])
                 for j in range(3)] for i in range(3)]
        ctx_json = []
        for i in range(3):
            ctx_json.append([{"label": pvms[i][j].label,
                              "projectors": [matrix_to_json(p) for p in
                                             pvms[i][j].projectors]}
                             for j in range(3)])
        for j in range(3):
            ctx_json.append([{"label": pvms[i][j].label,
                              "projectors": [matrix_to_json(p) for p in
                                             pvms[i][j].projectors]}
                             for i in range(3)])
        doc = {"kind": "quantum",
               "state": matrix_to_json(max_entangled(2)),
               "contexts": ctx_json}
        report = classify(doc, RunConfig())
        assert verdicts(report) == ("not-applicable", "no", "no")

    def test_quantum_with_ensemble_attachment(self):
        doc = kcbs_quantum_doc(np.eye(3, dtype=complex) / 3)
        doc["prep_ensemble"] = {"r": "1/2"}
        report = classify(doc, RunConfig())
        assert verdicts(report) == ("not-applicable", "yes", "no")
        assert report.hierarchy_level == "spekkens-contextual"

    def test_coarse_grainings_that_each_refine_the_basis(self):
        # Any two of the 2+2 splits {01|23}, {02|13}, {03|12} of one basis
        # resolve all four rays, so every context has the same atom set.
        rng = np.random.default_rng(5)
        u, _ = np.linalg.qr(rng.normal(size=(4, 4))
                            + 1j * rng.normal(size=(4, 4)))
        rays = [np.outer(u[:, i], u[:, i].conj()) for i in range(4)]
        meas = []
        for k, block in enumerate([(0, 1), (0, 2), (0, 3)]):
            q = rays[block[0]] + rays[block[1]]
            meas.append({"label": f"M{k}",
                         "projectors": [matrix_to_json(q),
                                        matrix_to_json(np.eye(4) - q)]})
        state = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        doc = {"kind": "quantum", "state": matrix_to_json(state),
               "contexts": [[meas[0], meas[1]], [meas[1], meas[2]],
                            [meas[0], meas[2]]]}
        report = classify(doc, RunConfig())
        assert verdicts(report) == ("not-applicable", "yes", "yes")
        assert report.hierarchy_level == "spekkens-noncontextual"


class TestClassifyGpt:
    def test_pentagon_pure_gpt(self):
        psi, _, _ = kcbs_construction()
        gpt = sharp_gpt_from_quantum([psi], kcbs_contexts())
        doc = {"kind": "gpt", "gpt": gpt_to_json(gpt)}
        report = classify(doc, RunConfig())
        assert verdicts(report) == ("not-applicable", "no", "no")

    def test_pentagon_mixed_gpt(self):
        gpt = sharp_gpt_from_quantum([np.eye(3, dtype=complex) / 3],
                                     kcbs_contexts())
        doc = {"kind": "gpt", "gpt": gpt_to_json(gpt)}
        report = classify(doc, RunConfig())
        assert verdicts(report) == ("not-applicable", "yes", "yes")

    @staticmethod
    def count_lps(monkeypatch):
        """Counts the exact LP solves, at every binding of the kernel, and
        the box LPs among them."""
        from contextuality import embedding, exactlp, scenario, sheaf

        calls = {"lp": 0, "box": 0}
        solve, box = exactlp.solve_eq_nonneg, scenario._solve_box

        def counted_solve(*args, **kwargs):
            calls["lp"] += 1
            return solve(*args, **kwargs)

        def counted_box(*args):
            calls["box"] += 1
            return box(*args)

        for module in (exactlp, embedding, scenario, sheaf):
            monkeypatch.setattr(module, "solve_eq_nonneg", counted_solve)
        monkeypatch.setattr(scenario, "_solve_box", counted_box)
        return calls

    def test_noncontextual_gpt_solves_one_lp_per_state(self, monkeypatch):
        # Dyadic atom probabilities round exactly, so no box LP runs; each
        # state's global section is solved once, and the embedding reads
        # it.  One context's table is always peeled off whole by the greedy
        # decomposition, so no section LP runs either.
        from contextuality import embedding

        basis = [np.diag(np.eye(3)[k]).astype(complex) for k in range(3)]
        contexts = [[projective_context("fine", basis),
                     projective_context("coarse", [basis[0], basis[1] + basis[2]])]]
        states = [basis[0], basis[1], np.diag([0.5, 0.25, 0.25]).astype(complex)]
        gpt = sharp_gpt_from_quantum(states, contexts)
        calls = self.count_lps(monkeypatch)
        solved = []
        solve = embedding.solve_global_section
        monkeypatch.setattr(embedding, "solve_global_section",
                            lambda model: solved.append(model) or solve(model))
        report = classify({"kind": "gpt", "gpt": gpt_to_json(gpt)}, RunConfig())
        assert verdicts(report) == ("not-applicable", "yes", "yes")
        assert (len(solved), calls) == (3, {"lp": 0, "box": 0})

    def test_contextual_gpt_stops_at_its_first_state(self, monkeypatch):
        from contextuality import embedding

        psi, _, _ = kcbs_construction()
        gpt = sharp_gpt_from_quantum([dm(psi), np.eye(3) / 3], kcbs_contexts())
        solved = []
        solve = embedding.solve_global_section
        monkeypatch.setattr(embedding, "solve_global_section",
                            lambda model: solved.append(model) or solve(model))
        report = classify({"kind": "gpt", "gpt": gpt_to_json(gpt)}, RunConfig())
        assert verdicts(report) == ("not-applicable", "no", "no")
        assert len(solved) == 1
        ks, sp = report.certificates
        assert (ks["role"], ks["kind"], ks["state"]) == ("ks", "global-section", 0)
        assert (sp["role"], sp["kind"]) == ("spekkens", "implied-by-ks-contextuality")

    def test_gpt_without_contexts_uses_embedding_lp(self, monkeypatch):
        gpt = sharp_gpt_from_quantum([np.eye(3, dtype=complex) / 3],
                                     kcbs_contexts())
        data = gpt_to_json(gpt)
        data["sharp_contexts"] = []
        calls = self.count_lps(monkeypatch)
        report = classify({"kind": "gpt", "gpt": data}, RunConfig())
        assert verdicts(report) == ("not-applicable", "undecided", "yes")
        # one state: a one-dimensional fragment and a single LP
        (cert,) = report.certificates
        assert (cert["kind"], cert["fragment"]["states"]) == (
            "simplex-embedding-lp", [["1/1"]])
        assert calls == {"lp": 1, "box": 0}


class TestClassifyPrepEnsemble:
    def test_six_decomposition_ensemble_contextual(self):
        report = classify({"kind": "prep-ensemble", "r": "1/2"}, RunConfig())
        assert verdicts(report) == ("not-applicable", "undecided", "no")
        assert report.hierarchy_level == "spekkens-contextual"

    def test_nearly_pure_target_contextual(self):
        report = classify({"kind": "prep-ensemble", "r": "9/10"}, RunConfig())
        assert report.spekkens_noncontextual == "no"

    def test_single_decomposition_noncontextual(self):
        from fractions import Fraction
        from contextuality.classify import classify_prep_ensemble
        from contextuality.embedding import PrepEnsembleProblem, bloch_state
        up = bloch_state((0.0, 0.0, 1.0))
        down = bloch_state((0.0, 0.0, -1.0))
        problem = PrepEnsembleProblem(
            target=np.eye(2, dtype=complex) / 2,
            q=Fraction(0),
            component_states={"up": up, "down": down},
            decompositions=(((Fraction(1, 2), "up"),
                             (Fraction(1, 2), "down")),),
            orthogonal_pairs=(("up", "down"),),
        )
        report = classify_prep_ensemble(problem)
        assert report.spekkens_noncontextual == "yes"
        assert report.hierarchy_level == "spekkens-noncontextual"


class TestParseDocument:
    def test_unknown_kind_rejected(self):
        with pytest.raises(SchemaError):
            parse_document({"kind": "mystery"})

    def test_missing_kind_rejected(self):
        with pytest.raises(SchemaError):
            parse_document({"model": {}})

    def test_empirical_needs_model(self):
        with pytest.raises(SchemaError):
            parse_document({"kind": "empirical"})

    def test_gpt_needs_gpt(self):
        with pytest.raises(SchemaError):
            parse_document({"kind": "gpt"})

    def test_float_r_rejected(self):
        with pytest.raises(SchemaError):
            parse_document({"kind": "prep-ensemble", "r": 0.5})

    def test_bool_r_rejected(self):
        with pytest.raises(SchemaError):
            parse_document({"kind": "prep-ensemble", "r": True})

    def test_attachment_on_prep_ensemble_rejected(self):
        with pytest.raises(SchemaError):
            parse_document({"kind": "prep-ensemble", "r": "1/2",
                            "prep_ensemble": {"r": "1/2"}})

    def test_claims_must_be_object(self):
        with pytest.raises(SchemaError):
            parse_document({"kind": "prep-ensemble", "r": "1/2",
                            "claims": [1]})

    def test_kind_mismatch_raises(self):
        with pytest.raises(SchemaError):
            classify(pr_box_doc(), RunConfig(kind="quantum"))

    def test_config_rejects_bad_kind(self):
        with pytest.raises(SchemaError):
            RunConfig(kind="mystery")

    def test_config_rejects_bad_restarts(self):
        # The embedding restarts knob is gone: the embedding LP has no restarts.
        with pytest.raises(TypeError):
            RunConfig(embed_restarts=0)


class TestReportSerialization:
    def test_byte_identical_across_runs(self):
        doc = pr_box_doc()
        a = json.dumps(report_to_json(classify(doc, RunConfig())),
                       sort_keys=True)
        b = json.dumps(report_to_json(classify(doc, RunConfig())),
                       sort_keys=True)
        assert a == b

    def test_summary_smaller_than_full(self):
        report = classify(pr_box_doc(), RunConfig())
        full = json.dumps(report_to_json(report, include_certificates=True))
        summary = json.dumps(report_to_json(report,
                                            include_certificates=False))
        assert len(summary) < len(full)

    def test_certificates_carry_roles(self):
        report = classify(pr_box_doc(), RunConfig())
        roles = {c["role"] for c in report.certificates}
        assert roles == {"bell", "ks", "spekkens"}

    def test_report_json_is_serializable(self):
        for doc in (pr_box_doc(), {"kind": "prep-ensemble", "r": "1/2"}):
            payload = report_to_json(classify(doc, RunConfig()))
            json.dumps(payload)


class TestPublicApi:
    def test_every_export_resolves(self):
        missing = [name for name in contextuality.__all__
                   if not hasattr(contextuality, name)]
        assert missing == []


FORGED_DUAL_UNDER_O = """
import importlib, json, sys, tempfile
from contextuality import cli, exactlp, polytope
from contextuality.scenario import model_from_json
from contextuality.sheaf import SectionFeasibility

classify = importlib.import_module("contextuality.classify")

if sys.flags.optimize < 1:
    sys.exit("not running under python -O")
doc = json.loads(sys.argv[1])
real = classify.solve_global_section(model_from_json(doc["model"]))
forged = SectionFeasibility(real.feasible, real.primal, tuple(-y for y in real.dual),
                            real.matrix, real.model)
sides = polytope.bipartite_structure(real.model)
try:
    polytope.membership_from_section(forged, sides)
    sys.exit("a forged section dual did not raise")
except exactlp.CertificateError:
    pass
classify.solve_global_section = lambda model: forged
with tempfile.NamedTemporaryFile("w", suffix=".json") as fh:
    json.dump(doc, fh)
    fh.flush()
    code = cli.main(["classify", fh.name])
sys.exit(0 if code == 3 else f"cli exit code {code}, expected 3")
"""


def forged_section(doc):
    """The PR box's section with its Farkas dual negated: it separates nothing."""
    real = solve_global_section(parse_document(doc).model)
    return SectionFeasibility(real.feasible, real.primal, tuple(-y for y in real.dual),
                              real.matrix, real.model)


class TestForgedSectionDual:
    """The Bell view re-checks the strict gap by a raise, so ``python -O`` keeps it.

    Written without bare asserts so that it also tests something when pytest
    itself runs under ``python -O``.
    """

    def test_forged_dual_raises_under_python_O(self):
        src = str(Path(contextuality.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", FORGED_DUAL_UNDER_O, json.dumps(pr_box_doc())],
            env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            pytest.fail(f"python -O subprocess: {proc.stderr.strip()}")

    def test_forged_dual_raises_in_process(self):
        forged = forged_section(pr_box_doc())
        with pytest.raises(CertificateError):
            membership_from_section(forged, bipartite_structure(forged.model))

    def test_cli_exits_three(self, tmp_path, monkeypatch, capsys):
        forged = forged_section(pr_box_doc())
        # the package re-exports the function `classify`, which shadows the module
        monkeypatch.setattr(importlib.import_module("contextuality.classify"),
                            "solve_global_section",
                            lambda model: forged)
        doc = tmp_path / "pr.json"
        doc.write_text(json.dumps(pr_box_doc()))
        if main(["classify", str(doc)]) != 3:
            pytest.fail("a forged section dual did not exit 3")
        if "internal check failed" not in capsys.readouterr().err:
            pytest.fail("exit 3 without the internal-check message")


def cycle_doc(n: int, v: Fraction) -> dict:
    """Anticorrelated n-cycle with visibility v and uniform marginals."""
    labels = [f"X{i}" for i in range(n)]
    same, diff = str((1 - v) / 4), str((1 + v) / 4)
    return {"kind": "empirical", "model": {
        "measurements": [{"label": m, "outcomes": [0, 1]} for m in labels],
        "contexts": [[labels[i], labels[(i + 1) % n]] for i in range(n)],
        "tables": {f"{labels[i]},{labels[(i + 1) % n]}":
                   {f"{a},{b}": same if a == b else diff
                    for a in range(2) for b in range(2)} for i in range(n)}}}


def box_doc(n: int, w: Fraction) -> dict:
    """n settings per party: PR weight w on settings {0,1}^2, uniform elsewhere."""
    tables = {}
    for x in range(n):
        for y in range(n):
            tables[f"A{x},B{y}"] = {
                f"{a},{b}": str(w * Fraction(int((a ^ b) == (x & y)), 2) + (1 - w) / 4
                                if x < 2 and y < 2 else Fraction(1, 4))
                for a in range(2) for b in range(2)}
    return {"kind": "empirical", "model": {
        "measurements": [{"label": f"{p}{k}", "outcomes": [0, 1]}
                         for p in "AB" for k in range(n)],
        "contexts": [[f"A{x}", f"B{y}"] for x in range(n) for y in range(n)],
        "tables": tables}}


class TestBeyondTheLadder:
    """Sections the benchmark's rungs do not reach, solved without listing.

    The package has no routine that lists global assignments, so each
    verdict comes from the elimination oracle; the expected verdicts are
    the n-cycle test on the correlators and, for the box, the same test on
    its CHSH square.
    """

    @staticmethod
    def classify_timed(doc):
        start = time.perf_counter()
        report = classify(doc, RunConfig())
        elapsed = time.perf_counter() - start
        assert elapsed < 10, f"{elapsed:.1f} s"
        assert not any("skipped" in note for note in report.notes)
        return report

    @pytest.mark.parametrize("n", [13, 14])
    def test_noisy_cycle(self, n):
        v = Fraction(9, 10)
        expected = "no" if cycle_margin([-v] * n) > 0 else "yes"
        report = self.classify_timed(cycle_doc(n, v))
        assert report.ks_noncontextual == expected == ("no" if n % 2 else "yes")
        (ks,) = [c for c in report.certificates if c["role"] == "ks"]
        assert ks["verdict"] == ("infeasible" if n % 2 else "feasible")

    def test_five_setting_box(self):
        w = Fraction(1, 3)
        # Correlators of the CHSH square A0 B0 A1 B1: w, w, -w, w.
        expected = "no" if cycle_margin([w, w, -w, w]) > 0 else "yes"
        report = self.classify_timed(box_doc(5, w))
        assert (report.bell_local, report.ks_noncontextual) == (expected, expected) \
            == ("yes", "yes")
        (bell,) = [c for c in report.certificates if c["role"] == "bell"]
        assert sum(Fraction(p) for _, p in bell["weights"]) == 1


class TestForgedDualAssignment:
    """A dual forged to score one assignment above 0 is caught by the oracle.

    Written without bare asserts so that it also tests something when
    pytest itself runs under ``python -O``.
    """

    def test_oracle_names_the_assignment_in_process(self):
        section, v, target = forged_dual(pr_box_doc())
        try:
            require_certificate(section.matrix, v, Feasibility(False, farkas=section.dual),
                                "global-section")
        except CertificateError as exc:
            if repr(target) not in str(exc):
                pytest.fail(f"the error does not name {target}: {exc}")
        else:
            pytest.fail("a forged section dual passed its re-check")

    def test_oracle_names_the_assignment_under_python_O(self):
        src = str(Path(contextuality.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        script = inspect.getsource(forged_dual) + FORGED_ASSIGNMENT_UNDER_O
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script, json.dumps(pr_box_doc())],
            env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            pytest.fail(f"python -O subprocess: {proc.stderr.strip()}")


def forged_dual(doc):
    """A solved section whose dual now scores one assignment above 0.

    Adding t to the assignment's row in every context lifts its score by
    t times the context count and any other assignment's by less, so for
    a large t it is the one maximizer.  Returns the forged section, its
    right-hand side and the assignment.  It imports what it needs, because
    its source also runs in a ``python -O`` subprocess.
    """
    from contextuality.classify import parse_document
    from contextuality.sheaf import SectionFeasibility, solve_global_section

    real = solve_global_section(parse_document(doc).model)
    matrix = real.matrix
    sc = matrix.scenario
    target = tuple(sc.outcomes[m][-1] for m in sc.measurements)
    rows = set(matrix.column(target)[0])
    top = max(abs(y) for y in real.dual)
    t = 2 * len(matrix.scenario.contexts) * top + 1
    dual = tuple(y + t if i in rows else y for i, y in enumerate(real.dual))
    v = [real.model.tables[ctx][sec] for ctx, sec in matrix.rows]
    forged = SectionFeasibility(real.feasible, real.primal, dual, real.matrix, real.model)
    return forged, v, target


FORGED_ASSIGNMENT_UNDER_O = """
import json, sys
from contextuality.exactlp import CertificateError, Feasibility, require_certificate

if sys.flags.optimize < 1:
    sys.exit("not running under python -O")
section, v, target = forged_dual(json.loads(sys.argv[1]))
try:
    require_certificate(section.matrix, v, Feasibility(False, farkas=section.dual),
                        "global-section")
    sys.exit("a forged section dual passed its re-check")
except CertificateError as exc:
    if repr(target) not in str(exc):
        sys.exit(f"the error does not name {target}: {exc}")
"""
