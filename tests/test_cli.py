"""Tests for the command-line surface.

Verification strategy: every subcommand is driven through `main` with
temp-file output, asserting exit codes (0 classified, 2 schema error,
3 internal lattice violation or failed certificate check), payload keys, and byte-identical reruns.
Numeric payload values are checked against the same frozen expectations
the solver-level modules use.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import pkgutil
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import time
from fractions import Fraction

import contextuality
from contextuality import cli, embedding, scenario
from contextuality.classify import MAX_CLAIMS_DEPTH, classify
from contextuality.cli import build_parser, main
from contextuality.embedding import gpt_to_json, sharp_gpt_from_quantum
from contextuality.quantum import (
    PAULIS,
    PM_LABELS,
    kcbs_construction,
    kcbs_vectors,
    matrix_to_json,
    peres_mermin_square,
    projective_context,
    pvm_from_observable,
    random_density,
    tensor,
)
from contextuality.scenario import rational_literal
from contextuality.sheaf import MAX_ASSIGNMENTS
from oracles import behaviour_from_json, cycle_margin, ld_vertex_boxes, random_box, require


def kcbs_gpt_json(*states):
    _, observables, _ = kcbs_construction()
    contexts = []
    for j in range(5):
        k = (j + 1) % 5
        contexts.append([pvm_from_observable(observables[j], f"A{j}"),
                         pvm_from_observable(observables[k], f"A{k}")])
    return gpt_to_json(sharp_gpt_from_quantum(list(states), contexts))


class TestUnaddressableNames:
    """Table keys split on ``,`` and certificate rows join a context to its
    outcomes with ``|``: a label or outcome that holds either, or two
    outcomes written alike, exit 2 with one line naming them, in empirical
    and quantum documents alike."""

    @staticmethod
    def empirical_doc(label: str, outcomes: list) -> dict:
        half = {str(o): "1/2" for o in outcomes[:2]}
        return {"kind": "empirical",
                "model": {"measurements": [{"label": label, "outcomes": outcomes},
                                           {"label": "B", "outcomes": [0, 1]}],
                          "contexts": [[label, "B"]],
                          "tables": {f"{label},B": {f"{o},0": v for o, v in half.items()}}}}

    @staticmethod
    def quantum_doc(label: str, outcomes: list) -> dict:
        z = pvm_from_observable(PAULIS["Z"], "Z")
        return {"kind": "quantum", "state": matrix_to_json(np.diag([1.0, 0.0])),
                "contexts": [[{"label": label, "outcomes": outcomes,
                               "projectors": [matrix_to_json(p) for p in z.projectors]}]]}

    CASES = [("A,B", [0, 1], "measurement label 'A,B' holds ',' or '|'"),
             ("Z,1", [0, 1], "measurement label 'Z,1' holds ',' or '|'"),
             ("A|B", [0, 1], "measurement label 'A|B' holds ',' or '|'"),
             ("A", [0, "0"], "outcomes [0, '0'] of measurement 'A'"),
             ("A", ["0,1", 1], "outcomes ['0,1', 1] of measurement 'A'"),
             ("A", ["0|1", 1], "outcomes ['0|1', 1] of measurement 'A'")]

    @pytest.mark.parametrize("label, outcomes, named", CASES)
    @pytest.mark.parametrize("kind", ["empirical", "quantum"])
    def test_refused_with_their_names(self, tmp_path, kind, label, outcomes, named):
        doc = (self.empirical_doc if kind == "empirical" else self.quantum_doc)(label, outcomes)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        for argv in (["classify"], ["classify", "--emit-certificate"], ["validate"]):
            rc, out, err = cli_run(path, argv)
            require_one_line_refusal(rc, out, err, f"{kind} {label!r} {outcomes}")
            require(named in err, f"{named!r} not in {err!r}")

    @pytest.mark.parametrize("kind", ["empirical", "quantum"])
    def test_plain_names_classify(self, tmp_path, kind):
        doc = (self.empirical_doc if kind == "empirical" else self.quantum_doc)("A", [0, 1])
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        rc, out, err = cli_run(path, ["classify", "--emit-certificate"])
        require(rc == 0 and err == "", f"exit {rc}, {err!r}")


class TestExactDeviationDocument:
    """Marginals on A that differ by exactly 1/10^9, at most ND_TOL: the
    document is valid and classifies, though floats read the gap as
    1.0000000272e-09.  Past ND_TOL it is refused."""

    @staticmethod
    def doc(gap: Fraction) -> dict:
        half = Fraction(1, 2)
        return {"kind": "empirical", "model": {
            "measurements": [{"label": m, "outcomes": [0, 1]} for m in "ABC"],
            "contexts": [["A", "B"], ["A", "C"]],
            "tables": {"A,B": {"0,0": "1/2", "1,1": "1/2"},
                       "A,C": {"0,0": str(half + gap), "1,1": str(half - gap)}}}}

    def test_one_billionth_is_valid(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(self.doc(Fraction(1, 10 ** 9))))
        require('"500000001/1000000000"' in path.read_text(), "not the document")
        rc, out, err = cli_run(path, ["validate"])
        payload = json.loads(out)
        require(rc == 0 and payload["valid"] and payload["no_disturbance"], out)
        require(payload["worst_marginal_deviation"] == 1e-9, out)
        rc, out, err = cli_run(path, ["classify"])
        require(rc == 0 and err == "", f"exit {rc}, {err!r}")

    def test_past_nd_tol_is_refused(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(self.doc(Fraction(scenario.ND_TOL) + Fraction(1, 2 ** 200))))
        rc, out, err = cli_run(path, ["validate"])
        require(not json.loads(out)["valid"], out)
        rc, out, err = cli_run(path, ["classify"])
        require_one_line_refusal(rc, out, err, "classify")
        require("no-disturbance: FAIL" in err, err)


def pr_box_doc() -> dict:
    tables = {}
    for x in range(2):
        for y in range(2):
            t = {}
            for a in range(2):
                for b in range(2):
                    t[f"{a},{b}"] = "1/2" if (a ^ b) == (x & y) else "0"
            tables[f"A{x},B{y}"] = t
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


def local_box3_doc() -> dict:
    """Three settings per party: the PR box at weight 1/3 against white noise
    on settings {0, 1}, uniform tables elsewhere; local."""
    p = {(a, b, x, y): (Fraction(1, 3) * (Fraction(1, 2) if a ^ b == x & y else 0)
                        + Fraction(1, 6) if x < 2 and y < 2 else Fraction(1, 4))
         for a in range(2) for b in range(2) for x in range(3) for y in range(3)}
    return interleaved_box_doc(p, (3, 3, 2, 2), [0, 1], [0, 1])


def run_json(tmp_path, argv) -> dict:
    out = tmp_path / "out.json"
    rc = main([*argv, "--out", str(out)])
    assert rc == 0
    return json.loads(out.read_text())


class TestNamedScenarios:
    def test_kcbs(self, tmp_path):
        payload = run_json(tmp_path, ["kcbs"])
        assert payload["correlator_sum"] == pytest.approx(5 - 4 * np.sqrt(5),
                                                          abs=1e-9)
        assert payload["noncontextual_bound"] == -3
        assert payload["global_section"] == "infeasible"
        assert payload["csw_lhs"] == pytest.approx(np.sqrt(5), abs=1e-9)
        assert payload["csw_bound"] == "2"
        assert payload["csw_violated"] is True

    def test_chsh_default(self, tmp_path):
        payload = run_json(tmp_path, ["chsh"])
        assert payload["chsh_value"] == pytest.approx(2 * np.sqrt(2),
                                                      abs=1e-9)
        assert payload["membership"] == "outside"
        assert payload["local_bound"] == 2

    def test_chsh_damped(self, tmp_path):
        payload = run_json(tmp_path, ["chsh", "--alpha", "0.4"])
        assert payload["membership"] == "inside"
        assert payload["chsh_value"] == pytest.approx(0.4 * 2 * np.sqrt(2),
                                                      abs=1e-9)

    def test_chsh_custom_angles(self, tmp_path):
        payload = run_json(tmp_path, ["chsh", "--angles", "0,0,0,0"])
        assert payload["membership"] == "inside"
        assert payload["angles"] == [0.0, 0.0, 0.0, 0.0]

    def test_pm_square(self, tmp_path):
        payload = run_json(tmp_path, ["pm-square", "--trials", "2"])
        assert payload["satisfying_assignments"] == 0
        assert payload["total_assignments"] == 512
        assert payload["row_signs"] == [1, 1, 1]
        assert payload["column_signs"] == [1, 1, -1]
        assert payload["global_section_verdicts"] == ["infeasible",
                                                      "infeasible"]

    def test_pm_square_refuses_negative_trials(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        rc = main(["pm-square", "--trials", "-1", "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err == "error: trials must be a nonnegative integer, got -1\n"

    def test_convert_bell_default(self, tmp_path):
        payload = run_json(tmp_path, ["convert-bell"])
        assert payload["labels"] == ["P0", "P1", "P2", "P3", "P4"]
        assert payload["bound"] == "2"
        assert payload["ld_maximum"] == "2"
        assert payload["quantum_value"] == pytest.approx(5 / 3, abs=1e-9)


class TestClassifyCommand:
    def test_pr_box(self, tmp_path):
        doc = tmp_path / "pr.json"
        doc.write_text(json.dumps(pr_box_doc()))
        payload = run_json(tmp_path, ["classify", str(doc)])
        assert payload["bell_local"] == "no"
        assert payload["ks_noncontextual"] == "no"
        assert payload["spekkens_noncontextual"] == "no"
        assert payload["hierarchy_level"] == "bell-nonlocal"

    def test_certificates_summarized_by_default(self, tmp_path):
        doc = tmp_path / "pr.json"
        doc.write_text(json.dumps(pr_box_doc()))
        payload = run_json(tmp_path, ["classify", str(doc)])
        for cert in payload["certificates"]:
            assert set(cert) <= {"role", "kind", "verdict", "scope"}

    def test_emit_certificate_includes_payload(self, tmp_path):
        doc = tmp_path / "pr.json"
        doc.write_text(json.dumps(pr_box_doc()))
        payload = run_json(tmp_path,
                           ["classify", str(doc), "--emit-certificate"])
        kinds = {c["kind"]: c for c in payload["certificates"]}
        assert "rows" in kinds["global-section"]
        assert "separating" in kinds["local-polytope-membership"]

    def test_kind_flag_must_match(self, tmp_path, capsys):
        doc = tmp_path / "pr.json"
        doc.write_text(json.dumps(pr_box_doc()))
        rc = main(["classify", str(doc), "--kind", "quantum"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_lattice_violation_exits_three(self, tmp_path, capsys,
                                           monkeypatch):
        from contextuality.classify import LatticeViolation

        def explode(doc, config):
            raise LatticeViolation("forced for the exit-code test")

        monkeypatch.setattr(cli, "classify", explode)
        doc = tmp_path / "pr.json"
        doc.write_text(json.dumps(pr_box_doc()))
        rc = main(["classify", str(doc)])
        assert rc == 3
        assert "lattice violation" in capsys.readouterr().err

    @pytest.mark.parametrize("failure", ["recheck", "simplex"])
    def test_failed_internal_check_exits_three(self, tmp_path, capsys,
                                               monkeypatch, failure):
        from contextuality import exactlp, sheaf

        if failure == "recheck":
            monkeypatch.setattr(exactlp, "_farkas_fault", lambda *args: "is forced to fail")
        else:
            def unbounded(*args, **kwargs):
                raise ArithmeticError("forced for the exit-code test")

            monkeypatch.setattr(sheaf, "solve_eq_nonneg", unbounded)
        doc = tmp_path / "box.json"
        # The odd-cycle stage decides the PR box with no LP; the section LP
        # decides the local three-setting box, where the greedy stalls.
        doc.write_text(json.dumps(pr_box_doc() if failure == "recheck"
                                  else local_box3_doc()))
        rc = main(["classify", str(doc)])
        err = capsys.readouterr().err
        assert rc == 3
        assert "Traceback" not in err
        assert err.startswith("internal check failed: ")
        assert err.count("\n") == 1


class TestValidateCommand:
    def test_empirical(self, tmp_path):
        doc = tmp_path / "pr.json"
        doc.write_text(json.dumps(pr_box_doc()))
        payload = run_json(tmp_path, ["validate", str(doc)])
        assert payload["valid"] is True
        assert payload["kind"] == "empirical"
        assert payload["measurements"] == 4
        assert payload["contexts"] == 4
        assert payload["no_disturbance"] is True

    def test_prep_ensemble(self, tmp_path):
        doc = tmp_path / "pe.json"
        doc.write_text(json.dumps({"kind": "prep-ensemble", "r": "1/2"}))
        payload = run_json(tmp_path, ["validate", str(doc)])
        assert payload["components"] == 8
        assert payload["decompositions"] == 6

    def test_gpt(self, tmp_path):
        doc = tmp_path / "g.json"
        doc.write_text(json.dumps(
            {"kind": "gpt",
             "gpt": kcbs_gpt_json(np.eye(3, dtype=complex) / 3)}))
        payload = run_json(tmp_path, ["validate", str(doc)])
        assert payload["states"] == 1
        assert payload["sharp_contexts"] == 5

    def test_invalid_json_exits_two(self, tmp_path, capsys):
        doc = tmp_path / "broken.json"
        doc.write_text("{nope")
        rc = main(["validate", str(doc)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        rc = main(["validate", str(tmp_path / "absent.json")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestEmbedCommand:
    def test_pure_pentagon_refused(self, tmp_path):
        psi, _, _ = kcbs_construction()
        doc = tmp_path / "g.json"
        doc.write_text(json.dumps({"kind": "gpt",
                                   "gpt": kcbs_gpt_json(psi)}))
        payload = run_json(tmp_path, ["embed", str(doc)])
        assert payload["verdict"] == "refused"
        assert payload["route"] == "sharp-constructor"

    def test_mixed_pentagon_embeddable(self, tmp_path):
        doc = tmp_path / "g.json"
        doc.write_text(json.dumps(
            kcbs_gpt_json(np.eye(3, dtype=complex) / 3)))
        payload = run_json(tmp_path, ["embed", str(doc)])
        assert payload["verdict"] == "embeddable"

    def test_lp_route_ignores_restarts(self, tmp_path):
        data = {
            "dim": 2,
            "states": [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]],
            "effects": [[1.0, 0.0], [0.0, 1.0]],
            "unit": [1.0, 1.0],
            "sharp_contexts": [],
        }
        doc = tmp_path / "g.json"
        doc.write_text(json.dumps(data))
        payloads = [run_json(tmp_path, ["embed", str(doc), *extra])
                    for extra in ([], ["--restarts", "4"], ["--restarts", "0"])]
        assert payloads[0] == payloads[1] == payloads[2]
        assert payloads[0]["route"] == "embedding-lp"
        assert payloads[0]["verdict"] == "embeddable"
        assert payloads[0]["certificates"] == [
            {"kind": "simplex-embedding-lp", "verdict": "embeddable"}]

    @pytest.mark.parametrize("states, verdict", [
        ([[1.0, 0.0], [0.5, 0.5]], "undecided"),
        # the sections are solved first, so a refusal is still reported
        (None, "refused"),
    ])
    def test_uncovered_effect_prints_its_section_verdict(self, tmp_path,
                                                         states, verdict):
        if states is None:
            psi, _, _ = kcbs_construction()
            data = kcbs_gpt_json(psi)
            data["effects"].append([0.0] * data["dim"])
        else:
            data = {"dim": 2, "states": states,
                    "effects": [[1.0, 0.0], [0.0, 1.0], [0.25, 0.25]],
                    "unit": [1.0, 1.0], "sharp_contexts": [[0, 1]]}
        doc = tmp_path / "g.json"
        doc.write_text(json.dumps(data))
        payload = run_json(tmp_path, ["embed", str(doc), "--emit-certificate"])
        assert (payload["route"], payload["verdict"]) == ("sharp-constructor",
                                                          verdict)
        if verdict == "undecided":
            assert payload["note"] == ("effect 2 is neither the unit nor "
                                       "covered by a sharp context")
            assert payload["certificates"] == []
        else:
            assert "note" not in payload
            cert, = payload["certificates"]
            assert (cert["kind"], cert["verdict"], cert["state"]) == (
                "global-section", "infeasible", 0)


def main_with_warnings(argv) -> tuple:
    """Exit code, standard output and standard error of one `main` call.

    pytest records warnings rather than printing them, so every warning is
    put back on standard error here, as Python's own handler prints it.
    """
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        rc = main(argv)
    shown = "".join(warnings.formatwarning(w.message, w.category, w.filename, w.lineno)
                    for w in caught)
    return rc, out.getvalue(), shown + err.getvalue()


class TestFloatLimitsAndPrepForm:
    """Finite numbers at the float limits, and a malformed `qsl run --prep`,
    give a verdict or one `error:` line: no numpy warning, no Python internals.

    Written with `oracles.require`, so it also tests under ``python -O``.
    """

    @pytest.mark.parametrize("axis, same", [("0,0,1e308", "0,0,1"), ("1e-320,0,0", "1,0,0")])
    def test_large_or_tiny_axis_components_accepted(self, axis, same):
        rc, out, err = main_with_warnings(["prep-nc", "--r", "1/2", "--axis", axis])
        require(rc == 0 and err == "", f"--axis {axis}: exit {rc}, stderr {err!r}")
        expected = main_with_warnings(["prep-nc", "--r", "1/2", "--axis", same])
        require((rc, out, err) == expected, f"--axis {axis} differs from --axis {same}")

    def test_large_axis_document_classified(self, tmp_path):
        doc = {"kind": "prep-ensemble", "r": "1/2", "axis": [1e308, 1e308, 0]}
        rc, out, err = main_with_warnings(["classify", write_doc(tmp_path, doc)])
        require(rc == 0 and err == "", f"exit {rc}, stderr {err!r}")
        require(json.loads(out)["spekkens_noncontextual"] == "no", out)

    @pytest.mark.parametrize("matrix, part, message", [
        ("projector", "re", "contains a non-projector"),
        ("projector", "im", "contains a non-projector"),
        ("state", "im", "density matrix is not Hermitian")])
    def test_matrix_entry_near_the_float_limit(self, tmp_path, matrix, part, message):
        z = projective_context("Z", [np.diag([1, 0]), np.diag([0, 1])])
        doc = quantum_doc(np.diag([1, 0]), [[z]])
        target = doc["state"] if matrix == "state" else doc["contexts"][0][0]["projectors"][0]
        target[part][0] = 1e308
        rc, out, err = main_with_warnings(["classify", write_doc(tmp_path, doc)])
        require_one_line_refusal(rc, out, err, f"{matrix} {part} entry 1e308")
        require(message in err, err)

    @pytest.mark.parametrize("prep", ["Z:0:1", "Z", "Z:x", "Z:", ""])
    def test_malformed_prep(self, prep):
        rc, out, err = main_with_warnings(["qsl", "run", "--prep", prep, "--measure", "Z"])
        require_one_line_refusal(rc, out, err, f"--prep {prep!r}")
        require(f"--prep must be basis:value, such as Z:0, got {prep!r}" in err, err)

    @pytest.mark.parametrize("prep, message", [("Q:0", "basis must be one of"),
                                               ("Z:2", "value must be 0 or 1, got 2")])
    def test_basis_and_bit_checks_kept(self, prep, message):
        rc, out, err = main_with_warnings(["qsl", "run", "--prep", prep, "--measure", "Z"])
        require_one_line_refusal(rc, out, err, f"--prep {prep!r}")
        require(message in err, err)


class TestPrepNcCommand:
    def test_flags_route(self, tmp_path):
        payload = run_json(tmp_path, ["prep-nc", "--r", "1/2"])
        assert payload["verdict"] == "infeasible"
        assert payload["cases"] == 16
        assert payload["infeasible_cases"] == 16

    def test_file_route(self, tmp_path):
        doc = tmp_path / "pe.json"
        doc.write_text(json.dumps({"r": "1/3", "axis": [1, 0, 0]}))
        payload = run_json(tmp_path, ["prep-nc", str(doc)])
        assert payload["verdict"] == "infeasible"

    def test_missing_input_exits_two(self, capsys):
        rc = main(["prep-nc"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_float_r_exits_two(self, tmp_path, capsys):
        doc = tmp_path / "pe.json"
        doc.write_text(json.dumps({"r": 0.5}))
        rc = main(["prep-nc", str(doc)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestNegativeOptionValues:
    """A value that starts with ``-`` reads as the option's value, written
    with a space or joined by ``=``, and a missing value still exits 2."""

    @pytest.mark.parametrize("argv", [
        ["prep-nc", "--r", "-2/5"],
        ["pusey", "--six-ensemble", "-1/2"],
        ["chsh", "--angles", "-0.5,0,0.3,0.2"],
        ["prep-nc", "--r", "1/2", "--axis", "-1,0,0"],
    ], ids=["prep-nc-r", "pusey-six-ensemble", "chsh-angles", "prep-nc-axis"])
    def test_spaced_value_equals_joined_value(self, tmp_path, argv):
        joined = argv[:-2] + [f"{argv[-2]}={argv[-1]}"]
        spaced = run_json(tmp_path, argv)
        assert spaced == run_json(tmp_path, joined)
        if argv[0] == "chsh":
            assert spaced["angles"] == [-0.5, 0.0, 0.3, 0.2]

    @pytest.mark.parametrize("argv", [
        ["prep-nc", "--r"],
        ["prep-nc", "--r", "--seed", "1"],
        ["chsh", "--angles", "-h"],
    ])
    def test_missing_value_exits_two(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "expected one argument" in capsys.readouterr().err


class TestPuseyCommand:
    def test_six_ensemble(self, tmp_path):
        payload = run_json(tmp_path, ["pusey", "--six-ensemble", "1/2"])
        assert payload["verdict"] == "contextual"
        assert payload["equivalence_contextual"] is True

    def test_orthogonal_pair_file(self, tmp_path):
        doc = tmp_path / "pu.json"
        doc.write_text(json.dumps({"preps": {
            "up": {"Z": [1, 0], "X": ["1/2", "1/2"]},
            "down": {"Z": [0, 1], "X": ["1/2", "1/2"]},
        }}))
        payload = run_json(tmp_path, ["pusey", str(doc)])
        assert payload["verdict"] == "contextual"
        assert payload["pairs_checked"] == 1

    def test_single_prep_inconclusive(self, tmp_path):
        doc = tmp_path / "pu.json"
        doc.write_text(json.dumps({"preps": {
            "up": {"Z": [1, 0]},
        }}))
        payload = run_json(tmp_path, ["pusey", str(doc)])
        assert payload["verdict"] == "inconclusive"

    def test_float_equivalence_weight_exits_two(self, tmp_path, capsys):
        doc = tmp_path / "pu.json"
        doc.write_text(json.dumps({
            "preps": {"up": {"Z": [1, 0]}, "down": {"Z": [0, 1]}},
            "equivalences": [[{"up": 0.5, "down": 0.5}]],
        }))
        rc = main(["pusey", str(doc)])
        assert rc == 2
        assert "exact" in capsys.readouterr().err

    def test_missing_input_exits_two(self, capsys):
        rc = main(["pusey"])
        assert rc == 2
        capsys.readouterr()


class TestQslCommand:
    def test_run_example(self, tmp_path):
        payload = run_json(tmp_path,
                           ["qsl", "run", "--prep", "Z:0", "--gates", "X,X",
                            "--measure", "Y", "--shots", "2000",
                            "--seed", "42"])
        assert set(payload) == {"freqs", "quantum", "fidelity", "seed",
                                "shots"}
        assert payload["seed"] == 42
        assert payload["shots"] == 2000
        assert payload["quantum"]["0"] == pytest.approx(0.5, abs=1e-12)
        assert payload["fidelity"] > 0.95

    def test_same_basis_exact(self, tmp_path):
        payload = run_json(tmp_path,
                           ["qsl", "run", "--prep", "X:1", "--measure", "X",
                            "--shots", "500"])
        assert payload["freqs"]["1"] == 1.0
        assert payload["fidelity"] == pytest.approx(1.0, abs=1e-12)

    def test_bad_prep_exits_two(self, capsys):
        rc = main(["qsl", "run", "--prep", "Q:0", "--measure", "Z"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_gate_exits_two(self, capsys):
        rc = main(["qsl", "run", "--prep", "Z:0", "--gates", "H",
                   "--measure", "Z"])
        assert rc == 2
        capsys.readouterr()


class TestOutputPlumbing:
    def test_stdout_default(self, capsys):
        rc = main(["chsh"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["membership"] == "outside"

    def test_json_sorted_and_stable(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["kcbs", "--out", str(a)]) == 0
        assert main(["kcbs", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_classify_stable_across_runs(self, tmp_path):
        doc = tmp_path / "pr.json"
        doc.write_text(json.dumps(pr_box_doc()))
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        argv = ["classify", str(doc), "--emit-certificate", "--seed", "3"]
        assert main([*argv, "--out", str(a)]) == 0
        assert main([*argv, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_flags_do_not_leak_between_calls(self, tmp_path):
        doc = tmp_path / "pr.json"
        doc.write_text(json.dumps(pr_box_doc()))
        outs = [tmp_path / f"{k}.json" for k in range(3)]
        flags = ([], ["--emit-certificate", "--seed", "5"], [])
        for out, extra in zip(outs, flags):
            assert main(["classify", str(doc), *extra, "--out", str(out)]) == 0
        first, emitted, after = (json.loads(o.read_text()) for o in outs)
        assert "rows" in {k for c in emitted["certificates"] for k in c}
        assert emitted["seed"] == 5
        assert after == first
        for cert in after["certificates"]:
            assert set(cert) <= {"role", "kind", "verdict", "scope"}
        assert after["seed"] == 0

    def test_text_format(self, capsys):
        rc = main(["chsh", "--format", "text"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "membership: outside" in out
        assert "{" not in out

    def test_text_format_to_file(self, tmp_path):
        out = tmp_path / "report.txt"
        rc = main(["pm-square", "--trials", "1", "--format", "text",
                   "--out", str(out)])
        assert rc == 0
        assert "satisfying_assignments: 0" in out.read_text()

    def test_parser_rejects_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nonsense"])

    def test_seed_recorded(self, tmp_path):
        payload = run_json(tmp_path, ["kcbs", "--seed", "9"])
        assert payload["seed"] == 9


# One run of every subcommand; "{gpt}" and "{prep}" stand for document paths.
EVERY_SUBCOMMAND = [["validate", "{prep}"], ["classify", "{prep}"], ["kcbs"], ["chsh"],
                    ["pm-square", "--trials", "0"], ["embed", "{gpt}"],
                    ["prep-nc", "--r", "1/2"], ["pusey", "--six-ensemble", "1/2"],
                    ["convert-bell"],
                    ["qsl", "run", "--prep", "Z:0", "--measure", "Z", "--shots", "10"]]


class TestSeedRange:
    """Every subcommand takes a seed in [0, 2^64) and refuses any other with one line."""

    @staticmethod
    def run(tmp_path, argv, seed, fmt):
        docs = {"{gpt}": FINITE_GPT, "{prep}": {"kind": "prep-ensemble", "r": "1/2"}}
        for name, doc in docs.items():
            (tmp_path / f"{name[1:-1]}.json").write_text(json.dumps(doc))
        argv = [str(tmp_path / f"{a[1:-1]}.json") if a in docs else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([*argv, "--seed", str(seed), "--format", fmt])
        return rc, out.getvalue(), err.getvalue()

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("seed", [-1, 2 ** 64], ids=["negative", "2^64"])
    @pytest.mark.parametrize("argv", EVERY_SUBCOMMAND, ids=lambda argv: argv[0])
    def test_out_of_range_refused(self, tmp_path, argv, seed, fmt):
        rc, out, err = self.run(tmp_path, argv, seed, fmt)
        require_one_line_refusal(rc, out, err, f"{argv[0]} --seed {seed}")
        require(err == "error: seed must be an integer in [0, 2^64)\n", err)

    @pytest.mark.parametrize("argv", [["prep-nc", "--r", "1/2"], ["classify", "{prep}"],
                                      EVERY_SUBCOMMAND[-1]], ids=lambda argv: argv[0])
    def test_largest_seed_accepted(self, tmp_path, argv):
        rc, out, err = self.run(tmp_path, argv, 2 ** 64 - 1, "json")
        require(rc == 0 and err == "", f"exit {rc}: {err!r}")
        require(json.loads(out)["seed"] == 2 ** 64 - 1, out)


def interleaved_box_doc(p: dict, shape, a_labels, b_labels) -> dict:
    """Empirical document of the box p(a, b | x, y) with shape (nX, nY, nA, nB).

    Measurements are declared interleaved (A0, B0, A1, B1, ...), contexts
    and table keys B-first, and outcome a of party A is `a_labels[a]`.
    """
    n_x, n_y, n_a, n_b = shape
    measurements = []
    for k in range(max(n_x, n_y)):
        if k < n_x:
            measurements.append({"label": f"A{k}", "outcomes": a_labels[:n_a]})
        if k < n_y:
            measurements.append({"label": f"B{k}", "outcomes": b_labels[:n_b]})
    tables = {f"B{y},A{x}": {f"{b_labels[b]},{a_labels[a]}": str(p[(a, b, x, y)])
                             for a in range(n_a) for b in range(n_b)}
              for y in range(n_y) for x in range(n_x)}
    return {"kind": "empirical",
            "model": {"measurements": measurements,
                      "contexts": [[f"B{y}", f"A{x}"] for y in range(n_y)
                                   for x in range(n_x)],
                      "tables": tables}}


def parse_coordinate(key: str) -> tuple:
    outs, setts = key.split("|")
    return tuple(int(t) for t in outs.split(",") + setts.split(","))


class TestBipartiteIndexMapping:
    """The Bell certificate, read off the section LP, in the box's own coordinates.

    Coordinates (a, b | x, y) number settings per party in declaration order
    and outcomes in each measurement's declared order; weights follow the
    lexicographic (f, g) order of the oracle's vertex list.
    """

    A_LABELS = ["up", "down"]
    B_LABELS = ["left", "right", "none"]

    def classify_box(self, tmp_path, p, shape):
        doc = tmp_path / "box.json"
        doc.write_text(json.dumps(
            interleaved_box_doc(p, shape, self.A_LABELS, self.B_LABELS)))
        return run_json(tmp_path, ["classify", str(doc), "--emit-certificate"])

    @pytest.mark.parametrize("shape", [(2, 2, 2, 2), (2, 3, 2, 3)])
    def test_certificate_against_oracle_vertices(self, tmp_path, shape):
        rng = np.random.default_rng(61)
        vertices = ld_vertex_boxes(*shape)
        for pr_weight in (Fraction(0), Fraction(4, 5)):
            p = random_box(rng, shape, pr_weight)
            payload = self.classify_box(tmp_path, p, shape)
            (cert,) = [c for c in payload["certificates"] if c["role"] == "bell"]
            if pr_weight == 0:
                assert cert["verdict"] == "inside"
                weights = {k: Fraction(w) for k, w in cert["weights"]}
                assert len(weights) == len(cert["weights"])
                assert all(0 <= k < len(vertices) and w > 0 for k, w in weights.items())
                for c in p:
                    assert sum(w * vertices[k][c] for k, w in weights.items()) == p[c]
                continue
            assert cert["verdict"] == "outside"
            sep = cert["separating"]
            coeffs = {parse_coordinate(k): Fraction(v)
                      for k, v in sep["coefficients"].items()}
            assert set(coeffs) == set(p)
            bound = Fraction(sep["bound"])
            scores = [sum(coeffs[c] * v[c] for c in p) for v in vertices]
            assert max(scores) <= bound
            assert scores[cert["witness_vertex"]] == bound
            value = Fraction(cert["value_on_behaviour"])
            assert value == sum(coeffs[c] * p[c] for c in p)
            assert value > bound

    def test_bell_verdict_equals_ks_verdict_on_random_boxes(self, tmp_path):
        rng = np.random.default_rng(67)
        seen = set()
        for trial in range(12):
            shape = ((2, 2, 2, 2), (2, 3, 2, 3))[trial % 2]
            p = random_box(rng, shape, Fraction(int(rng.integers(0, 6)), 5))
            payload = self.classify_box(tmp_path, p, shape)
            assert payload["bell_local"] == payload["ks_noncontextual"]
            seen.add(payload["bell_local"])
        assert seen == {"yes", "no"}


class TestOversizedBox:
    def test_thirteen_settings_per_party_undecided(self, tmp_path):
        n = 13
        assert 2 ** (2 * n) > MAX_ASSIGNMENTS
        p = {(a, b, x, y): Fraction(1, 4) for a in range(2) for b in range(2)
             for x in range(n) for y in range(n)}
        doc = tmp_path / "big.json"
        doc.write_text(json.dumps(
            interleaved_box_doc(p, (n, n, 2, 2), ["0", "1"], ["0", "1"])))
        t0 = time.perf_counter()
        payload = run_json(tmp_path, ["classify", str(doc)])
        elapsed = time.perf_counter() - t0
        assert payload["ks_noncontextual"] == "undecided"
        assert payload["bell_local"] == "not-applicable"
        assert any(note.startswith("global-section solver skipped")
                   for note in payload["notes"])
        assert elapsed < 1.0


def timed_classify(tmp_path, doc: dict) -> tuple:
    """Payload of `classify` on ``doc`` and the seconds the call took."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    t0 = time.perf_counter()
    payload = run_json(tmp_path, ["classify", str(path)])
    return payload, time.perf_counter() - t0


class TestSharpSectionCap:
    """Above MAX_ASSIGNMENTS columns the sharp route says undecided, quickly.

    Each input has 24 atoms, so its sharp section would have 2**24 columns.
    """

    def test_sharp_gpt_with_six_disjoint_contexts(self, tmp_path):
        # Six product bases of two qubits, which share no ray: 24 atoms.
        eig = {name: pvm_from_observable(PAULIS[name], name).projectors
               for name in ("X", "Y", "Z")}
        contexts = [[projective_context(f"{a}{b}", [tensor(p, q) for p in eig[a]
                                                    for q in eig[b]])]
                    for a, b in ("ZZ", "XX", "YY", "ZX", "XZ", "ZY")]
        gpt = sharp_gpt_from_quantum([np.eye(4) / 4], contexts)
        assert sorted(len(ctx) for ctx in gpt.sharp_contexts) == [4] * 6
        assert 2 ** 24 > MAX_ASSIGNMENTS
        payload, elapsed = timed_classify(
            tmp_path, {"kind": "gpt", "gpt": gpt_to_json(gpt)})
        assert (payload["ks_noncontextual"],
                payload["spekkens_noncontextual"]) == ("undecided", "undecided")
        assert any(note.startswith("global-section route unavailable")
                   for note in payload["notes"])
        assert any(note.startswith("embedding constructor skipped")
                   for note in payload["notes"])
        assert elapsed < 1.0

    def test_three_qubit_quantum_document(self, tmp_path):
        eye = np.eye(2)

        def on_qubit(op, k):
            factors = [op if i == k else eye for i in range(3)]
            return tensor(tensor(factors[0], factors[1]), factors[2])

        contexts = [[{"label": f"{name}{k + 1}",
                      "projectors": [matrix_to_json(p) for p in pvm_from_observable(
                          on_qubit(PAULIS[name], k), f"{name}{k + 1}").projectors]}
                     for k in range(3)] for name in ("Z", "X", "Y")]
        rng = np.random.default_rng(5)
        g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = g @ g.conj().T
        doc = {"kind": "quantum", "state": matrix_to_json(rho / np.trace(rho).real),
               "contexts": contexts}
        payload, elapsed = timed_classify(tmp_path, doc)
        assert (payload["ks_noncontextual"],
                payload["spekkens_noncontextual"]) == ("yes", "undecided")
        assert any(note.startswith("embedding constructor skipped")
                   for note in payload["notes"])
        assert elapsed < 1.0


def float_copy(doc: dict) -> dict:
    """The empirical document with every "p/q" table entry written as a float."""
    out = json.loads(json.dumps(doc))
    for table in out["model"]["tables"].values():
        for key, v in table.items():
            table[key] = float(Fraction(v))
    return out


def classify_bytes(path, doc: dict) -> tuple:
    """Exit code, output bytes and standard error of `classify --emit-certificate`."""
    path.write_text(json.dumps(doc))
    out = path.with_suffix(".out")
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["classify", str(path), "--emit-certificate", "--out", str(out)])
    return rc, (out.read_bytes() if out.exists() else b""), err.getvalue()


def coarse_graining_doc(rng) -> dict:
    """Two-outcome coarse-grainings {0,1}, {0,2}, {0} of one random 4-dimensional basis."""
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    u, _ = np.linalg.qr(g)
    rays = [np.outer(u[:, i], u[:, i].conj()) for i in range(4)]
    meas = []
    for k, block in enumerate([(0, 1), (0, 2), (0,)]):
        q = sum(rays[i] for i in block)
        meas.append({"label": f"M{k}",
                     "projectors": [matrix_to_json(q), matrix_to_json(np.eye(4) - q)]})
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = h @ h.conj().T
    return {"kind": "quantum", "state": matrix_to_json(rho / np.trace(rho).real),
            "contexts": [[meas[0], meas[1]], [meas[1], meas[2]], [meas[0], meas[2]]]}


def pentagon_doc(rng) -> tuple[dict, bool]:
    """A random qutrit pentagon document at least 1/20 from the cycle bound, and whether it is contextual."""
    projs = [np.outer(v, v.conj()) for v in kcbs_vectors()]
    sign = [2 * p - np.eye(3) for p in projs]
    while True:
        psi = np.array([1, 0, 0]) + 0.5 * (rng.normal(size=3) + 1j * rng.normal(size=3))
        psi /= np.linalg.norm(psi)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        w = rng.uniform(0, 1)
        rho = w * np.outer(psi, psi.conj()) + (1 - w) * (g @ g.conj().T) / np.trace(g @ g.conj().T).real
        margin = cycle_margin([float(np.trace(rho @ sign[j] @ sign[(j + 1) % 5]).real)
                               for j in range(5)])
        if abs(margin) >= 1 / 20:
            break
    meas = [{"label": f"A{j}", "projectors": [matrix_to_json(p), matrix_to_json(np.eye(3) - p)]}
            for j, p in enumerate(projs)]
    return ({"kind": "quantum", "state": matrix_to_json(rho),
             "contexts": [[meas[j], meas[(j + 1) % 5]] for j in range(5)]}, margin > 0)


class TestAtomCorpus:
    """Quantum documents whose verdicts the exact atoms must keep.

    Every coarse-graining document has a global section, in each of its 8
    projector orders; rounding the Born tables one entry at a time pushed
    some of them to a wrong "no".  The pentagon documents keep the cycle
    inequality's verdict.
    """

    def test_coarse_grainings_in_every_projector_order(self):
        wrong = []
        for k in range(40):
            doc = coarse_graining_doc(np.random.default_rng(1000 + k))
            for flips in itertools.product((False, True), repeat=3):
                flipped = json.loads(json.dumps(doc))
                for ctx in flipped["contexts"]:
                    for m in ctx:
                        if flips[int(m["label"][1:])]:
                            m["projectors"].reverse()
                report = classify(flipped)
                if (report.ks_noncontextual, report.spekkens_noncontextual) != ("yes", "yes"):
                    wrong.append((k, flips))
        if wrong:
            pytest.fail(f"{len(wrong)} of 320 documents not yes/yes: {wrong[:5]}")

    def test_random_pentagons_keep_the_cycle_verdict(self):
        rng = np.random.default_rng(2024)
        seen = set()
        for _ in range(60):
            doc, contextual = pentagon_doc(rng)
            report = classify(doc)
            expected = "no" if contextual else "yes"
            got = (report.ks_noncontextual, report.spekkens_noncontextual)
            if got != (expected, expected):
                pytest.fail(f"verdicts {got}, the cycle inequality says {expected}")
            seen.add(expected)
        if seen != {"yes", "no"}:
            pytest.fail(f"the corpus must hold both verdicts, got {seen}")

    def test_each_exact_model_is_checked_once(self, monkeypatch):
        # The atom model is checked by `exact_model`, and the section's
        # pass-through reads that answer back; the induced model of the
        # sharp route is checked by `make_model`, which builds it.  Each
        # check compares the marginals of one model's integer tables.
        checked = []
        honest = scenario._marginals_agree
        monkeypatch.setattr(scenario, "_marginals_agree",
                            lambda sc, tables: checked.append(tables) or honest(sc, tables))
        report = classify(coarse_graining_doc(np.random.default_rng(1000)))
        monkeypatch.undo()
        assert (report.ks_noncontextual, report.spekkens_noncontextual) == ("yes", "yes")
        if len(checked) != 2 or checked[0] is checked[1]:
            pytest.fail(f"{len(checked)} consistency checks, 2 distinct models expected")


class TestQuantumStateFrontDoor:
    """The state is checked once, before either verdict route, by classify and validate alike."""

    @staticmethod
    def cases():
        rho = np.zeros((3, 3))
        rho[0, 0] = 1
        skew = np.zeros((3, 3))
        skew[0, 1], skew[1, 0] = 0.3, -0.3
        kcbs = pentagon_doc(np.random.default_rng(3))[0]
        cg = coarse_graining_doc(np.random.default_rng(4))
        yield "not Hermitian", {**kcbs, "state": matrix_to_json(rho + skew)}
        yield "negative eigenvalue", {**cg, "state": matrix_to_json(np.diag([.6, .6, -.1, -.1]))}
        yield "acts on dimension 4, the state on 3", {**cg, "state": matrix_to_json(np.eye(3) / 3)}

    @pytest.mark.parametrize("subcommand", ["classify", "validate"])
    def test_bad_states_exit_two_naming_the_fault(self, tmp_path, subcommand):
        for fault, doc in self.cases():
            path = tmp_path / "state.json"
            path.write_text(json.dumps(doc))
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                rc = main([subcommand, str(path)])
            if rc != 2 or fault not in err.getvalue():
                pytest.fail(f"{fault}: exit {rc}, stderr {err.getvalue()!r}")


class TestFloatDocuments:
    """Float documents: rounded entries that are exactly consistent are used as they are."""

    SHAPES = ((2, 2, 2, 2), (2, 3, 2, 3))

    def test_float_box_prints_its_exact_twin(self, tmp_path):
        rng = np.random.default_rng(71)
        verdicts = set()
        for trial in range(12):
            shape = self.SHAPES[trial % 2]
            pr_weight = (Fraction(0), Fraction(4, 5))[trial // 2 % 2]
            exact = interleaved_box_doc(random_box(rng, shape, pr_weight), shape,
                                        ["0", "1"], ["0", "1", "2"])
            rc, exact_out, _ = classify_bytes(tmp_path / "exact.json", exact)
            rc_f, float_out, _ = classify_bytes(tmp_path / "float.json",
                                                float_copy(exact))
            assert rc == rc_f == 0
            assert float_out == exact_out
            verdicts.add(json.loads(exact_out)["bell_local"])
        assert verdicts == {"yes", "no"}

    def test_coarse_grainings_of_one_basis_stay_noncontextual(self, tmp_path):
        # Every measurement is a function of one basis measurement, so a
        # global section exists; rounding must not push the data off it.
        for seed in range(50):
            doc = coarse_graining_doc(np.random.default_rng(seed))
            rc, out, err = classify_bytes(tmp_path / "cg.json", doc)
            assert rc == 0, err
            assert json.loads(out)["ks_noncontextual"] == "yes"

    def test_table_sums_within_nd_tol_are_accepted(self, tmp_path):
        # Every entry of the first table 1e-12 high: its sum misses 1 by
        # 4e-12, which is within ND_TOL; rounding recovers the exact box.
        exact = interleaved_box_doc(
            random_box(np.random.default_rng(5), (2, 2, 2, 2), Fraction(4, 5)),
            (2, 2, 2, 2), ["0", "1"], ["0", "1"])
        doc = float_copy(exact)
        table = next(iter(doc["model"]["tables"].values()))
        for key in table:
            table[key] += 1e-12
        rc, out, err = classify_bytes(tmp_path / "jit.json", doc)
        assert rc == 0, err
        assert out == classify_bytes(tmp_path / "exact.json", exact)[1]

    def test_table_sum_off_by_1e_6_exits_two(self, tmp_path):
        exact = interleaved_box_doc(
            random_box(np.random.default_rng(5), (2, 2, 2, 2), Fraction(0)),
            (2, 2, 2, 2), ["0", "1"], ["0", "1"])
        doc = float_copy(exact)
        table = next(iter(doc["model"]["tables"].values()))
        key = max(table, key=table.__getitem__)
        table[key] += 1e-6
        rc, out, err = classify_bytes(tmp_path / "off.json", doc)
        assert rc == 2
        assert "sums to" in err

    def test_exact_table_must_sum_to_exactly_one(self, tmp_path):
        # 1/2 + 1/2 + 10^-15 is within 1e-12 of 1 as a float, but an exact
        # table is exact: it is refused, not rounded onto a valid one.
        doc = {"kind": "empirical", "model": {
            "measurements": [{"label": "A", "outcomes": [0, 1]},
                             {"label": "B", "outcomes": [0, 1]}],
            "contexts": [["A", "B"]],
            "tables": {"A,B": {"0,0": "1/2", "0,1": "1/2",
                               "1,0": "1/1000000000000000", "1,1": "0"}}}}
        rc, out, err = classify_bytes(tmp_path / "exact.json", doc)
        assert rc == 2
        assert out == b""
        assert err.startswith("error: ") and "sums to" in err
        assert err.count("\n") == 1
        assert "Traceback" not in err


FUZZ_KINDS = ("valid", "jittered", "disturbing", "negative", "unnormalised")


@st.composite
def float_box_documents(draw):
    """(kind, float document, exact source document) over two-setting boxes."""
    kind = draw(st.sampled_from(FUZZ_KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = draw(st.sampled_from(TestFloatDocuments.SHAPES))
    pr_weight = Fraction(draw(st.integers(0, 5)), 5)
    exact = interleaved_box_doc(random_box(rng, shape, pr_weight), shape,
                                ["0", "1"], ["0", "1", "2"])
    doc = float_copy(exact)
    tables = doc["model"]["tables"]
    name = draw(st.sampled_from(sorted(tables)))
    table = tables[name]
    keys = sorted(table)
    if kind == "jittered":
        # Up to 1e-12 per entry, so a table's sum moves by up to 6e-12.
        for t in tables.values():
            for key in t:
                t[key] += draw(st.floats(-1e-12, 1e-12))
    elif kind == "disturbing":
        # Move mass between A's outcomes at a fixed B outcome: the table still
        # sums to 1, but A's marginal in this context moves by d.  The
        # largest of at most six entries is at least 1/6, so none goes negative.
        src = max(keys, key=table.__getitem__)
        b, a = src.split(",")
        dst = f"{b},{1 - int(a)}"
        d = draw(st.floats(2e-9, 0.15))
        table[src] -= d
        table[dst] += d
    elif kind == "negative":
        src, dst = draw(st.permutations(keys))[:2]
        d = table[src] + draw(st.floats(1e-9, 0.5))
        table[src] -= d
        table[dst] += d
    elif kind == "unnormalised":
        key = draw(st.sampled_from(keys))
        # Off by more than the ND_TOL that a float table's sum may miss by.
        table[key] += draw(st.sampled_from((-1, 1))) * draw(st.floats(2e-9, 0.1))
        table[key] = max(table[key], 0.0)
        if abs(sum(table.values()) - 1.0) <= 2e-9:
            table[keys[0]] += 1e-6
    return kind, doc, exact


class TestFloatDocumentFuzz:
    @settings(max_examples=150, deadline=None)
    @given(drawn=float_box_documents())
    def test_exit_codes_and_no_traceback(self, tmp_path_factory, drawn):
        kind, doc, exact = drawn
        path = tmp_path_factory.mktemp("fuzz") / "doc.json"
        rc, out, err = classify_bytes(path, doc)
        assert rc in (0, 2, 3)
        assert "Traceback" not in err
        if kind in ("valid", "jittered"):
            # Within 1e-12 of a small-denominator box, rounding recovers
            # the box itself.
            assert rc == 0, err
            assert out == classify_bytes(path.with_name("exact.json"), exact)[1]
        else:
            assert rc == 2, err


PUSEY_FAULTS = ("document-not-object", "preps-not-object", "prep-not-object",
                "stats-not-list", "outcome-count", "exact-sum", "zero-outcomes",
                "bad-fraction", "non-finite", "equivalences-not-list",
                "unknown-label", "float-weight", "negative-weight", "weights-sum",
                "too-many-preps", "too-many-measurements")
# The first declared mixture of each fault in the mixtures alone: a refusal
# before any hull LP of the scan.  "negative-weight" sums to 1, yet is no mixture.
MIXTURE_FAULTS = {"unknown-label": {"nobody": "1"}, "negative-weight": {"P0": "3/2", "P1": "-1/2"},
                  "weights-sum": {"P0": "1/4", "P1": "1/4"}}


@st.composite
def pusey_documents(draw):
    """(fault, document): a valid pusey document, or one with a fault planted.

    Fault "valid" plants none.  Preparations number 2-4 over 1-3 measurements
    with 2-3 outcomes, and probabilities are exact strings.
    """
    fault = draw(st.sampled_from(("valid",) + PUSEY_FAULTS))
    sizes = draw(st.lists(st.integers(2, 3), min_size=1, max_size=3))

    def dist(n):
        den = draw(st.integers(1, 6))
        cuts = sorted(draw(st.lists(st.integers(0, den), min_size=n - 1,
                                    max_size=n - 1)))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [den])]
        return [f"{p}/{den}" for p in parts]

    n_preps = {"too-many-preps": 14}.get(fault, draw(st.integers(2, 4)))
    if fault == "too-many-measurements":
        sizes = [2] * 13
    preps = {f"P{i}": {f"M{k}": dist(n) for k, n in enumerate(sizes)}
             for i in range(n_preps)}
    doc = {"preps": preps,
           "equivalences": [[{"P0": "1/2", "P1": "1/2"}, {"P1": "1"}]]}
    prep = draw(st.sampled_from(sorted(preps)))
    meas = draw(st.sampled_from(sorted(preps[prep])))
    junk = st.sampled_from([None, 5, "x", [], {}])
    if fault == "document-not-object":
        doc = draw(st.sampled_from([[], 5, "preps", None, [preps]]))
    elif fault == "preps-not-object":
        doc["preps"] = draw(st.sampled_from([[], 5, "x", None, [preps[prep]]]))
    elif fault == "prep-not-object":
        preps[prep] = draw(st.sampled_from([[], 5, "x", None]))
    elif fault == "stats-not-list":
        preps[prep][meas] = draw(junk.filter(lambda v: not isinstance(v, list)))
    elif fault == "outcome-count":
        preps[prep][meas] = preps[prep][meas] + ["0"]
    elif fault == "exact-sum":
        preps[prep][meas][0] = str(Fraction(preps[prep][meas][0])
                                   + draw(st.sampled_from([Fraction(1, 7),
                                                           Fraction(-1, 7)])))
    elif fault == "zero-outcomes":
        for stats in preps.values():
            stats[meas] = []
    elif fault == "bad-fraction":
        bad = draw(st.sampled_from(["1/0", "x", "", "1/2/3", True]))
        if draw(st.booleans()):
            preps[prep][meas][0] = bad
        else:
            doc["equivalences"][0][1]["P1"] = bad
    elif fault == "non-finite":
        preps[prep][meas][0] = draw(st.sampled_from(
            [float("inf"), float("-inf"), float("nan")]))
    elif fault == "equivalences-not-list":
        doc["equivalences"] = draw(st.sampled_from([5, "x", {}, [5], [{"P0": 1}]]))
    elif fault == "float-weight":
        doc["equivalences"][0][0] = {"P0": 0.5, "P1": 0.5}
    elif fault in MIXTURE_FAULTS:
        doc["equivalences"][0][0] = MIXTURE_FAULTS[fault]
    return fault, doc


def mixture_fault(fault: str) -> tuple:
    """(fault, document): two valid preparations and one of `MIXTURE_FAULTS`."""
    return fault, {"preps": {"P0": {"M0": ["1/3", "2/3"]}, "P1": {"M0": ["1", "0"]}},
                   "equivalences": [[MIXTURE_FAULTS[fault], {"P1": "1"}]]}


class TestPuseyDocumentFuzz:
    @settings(max_examples=150, deadline=None)
    @given(drawn=pusey_documents())
    @example(drawn=mixture_fault("unknown-label"))
    @example(drawn=mixture_fault("negative-weight"))
    @example(drawn=mixture_fault("weights-sum"))
    def test_faults_exit_two_with_one_line(self, tmp_path_factory, drawn):
        fault, doc = drawn
        path = tmp_path_factory.mktemp("pusey") / "doc.json"
        path.write_text(json.dumps(doc))
        out, err, scanned = io.StringIO(), io.StringIO(), []
        hull_pair_lp = embedding._hull_pair_lp
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                mock.patch.object(embedding, "_hull_pair_lp",
                                  lambda a, s, t: scanned.append(1) or hull_pair_lp(a, s, t)):
            rc = main(["pusey", str(path)])
        assert "Traceback" not in err.getvalue()
        if fault in MIXTURE_FAULTS:
            assert not scanned, f"{fault}: {len(scanned)} hull LPs before the refusal"
        if fault == "valid":
            assert rc == 0, err.getvalue()
            assert json.loads(out.getvalue())["verdict"] in (
                "contextual", "inconclusive")
        else:
            assert rc == 2, (fault, err.getvalue())
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1


def pentagon_graph_doc() -> dict:
    """The pentagon's exclusivity graph with its qutrit projectors."""
    rays = kcbs_vectors()
    labels = [f"P{j}" for j in range(5)]
    return {"weights": {l: 1 for l in labels},
            "edges": [[labels[j], labels[(j + 1) % 5]] for j in range(5)],
            "projectors": {l: matrix_to_json(np.outer(v, v.conj()))
                           for l, v in zip(labels, rays)},
            "dim": 3}


FRONT_DOOR_FAULTS = {
    "embed": ("not-object", "kind-without-gpt", "wrong-kind", "unknown-kind",
              "gpt-not-object", "missing-key", "dim-junk", "states-junk",
              "contexts-junk"),
    "convert-bell": ("not-object", "weights-junk", "projectors-junk",
                     "no-vertices", "edges-junk", "edge-junk", "unknown-label",
                     "weight-junk", "projector-junk", "dim-junk", "missing-dim"),
}


@st.composite
def front_door_documents(draw):
    """(command, fault, document): a valid `embed` or `convert-bell`
    document, or one with a fault planted.  Fault "valid" plants none."""
    command = draw(st.sampled_from(sorted(FRONT_DOOR_FAULTS)))
    fault = draw(st.sampled_from(("valid",) + FRONT_DOOR_FAULTS[command]))
    junk = st.sampled_from([None, 5, "x", [], {}, [5], [[]], True, 1.5])
    if fault == "not-object":
        return command, fault, draw(st.sampled_from([5, [], "x", None, [1, 2]]))
    if command == "embed":
        gpt = {"dim": 2, "states": [[1.0, 0.0], [0.5, 0.5]],
               "effects": [[1.0, 0.0], [0.0, 1.0]], "unit": [1.0, 1.0],
               "sharp_contexts": [[0, 1]]}
        doc = {"kind": "gpt", "gpt": gpt} if draw(st.booleans()) else gpt
        if fault == "kind-without-gpt":
            doc = {"kind": "gpt"}
        elif fault == "wrong-kind":
            doc = {"kind": draw(st.sampled_from(["quantum", "empirical",
                                                 "prep-ensemble"]))}
        elif fault == "unknown-kind":
            doc = {"kind": draw(junk), "gpt": gpt}
        elif fault == "gpt-not-object":
            doc = {"kind": "gpt", "gpt": draw(junk.filter(
                lambda v: not isinstance(v, dict)))}
        elif fault == "missing-key":
            del gpt[draw(st.sampled_from(["dim", "states", "effects", "unit"]))]
        elif fault == "dim-junk":
            gpt["dim"] = draw(st.sampled_from([None, [], {}, "x", 3, 1.5]))
        elif fault == "states-junk":
            gpt[draw(st.sampled_from(["states", "effects", "unit"]))] = draw(junk)
        elif fault == "contexts-junk":
            gpt["sharp_contexts"] = draw(st.sampled_from(
                [5, [5], [["x"]], [[None]], [[[0]]], [[0, 0]], [[7]]]))
        return command, fault, doc
    doc = pentagon_graph_doc()
    label = draw(st.sampled_from(sorted(doc["weights"])))
    if fault in ("weights-junk", "projectors-junk"):
        doc[fault.split("-")[0]] = draw(junk.filter(lambda v: not isinstance(v, dict)))
    elif fault == "no-vertices":
        doc.update(weights={}, edges=[], projectors={}, dim=10 ** 9)
    elif fault == "edges-junk":
        doc["edges"] = draw(junk.filter(lambda v: v != [] and not isinstance(v, dict)))
    elif fault == "edge-junk":
        doc["edges"].append(draw(st.sampled_from(
            [[["P0"], "P1"], ["P0"], ["P0", "P1", "P2"], [1, 2], "P0", 5,
             [None, "P1"], ["P0", "P0"]])))
    elif fault == "unknown-label":
        doc["edges"].append(["P0", "nobody"])
    elif fault == "weight-junk":
        doc["weights"][label] = draw(st.sampled_from(
            ["1/0", "x", [], {}, None, -1, "-1/2"]))
    elif fault == "projector-junk":
        doc["projectors"][label] = draw(st.sampled_from(
            [5, [], "x", {}, {"rows": 2, "cols": 2, "re": [1]},
             {"rows": "x", "cols": 3, "re": []}]))
    elif fault == "dim-junk":
        doc["dim"] = draw(st.sampled_from([None, [], {}, "x", 2, 0, -3, 1e300]))
    elif fault == "missing-dim":
        del doc["dim"]
    return command, fault, doc


class TestFrontDoorFuzz:
    """`embed` and `convert-bell` exit 0 or 2 with one line, never a traceback."""

    @settings(max_examples=150, deadline=None)
    @given(drawn=front_door_documents())
    def test_faults_exit_two_with_one_line(self, tmp_path_factory, drawn):
        command, fault, doc = drawn
        path = tmp_path_factory.mktemp("front") / "doc.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([command, str(path)])
        assert "Traceback" not in err.getvalue()
        if fault == "valid":
            assert rc == 0, err.getvalue()
            assert err.getvalue() == ""
        else:
            assert rc == 2, (command, fault, doc, err.getvalue())
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1

    @pytest.mark.parametrize("command, doc", [
        ("embed", {"kind": "gpt"}),
        ("embed", 5),
        ("convert-bell", {"weights": 5}),
        ("convert-bell", {**pentagon_graph_doc(), "projectors": []}),
        ("convert-bell", {**pentagon_graph_doc(), "edges": [[["a"], "b"]]}),
    ])
    def test_known_tracebacks_exit_two(self, tmp_path, capsys, command, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def equal_atoms_gpt_json(state) -> dict:
    """Two sharp contexts {0, 1} and {2, 3} whose atoms 0, 2 and 1, 3 are equal."""
    return {"dim": 2, "states": [state],
            "effects": [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]],
            "unit": [1.0, 1.0], "sharp_contexts": [[0, 1], [2, 3]]}


def dependent_states_gpt_json() -> dict:
    """The pentagon GPT on three states, the third the equal mixture of the others.

    Each state's section is solved on its own, so the weights are not
    linear in the states and the sharp embedding's state span test fails.
    """
    states = [np.eye(3) / 3, np.diag([0.5, 0.25, 0.25])]
    return kcbs_gpt_json(*states, (states[0] + states[1]) / 2)


def nested_coarse_grainings_doc() -> dict:
    """Measurements {P0, P1, P2+P3} and {P0+P1, P2, P3} on the maximally mixed ququart."""
    p = [np.diag(row) for row in np.eye(4)]
    measurements = [("M1", [p[0], p[1], p[2] + p[3]]),
                    ("M2", [p[0] + p[1], p[2], p[3]])]
    return {"kind": "quantum", "state": matrix_to_json(np.eye(4) / 4),
            "contexts": [[{"label": label,
                           "projectors": [matrix_to_json(q) for q in projs]}]
                         for label, projs in measurements]}


class TestSharpEmbeddingAssembly:
    """Sections that fail a span test of the sharp embedding leave the verdict undecided.

    Written with `oracles.require` instead of bare asserts, so that it
    also tests something when pytest runs under ``python -O``.
    """

    @pytest.mark.parametrize("kind", ["gpt", "quantum"])
    def test_forced_failure_exits_zero_undecided(self, tmp_path, kind):
        if kind == "gpt":
            doc = {"kind": "gpt", "gpt": dependent_states_gpt_json()}
        else:
            doc = nested_coarse_grainings_doc()
        rc, out, err = classify_bytes(tmp_path / "doc.json", doc)
        require(rc == 0 and err == "", f"exit {rc}, {err!r}")
        payload = json.loads(out)
        require((payload["ks_noncontextual"], payload["spekkens_noncontextual"])
                == ("yes", "undecided"), f"{payload}")
        require(any("embedding assembly" in note for note in payload["notes"]),
                f"{payload['notes']}")
        require(all(c.get("kind") != "simplex-embedding"
                    for c in payload["certificates"]), f"{payload}")

    def test_forced_failure_in_embed_command(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(dependent_states_gpt_json()))
        rc, out, err = cli_run(path, ["embed"])
        require(rc == 0 and err == "", f"exit {rc}, {err!r}")
        payload = json.loads(out)
        require(payload["verdict"] == "undecided", f"{payload}")
        require(payload["note"].startswith("embedding assembly"), payload["note"])
        require(payload["certificates"] == [], f"{payload}")

    def test_linear_responses_stay_embeddable(self, tmp_path):
        # On state (1, 0) atoms 0 and 2 both fire, as their equal vectors must.
        path = tmp_path / "g.json"
        path.write_text(json.dumps(equal_atoms_gpt_json([1.0, 0.0])))
        rc, out, err = cli_run(path, ["embed", "--emit-certificate"])
        require(rc == 0 and err == "", f"exit {rc}, {err!r}")
        payload = json.loads(out)
        require(payload["verdict"] == "embeddable", f"{payload}")
        cert = payload["certificates"][0]
        require((cert["d"], cert["assignments"], cert["state_weights"])
                == (1, [[1, 0, 1, 0]], [["1/1"]]), f"{cert}")


SHARP_ROUTE_IMPORTS = """
import sys

from contextuality.cli import main

for path in sys.argv[1:]:
    if main(["classify", path, "--out", path + ".out"]) != 0:
        sys.exit(f"classify {path} failed")
    if path.endswith("plain.json") and main(["embed", path, "--out",
                                             path + ".embed"]) != 0:
        sys.exit(f"embed {path} failed")
if "scipy" in sys.modules:
    sys.exit("an embedding route imported scipy")
"""


class TestSharpRouteImports:
    def test_sharp_route_never_imports_scipy_optimize(self, tmp_path):
        # Both sharp documents are noncontextual, so the embedding is
        # assembled: the path that used to fall back to scipy's HiGHS LP.
        # The GPT without sharp contexts takes the exact embedding LP, which
        # replaced a scipy search, through both classify and embed.
        coarse = tmp_path / "coarse.json"
        coarse.write_text(json.dumps(coarse_graining_doc(np.random.default_rng(4))))
        rng = np.random.default_rng(4)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = g @ g.conj().T
        sharp = tmp_path / "sharp.json"
        sharp.write_text(json.dumps(
            {"kind": "gpt", "gpt": kcbs_gpt_json(rho / np.trace(rho).real)}))
        plain = tmp_path / "plain.json"
        plain.write_text(json.dumps({"kind": "gpt", "gpt": {
            "dim": 2, "states": [[1.0, 0.0], [0.25, 0.75]],
            "effects": [[1.0, 0.0], [0.0, 1.0]], "unit": [1.0, 1.0]}}))
        proc = subprocess.run(
            [sys.executable, "-c", SHARP_ROUTE_IMPORTS, str(coarse), str(sharp),
             str(plain)],
            env=package_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        for path in (coarse, sharp, plain):
            payload = json.loads(Path(str(path) + ".out").read_text())
            assert payload["spekkens_noncontextual"] == "yes"
        payload = json.loads(Path(str(plain) + ".embed").read_text())
        assert payload["verdict"] == "embeddable"


def cli_run(path, argv) -> tuple:
    """Exit code, standard output and standard error of one `main` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([argv[0], str(path), *argv[1:]])
    return rc, out.getvalue(), err.getvalue()


def require_one_line_refusal(rc, out, err, what) -> None:
    require(rc == 2, f"{what}: exit {rc}, stderr {err!r}")
    require(out == "", f"{what}: printed {out!r}")
    require(err.startswith("error: ") and err.count("\n") == 1,
            f"{what}: stderr {err!r}")
    require("Traceback" not in err, f"{what}: traceback")


# The two documents that used to be classified with a NaN entry read as 0,
# here with the entry at 0: each test plants a non-finite number.
FINITE_GPT = {"kind": "gpt", "gpt": {"dim": 2, "states": [[0.0, 1.0]],
                                     "effects": [[1.0, 0.0], [0.0, 1.0]],
                                     "unit": [0.0, 1.0]}}
FINITE_TABLE = {"kind": "empirical",
                "model": {"measurements": [{"label": "A", "outcomes": [0, 1]}],
                          "contexts": [["A"]],
                          "tables": {"A": {"0": 0.0, "1": 1.0}}}}


class TestNonFiniteFrontDoor:
    """NaN and infinite entries exit 2 with one line, never a verdict.

    Written with `oracles.require` instead of bare asserts, so that it
    also tests something when pytest runs under ``python -O``.
    """

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("command", ["classify", "embed"])
    def test_gpt_entry(self, tmp_path, command, bad):
        for vector in ("states", "effects", "unit"):
            doc = json.loads(json.dumps(FINITE_GPT))
            gpt = doc["gpt"]
            (gpt[vector] if vector == "unit" else gpt[vector][0])[0] = bad
            path = tmp_path / "doc.json"
            path.write_text(json.dumps(doc))
            rc, out, err = cli_run(path, [command])
            require_one_line_refusal(rc, out, err, f"{command} {vector} {bad}")
            require("finite" in err, err)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_empirical_table_entry(self, tmp_path, bad):
        doc = json.loads(json.dumps(FINITE_TABLE))
        doc["model"]["tables"]["A"]["0"] = bad
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        for argv in (["classify"], ["classify", "--emit-certificate"]):
            rc, out, err = cli_run(path, argv)
            require_one_line_refusal(rc, out, err, f"table entry {bad}")
            require("not finite" in err, err)

    @pytest.mark.parametrize("angles", ["inf,0,0,0", "0,nan,0,0", "0,0,-inf,0", "1e400,0,0,0"])
    def test_chsh_angles(self, angles):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["chsh", "--angles", angles])
        require_one_line_refusal(rc, out.getvalue(), err.getvalue(), f"--angles {angles}")
        require("--angles" in err.getvalue() and "finite" in err.getvalue(), err.getvalue())

    def test_finite_documents_classify(self, tmp_path):
        for doc in (FINITE_GPT, FINITE_TABLE):
            path = tmp_path / "doc.json"
            path.write_text(json.dumps(doc))
            rc, out, err = cli_run(path, ["classify"])
            require(rc == 0 and err == "", f"{doc['kind']}: exit {rc}, {err!r}")


def malformed_field_document(fault: str) -> dict:
    """A valid empirical or quantum document with one field of the wrong type."""
    if fault.startswith("quantum"):
        doc = classify_base_document("quantum")
        if fault == "quantum-label-list":
            doc["contexts"][0][0]["label"] = ["Z"]
        else:
            doc["sharing"] = {"Z": []}
        return doc
    doc = pr_box_doc()
    model = doc["model"]
    if fault == "tables-list":
        model["tables"] = list(model["tables"].values())
    elif fault == "table-int":
        model["tables"]["A0,B0"] = 5
    elif fault == "label-list":
        model["measurements"][0]["label"] = ["A0"]
    else:
        model["measurements"][0]["outcomes"] = [{}, []]
    return doc


def string_field_documents(fault: str) -> tuple:
    """A valid document, the same with a string where it has a list, and the field.

    Read one character at a time, each string would pass for the list of
    its characters: the contexts ``A`` and ``B``, the context {A, B}, or
    the outcomes ``'0'`` and ``'1'``.
    """
    if fault == "quantum-outcomes-string":
        good = classify_base_document("quantum")
        good["contexts"][0][0]["outcomes"] = ["0", "1"]
        bad = json.loads(json.dumps(good))
        bad["contexts"][0][0]["outcomes"] = "01"
        return good, bad, "outcomes of measurement 'Z'"
    half = {"0": "1/2", "1": "1/2"}
    model = {"measurements": [{"label": "A", "outcomes": [0, 1]},
                              {"label": "B", "outcomes": [0, 1]}],
             "contexts": [["A"], ["B"]], "tables": {"A": half, "B": half}}
    if fault == "context-string":
        model["contexts"] = [["A", "B"]]
        model["tables"] = {"A,B": {"0,0": "1/2", "1,1": "1/2"}}
    elif fault == "outcomes-string":
        model["measurements"][0]["outcomes"] = ["0", "1"]
    good = {"kind": "empirical", "model": model}
    bad = json.loads(json.dumps(good))
    if fault == "contexts-string":
        bad["model"]["contexts"] = "AB"
        return good, bad, "'contexts' must be a list"
    if fault == "context-string":
        bad["model"]["contexts"] = ["AB"]
        return good, bad, "a context must be a list"
    bad["model"]["measurements"][0]["outcomes"] = "01"
    return good, bad, "outcomes of measurement 'A' must be a list"


class TestMalformedFieldRefusals:
    """A field of the wrong JSON type exits 2 with one line naming it.

    A string where a list belongs is refused too, where reading it one
    character at a time once gave a document of other contexts or
    outcomes that exited 0.  Written with `oracles.require` instead of
    bare asserts, so that it also tests something when pytest runs under
    ``python -O``.
    """

    @pytest.mark.parametrize("fault, field", [
        ("tables-list", "'tables'"), ("table-int", "table 'A0,B0'"),
        ("label-list", "measurement label ['A0']"),
        ("outcomes-unhashable", "outcomes of measurement 'A0'"),
        ("quantum-label-list", "measurement label ['Z']"),
        ("quantum-sharing-list", "sharing"),
    ])
    @pytest.mark.parametrize("command", ["classify", "validate", "embed"])
    def test_exits_two_naming_the_field(self, tmp_path, command, fault, field):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(malformed_field_document(fault)))
        rc, out, err = cli_run(path, [command])
        require_one_line_refusal(rc, out, err, f"{command} {fault}")
        require(field in err, f"{command} {fault}: {err!r}")

    @pytest.mark.parametrize("fault", ["contexts-string", "context-string",
                                       "outcomes-string", "quantum-outcomes-string"])
    @pytest.mark.parametrize("command", ["classify", "validate"])
    def test_a_string_is_not_read_as_a_list(self, tmp_path, command, fault):
        good, bad, field = string_field_documents(fault)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(good))
        rc, _, err = cli_run(path, [command])
        require(rc == 0, f"{command} {fault}: the list form exits {rc}, {err!r}")
        path.write_text(json.dumps(bad))
        rc, out, err = cli_run(path, [command])
        require_one_line_refusal(rc, out, err, f"{command} {fault}")
        require(field in err, f"{command} {fault}: {err!r}")

    @pytest.mark.parametrize("doc", [
        {"kind": "empirical", "model": {"measurements": [], "contexts": [], "tables": {}}},
        {"kind": "quantum", "state": {"rows": 2, "cols": 2, "re": [1, 0, 0, 0]},
         "contexts": []},
    ], ids=["empirical", "quantum"])
    @pytest.mark.parametrize("command", ["classify", "validate"])
    def test_no_context_is_refused(self, tmp_path, command, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        rc, out, err = cli_run(path, [command])
        require_one_line_refusal(rc, out, err, f"{command} {doc['kind']}")
        require("at least one context" in err, f"{command}: {err!r}")


class TestNonIntegerGptFields:
    """Float or boolean sharp-context indices and dims are refused, not
    truncated: exit 2 with one line."""

    @pytest.mark.parametrize("field, value", [
        ("sharp_contexts", [[0.5, 1]]), ("sharp_contexts", [[True, False]]),
        ("sharp_contexts", [[0, 1.0]]), ("dim", 2.7), ("dim", 2.0),
        ("dim", True)])
    @pytest.mark.parametrize("command", ["classify", "embed"])
    def test_refused(self, tmp_path, command, field, value):
        gpt = {"dim": 2, "states": [[1.0, 0.0], [0.5, 0.5]],
               "effects": [[1.0, 0.0], [0.0, 1.0]], "unit": [1.0, 1.0],
               "sharp_contexts": [[0, 1]]}
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"kind": "gpt", "gpt": gpt}))
        rc, out, err = cli_run(path, [command])
        require(rc == 0, f"valid document: exit {rc}, {err!r}")
        gpt[field] = value
        path.write_text(json.dumps({"kind": "gpt", "gpt": gpt}))
        rc, out, err = cli_run(path, [command])
        require_one_line_refusal(rc, out, err, f"{command} {field} {value}")
        require("not an integer" in err, err)


def oversized_literal_documents(value: str) -> dict:
    """One document per exact-number reader, with ``value`` planted in it."""
    return {
        "table entry": (["classify"], {
            "kind": "empirical", "model": {
                "measurements": [{"label": "A", "outcomes": [0, 1]}],
                "contexts": [["A"]], "tables": {"A": {"0": value, "1": "0"}}}}),
        "prep r": (["classify"], {"kind": "prep-ensemble", "r": value}),
        "pusey probability": (["pusey"], {
            "preps": {"P": {"M": [value, "0"]}, "Q": {"M": ["1/2", "1/2"]}}}),
        "pusey weight": (["pusey"], {
            "preps": {"P": {"M": ["1", "0"]}, "Q": {"M": ["1/2", "1/2"]}},
            "equivalences": [[{"P": value}, {"Q": "1"}]]}),
        "bell weight": (["convert-bell"], {
            "weights": {"a": value, "b": "1"}, "edges": [["a", "b"]],
            "projectors": {}, "dim": 3}),
    }


class TestOversizedLiterals:
    """Exact literals beyond the digit and exponent bound exit 2 at once."""

    @pytest.mark.parametrize("value", ["1e30000000", "1e-30000000"])
    def test_each_reader_refuses_before_building(self, tmp_path, value):
        for what, (argv, doc) in oversized_literal_documents(value).items():
            path = tmp_path / "doc.json"
            path.write_text(json.dumps(doc))
            start = time.perf_counter()
            rc, out, err = cli_run(path, argv)
            elapsed = time.perf_counter() - start
            require_one_line_refusal(rc, out, err, what)
            require("exceeds 1000 digits" in err, f"{what}: {err!r}")
            require(elapsed < 1.0, f"{what}: {elapsed:.2f} s")

    def test_six_ensemble_argument(self, capsys):
        require(main(["pusey", "--six-ensemble", "1e-30000000"]) == 2, "exit code")
        require("exceeds 1000 digits" in capsys.readouterr().err, "message")

    def test_literals_within_the_bound_are_read_exactly(self):
        require(rational_literal("1e-1000", "x") == Fraction(1, 10 ** 1000), "1e-1000")
        require(rational_literal("-3/4", "x") == Fraction(-3, 4), "-3/4")
        require(rational_literal("1" * 1000, "x") == int("1" * 1000), "1000 digits")
        oversized, not_exact, bad = ("exceeds 1000 digits", "must be an integer or an exact "
                                     "string", "bad x")
        for value, message in (("1" * 1001, oversized), ("1e1001", oversized),
                               ("0.5e-1_001", oversized), (True, not_exact), (0.5, not_exact),
                               (None, not_exact), ("1/0", bad), ("x", bad)):
            with pytest.raises(ValueError, match=message):
                rational_literal(value, "x")


class TestBehaviourLiterals:
    """The two-party behaviour reader takes its exact entries through
    `rational_literal`, so the digit and exponent bound holds there too."""

    @staticmethod
    def doc(value) -> dict:
        return {"nX": 1, "nY": 1, "nA": 2, "nB": 2,
                "p": {"0,0|0,0": value, "1,1|0,0": "1"}}

    @pytest.mark.parametrize("value", ["1e-1500", "1e1500", "1" * 1500])
    def test_oversized_literal_refused(self, value):
        with pytest.raises(ValueError, match="exceeds 1000 digits"):
            behaviour_from_json(self.doc(value))

    def test_exact_entries_within_the_bound_are_read(self):
        b = behaviour_from_json({"nX": 1, "nY": 1, "nA": 2, "nB": 2,
                                 "p": {"0,0|0,0": "1/4", "0,1|0,0": "0.25",
                                       "1,0|0,0": 0, "1,1|0,0": "1/2"}})
        table = b.tables[("A0", "B0")]
        require(table[(0, 1)] == Fraction(1, 4) and table[(1, 0)] == 0,
                f"entries read as {table}")
        for bad in ("1/0", "x", None, True):
            with pytest.raises(ValueError, match="probability entr"):
                behaviour_from_json(self.doc(bad))


def classify_base_document(kind: str) -> dict:
    """A small valid `classify` document of each kind."""
    if kind == "empirical":
        return pr_box_doc()
    if kind == "quantum":
        projectors = pvm_from_observable(PAULIS["Z"], "Z").projectors
        return {"kind": "quantum", "state": matrix_to_json(np.eye(2) / 2),
                "contexts": [[{"label": "Z", "projectors": [
                    matrix_to_json(p) for p in projectors]}]]}
    if kind == "gpt":
        return {"kind": "gpt", "gpt": {
            "dim": 2, "states": [[1.0, 0.0], [0.5, 0.5]],
            "effects": [[1.0, 0.0], [0.0, 1.0]], "unit": [1.0, 1.0],
            "sharp_contexts": [[0, 1]]}}
    return {"kind": "prep-ensemble", "r": "1/2", "axis": [0.0, 0.0, 1.0]}


# Paths to required keys, and to numeric entries, of each base document.
CLASSIFY_KEYS = {
    "empirical": [("model",), ("model", "measurements"), ("model", "contexts"),
                  ("model", "tables"), ("model", "measurements", 0, "outcomes")],
    "quantum": [("state",), ("contexts",), ("state", "re"), ("state", "rows"),
                ("contexts", 0, 0, "label"), ("contexts", 0, 0, "projectors")],
    "gpt": [("gpt",), ("gpt", "dim"), ("gpt", "states"), ("gpt", "effects"),
            ("gpt", "unit")],
    "prep-ensemble": [("r",)],
}
NON_FINITE = (float("nan"), float("inf"), -float("inf"))
# Paths to entries of each base document, each with the faulty values a
# "bad-entry" fault plants there: a non-finite number anywhere; what is no
# JSON number in a preparation ensemble; a quantum state's `re` or `im` of
# the wrong length.
CLASSIFY_ENTRIES = {
    "empirical": [(("model", "tables", "A0,B0", "0,0"), NON_FINITE),
                  (("model", "tables", "A1,B1", "1,0"), NON_FINITE)],
    "quantum": [(("state", "re", 0), NON_FINITE), (("state", "im", 3), NON_FINITE),
                (("state", "rows"), NON_FINITE + (0,)),
                (("contexts", 0, 0, "projectors", 0, "re", 0), NON_FINITE),
                (("contexts", 0, 0, "projectors", 1, "im", 1), NON_FINITE),
                (("state", "re"), ([0.5, 0, 0], [0.5, 0, 0, 0.5, 0])),
                (("state", "im"), ([0.0], []))],
    "gpt": [(("gpt", "states", 0, 0), NON_FINITE), (("gpt", "effects", 1, 1), NON_FINITE),
            (("gpt", "unit", 0), NON_FINITE), (("gpt", "dim"), NON_FINITE)],
    "prep-ensemble": [(("r",), NON_FINITE)]
                     + [(("axis", k), NON_FINITE + (None, "a", True)) for k in (0, 2)],
}
CLASSIFY_FAULTS = ("not-json", "not-object", "unknown-kind", "missing-kind",
                   "missing-key", "bad-entry")


def oversized_document(n: int, exact: bool) -> dict:
    """An n-cycle of binary measurements: 2**n global assignments."""
    labels = [f"M{i}" for i in range(n)]
    value = "1/4" if exact else 0.25
    return {"kind": "empirical", "model": {
        "measurements": [{"label": m, "outcomes": [0, 1]} for m in labels],
        "contexts": [[labels[i], labels[(i + 1) % n]] for i in range(n)],
        "tables": {f"{labels[i]},{labels[(i + 1) % n]}":
                   {f"{a},{b}": value for a in (0, 1) for b in (0, 1)}
                   for i in range(n)}}}


def reach(doc, keys):
    """The value at the path ``keys`` of ``doc``."""
    for key in keys:
        doc = doc[key]
    return doc


@st.composite
def classify_documents(draw):
    """(fault, text of the document file): a valid `classify` document, an
    oversized one, or one with a fault planted."""
    fault = draw(st.sampled_from(("valid", "oversized") + CLASSIFY_FAULTS))
    if fault == "not-json":
        return fault, draw(st.sampled_from(
            ["", "{", "[1,", '{"kind": }', "{'kind': 'gpt'}", "nul", "1/2",
             '{"kind": "gpt",}']))
    if fault == "not-object":
        return fault, json.dumps(draw(st.sampled_from(
            [5, [], "gpt", None, [{"kind": "gpt"}], 1.5, float("nan")])))
    if fault == "oversized":
        n = draw(st.integers(21, 24))
        return fault, json.dumps(oversized_document(n, draw(st.booleans())))
    kind = draw(st.sampled_from(sorted(CLASSIFY_KEYS)))
    doc = classify_base_document(kind)
    if fault == "unknown-kind":
        doc["kind"] = draw(st.sampled_from(
            [None, 5, "", "Empirical", "bell", [], {}, True]))
    elif fault == "missing-kind":
        del doc["kind"]
    elif fault == "missing-key":
        *parents, last = draw(st.sampled_from(CLASSIFY_KEYS[kind]))
        del reach(doc, parents)[last]
    elif fault == "bad-entry":
        (*parents, last), values = draw(st.sampled_from(CLASSIFY_ENTRIES[kind]))
        reach(doc, parents)[last] = draw(st.sampled_from(values))
    return fault, json.dumps(doc)


class TestClassifyFrontDoorFuzz:
    """`classify` exits 0 or 2, with one line on a fault and never a traceback."""

    @settings(max_examples=200, deadline=None)
    @given(drawn=classify_documents())
    def test_exit_codes_and_one_line(self, tmp_path_factory, drawn):
        fault, text = drawn
        path = tmp_path_factory.mktemp("classify") / "doc.json"
        path.write_text(text)
        t0 = time.perf_counter()
        rc, out, err = cli_run(path, ["classify", "--emit-certificate"])
        elapsed = time.perf_counter() - t0
        assert "Traceback" not in err
        if fault == "valid":
            assert rc == 0, err
            assert err == ""
        elif fault == "oversized":
            assert rc == 0, err
            payload = json.loads(out)
            assert payload["ks_noncontextual"] == "undecided"
            assert payload["notes"][0].startswith(
                "global-section solver skipped: ")
            assert elapsed < 1.0
        else:
            assert rc == 2, (fault, text, err)
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1, err


def package_env() -> dict:
    """The environment with this checkout's package first on ``PYTHONPATH``."""
    src = str(Path(contextuality.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


STARTUP_IMPORTS = """
import json, sys

import contextuality.cli

print(json.dumps(sorted(sys.modules)))
"""


class TestStartupImports:
    """Importing the CLI loads every package module and generates no dataclass code."""

    def test_cli_import_loads_the_package_without_dataclasses(self):
        proc = subprocess.run([sys.executable, "-c", STARTUP_IMPORTS], env=package_env(),
                              capture_output=True, text=True, timeout=120)
        require(proc.returncode == 0, proc.stderr)
        loaded = set(json.loads(proc.stdout))
        require("dataclasses" not in loaded, "importing the CLI imported dataclasses")
        package = {f"contextuality.{m.name}" for m in pkgutil.iter_modules(contextuality.__path__)}
        require("contextuality.record" in package and "contextuality.cli" in package,
                f"package modules: {sorted(package)}")
        require(package <= loaded, f"not loaded: {sorted(package - loaded)}")


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=5)
                   | st.lists(st.text(max_size=4), max_size=5)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=5)),
    max_leaves=25)

OP_PAYLOADS = """
import contextlib, io, json, sys
from pathlib import Path

sys.path.insert(0, sys.argv[1])
import workloads
from contextuality import cli


def require_json(value, where):
    kind = type(value)
    if kind is dict:
        for key, inner in value.items():
            if type(key) is not str:
                sys.exit(f"{where}: key {key!r} is not a string")
            require_json(inner, where)
    elif kind is list:
        for inner in value:
            require_json(inner, where)
    elif kind not in (str, int, float, bool) and value is not None:
        sys.exit(f"{where}: {value!r} is a {kind.__name__}, not a JSON value")


runs = json.loads(sys.argv[3])
for name, generate in sorted(workloads.GENERATORS.items()):
    for index, op in enumerate(generate(1, 1.0)):
        argv = op.argv
        if op.doc is not None:
            path = Path(sys.argv[2]) / f"{name}-{index}.json"
            path.write_text(json.dumps(op.doc))
            argv = [str(path) if a == "{doc}" else a for a in argv]
        runs.append(argv)
payloads = []
emit = cli._emit
cli._emit = lambda payload, args: payloads.append(payload) or emit(payload, args)
for argv in runs:
    out, before = io.StringIO(), len(payloads)
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0 or len(payloads) != before + 1:
        sys.exit(f"{argv}: exit {code}")
    require_json(payloads[-1], argv)
    expected = json.dumps(payloads[-1], sort_keys=True, indent=2)
    if cli._json_text(payloads[-1]) != expected:
        sys.exit(f"{argv}: the writer's bytes differ from json.dumps")
    if "text" not in argv and out.getvalue() != expected + "\\n":
        sys.exit(f"{argv}: the printed report differs from json.dumps")
print(len(payloads))
"""


OP_DIGEST = """
import contextlib, hashlib, io, json, sys
from pathlib import Path

sys.path.insert(0, sys.argv[1])
import workloads
from contextuality import cli

digest = hashlib.sha256()
for name in ("cli-mix", "ladder"):
    for index, op in enumerate(workloads.GENERATORS[name](int(sys.argv[3]), 1.0)):
        argv = op.argv
        if op.doc is not None:
            path = Path(sys.argv[2]) / f"{name}-{index}.json"
            path.write_text(json.dumps(op.doc))
            argv = [str(path) if a == "{doc}" else a for a in argv]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        digest.update(f"{name} {index} exit {code}\\n{out.getvalue()}".encode())
print(digest.hexdigest())
"""


class TestHashSeedDeterminism:
    """Every cli-mix and ladder operation of one seed prints the same bytes,
    with the same exit codes, under two string-hash seeds.  The benchmark
    compares outputs only between passes of one process, whose hash seed is
    fixed, so output that followed set or dict order would pass there."""

    def test_bench_ops_under_two_hash_seeds(self, tmp_path):
        bench = Path(__file__).resolve().parents[1] / "bench"
        digests = []
        for hash_seed in ("1", "2"):
            env = {**package_env(), "PYTHONHASHSEED": hash_seed}
            proc = subprocess.run([sys.executable, "-c", OP_DIGEST, str(bench), str(tmp_path),
                                   "1"], env=env, capture_output=True, text=True, timeout=300)
            require(proc.returncode == 0, proc.stderr[-2000:])
            digests.append(proc.stdout.strip())
        require(len(digests[0]) == 64 and digests[0] == digests[1],
                f"outputs differ between hash seeds: {digests}")


class TestJsonWriter:
    """`cli._json_text` writes ``json.dumps(v, sort_keys=True, indent=2)``'s bytes."""

    @settings(max_examples=300, deadline=None)
    @given(value=json_values)
    @example(value=["\"\\/\b\f\n\r\t\x00\x1f\x7f", "é€😀 ", "\ud83d", ""])
    @example(value={"b": [float("nan"), float("inf"), -float("inf"), -0.0, 1e300, 10**40],
                    "a": [True, False, None, {}, [], [[]], {"": {}}], "\x01é": "x"})
    @example(value=[])
    @example(value={})
    @example(value="\u0000")
    @example(value=1.0)
    def test_against_json_dumps(self, value):
        expected = json.dumps(value, sort_keys=True, indent=2)
        require(cli._json_text(value) == expected, f"{value!r}")

    def test_every_benchmark_op_payload(self, tmp_path):
        """The payload `_emit` receives is a JSON value that the writer prints
        as `json.dumps` would: for every benchmark operation, and in both
        formats for the subcommands and documents the benchmark skips."""
        graph = pentagon_graph_doc()
        graph["weights"]["P0"] = "3/2"
        docs = {"gpt": {"kind": "gpt", "gpt": kcbs_gpt_json(np.eye(3, dtype=complex) / 3)},
                "box": pr_box_doc(), "prep": {"r": "2/3"}, "graph": graph}
        for name, doc in docs.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        skipped = [["validate", "gpt"], ["validate", "box"], ["embed", "gpt"],
                   ["pusey", "--six-ensemble", "1/2"], ["prep-nc", "prep"],
                   ["convert-bell", "graph"], ["kcbs", "--emit-certificate"], ["chsh"],
                   ["pm-square", "--trials", "1"],
                   ["qsl", "run", "--prep", "X:1", "--gates", "Z", "--measure", "X",
                    "--shots", "500"]]
        runs = [[str(tmp_path / f"{a}.json") if a in docs else a for a in argv]
                + ["--format", fmt] for argv in skipped for fmt in ("json", "text")]
        bench = Path(__file__).resolve().parents[1] / "bench"
        proc = subprocess.run([sys.executable, "-c", OP_PAYLOADS, str(bench), str(tmp_path),
                               json.dumps(runs)],
                              env=package_env(), capture_output=True, text=True, timeout=300)
        require(proc.returncode == 0, proc.stderr[-2000:])
        require(int(proc.stdout) > 100 + len(runs), f"only {proc.stdout.strip()} payloads")


class TestUnwritableOut:
    """An ``--out`` that cannot be written is an input error: exit 2, one line."""

    @pytest.mark.parametrize("command", [["kcbs"], ["classify", "{doc}"]], ids=["kcbs", "classify"])
    @pytest.mark.parametrize("target", ["directory", "missing-parent"])
    def test_one_line_refusal(self, tmp_path, command, target):
        doc = tmp_path / "pr.json"
        doc.write_text(json.dumps(pr_box_doc()))
        out_path = tmp_path if target == "directory" else tmp_path / "missing" / "out.json"
        argv = [str(doc) if a == "{doc}" else a for a in command] + ["--out", str(out_path)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        require_one_line_refusal(rc, out.getvalue(), err.getvalue(), f"{command[0]} {target}")
        require(str(out_path) in err.getvalue(), f"the path is not named: {err.getvalue()!r}")


DEEP_ARRAY = "[" * 5000 + "]" * 5000


class TestDeeplyNestedDocuments:
    """A document nested past the interpreter's recursion limit is an input
    error, whether the reader or the report writer meets it: exit 2, one
    line saying so, never a traceback."""

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("command", ["validate", "classify", "embed", "pusey", "prep-nc",
                                         "convert-bell"])
    @pytest.mark.parametrize("document", ["array", "model"])
    def test_refused_when_read(self, tmp_path, document, command, fmt):
        path = tmp_path / "deep.json"
        path.write_text(DEEP_ARRAY if document == "array"
                        else '{"kind": "empirical", "model": ' + DEEP_ARRAY + "}")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([command, str(path), "--format", fmt])
        require_one_line_refusal(rc, out.getvalue(), err.getvalue(), f"{command} {document}")
        require("nested too deeply" in err.getvalue(), err.getvalue())

    @staticmethod
    def classify_claims(tmp_path, depth: int, fmt: str) -> tuple:
        """Classify a document whose claims nest ``depth`` containers deep,
        the claims object itself the first: exit code, stdout, stderr."""
        path = tmp_path / "claims.json"
        path.write_text('{"kind": "prep-ensemble", "r": "1/2", "claims": {"x": '
                        + "[" * (depth - 1) + "]" * (depth - 1) + "}}")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["classify", str(path), "--format", fmt])
        return rc, out.getvalue(), err.getvalue()

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_claims_too_deep_to_write(self, tmp_path, fmt):
        """The claims are copied into the report, so claims 600 lists deep,
        past `MAX_CLAIMS_DEPTH`, are refused when read, in either format."""
        rc, out, err = self.classify_claims(tmp_path, 601, fmt)
        require_one_line_refusal(rc, out, err, f"claims {fmt}")
        require("nested too deeply" in err, err)

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_claims_one_level_past_the_bound(self, tmp_path, fmt):
        rc, out, err = self.classify_claims(tmp_path, MAX_CLAIMS_DEPTH + 1, fmt)
        require_one_line_refusal(rc, out, err, f"claims {fmt}")
        require(f"claims are nested too deeply: more than {MAX_CLAIMS_DEPTH} levels" in err, err)

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_claims_at_the_bound_are_classified(self, tmp_path, fmt):
        rc, out, err = self.classify_claims(tmp_path, MAX_CLAIMS_DEPTH, fmt)
        require(rc == 0 and err == "", f"exit {rc}: {err!r}")
        if fmt == "text":
            require(out.count("\n") > MAX_CLAIMS_DEPTH, "the claims were not written")
            return
        payload = json.loads(out)
        claims = json.loads((tmp_path / "claims.json").read_text())["claims"]
        require(payload["claims"] == claims, "the claims did not come back")
        require(cli._json_text(payload) == json.dumps(payload, sort_keys=True, indent=2),
                "the writer differs from json.dumps")
        require(out == cli._json_text(payload) + "\n", "stdout is not the writer's text")


class TestModuleEntryPoint:
    """``python -m contextuality.cli`` runs `main` as users do and exits with its code."""

    def test_kcbs_prints_the_in_process_bytes(self):
        proc = subprocess.run([sys.executable, "-m", "contextuality.cli", "kcbs"],
                              env=package_env(), capture_output=True, timeout=300)
        require(proc.returncode == 0, proc.stderr.decode()[-2000:])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            require(main(["kcbs"]) == 0, "kcbs failed in process")
        require(proc.stdout == out.getvalue().encode(), "the two runs print different bytes")

    def test_malformed_document_exits_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        proc = subprocess.run([sys.executable, "-m", "contextuality.cli", "validate", str(path)],
                              env=package_env(), capture_output=True, text=True, timeout=300)
        require_one_line_refusal(proc.returncode, proc.stdout, proc.stderr, "python -m")


def quantum_doc(state, contexts) -> dict:
    """The quantum document of a state and contexts of `ProjectiveContext` measurements."""
    return {"kind": "quantum", "state": matrix_to_json(state),
            "contexts": [[{"label": pc.label, "outcomes": list(pc.outcomes),
                           "projectors": [matrix_to_json(p) for p in pc.projectors]}
                          for pc in ctx] for ctx in contexts]}


class TestNamedSectionsMatchClassify:
    """`kcbs` and `pm-square` print the assignment section `classify` finds on their documents."""

    @staticmethod
    def classify_section(tmp_path, doc) -> dict:
        payload = run_json(tmp_path, ["classify", write_doc(tmp_path, doc), "--emit-certificate"])
        section = next(c for c in payload["certificates"] if c["role"] == "ks")
        return {k: v for k, v in section.items() if k != "role"}

    def test_kcbs(self, tmp_path):
        _, observables, _ = kcbs_construction()
        pvms = [pvm_from_observable(a, f"A{j}") for j, a in enumerate(observables)]
        contexts = [[pvms[j], pvms[(j + 1) % 5]] for j in range(5)]
        doc = quantum_doc(np.diag([1.0, 0.0, 0.0]), contexts)
        [section] = run_json(tmp_path, ["kcbs", "--emit-certificate"])["certificates"]
        require(section == self.classify_section(tmp_path, doc), "the sections differ")

    def test_pm_square(self, tmp_path):
        payload = run_json(tmp_path, ["pm-square", "--trials", "3", "--seed", "11",
                                      "--emit-certificate"])
        grid, eye = peres_mermin_square(), np.eye(4)
        rows = [[projective_context(label, [(eye - p) / 2, (eye + p) / 2], [-1, 1])
                 for p, label in zip(row, labels)] for row, labels in zip(grid, PM_LABELS)]
        contexts = rows + [list(col) for col in zip(*rows)]
        rng = np.random.default_rng(11)
        for section in payload["certificates"]:
            doc = quantum_doc(random_density(4, rng), contexts)
            require(section == self.classify_section(tmp_path, doc), "the sections differ")
            require(section["verdict"] == "infeasible", section["verdict"])


def write_doc(tmp_path, doc) -> str:
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return str(path)


LABELLED_DOC = {"kind": "empirical", "model": {
    "measurements": [{"label": "Aψ", "outcomes": [0, 1]}, {"label": "B", "outcomes": [0, 1]}],
    "contexts": [["Aψ", "B"]],
    "tables": {"Aψ,B": {"0,0": "1/2", "1,1": "1/2"}}}}


class TestDocumentEncoding:
    """Documents are read as JSON bytes, UTF-8, -16 or -32, whatever the locale's encoding."""

    def test_utf8_label_under_an_ascii_locale(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_bytes(json.dumps(LABELLED_DOC, ensure_ascii=False).encode("utf-8"))
        out = tmp_path / "report.txt"
        env = {**package_env(), "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
        env.pop("LANG", None)
        proc = subprocess.run([sys.executable, "-m", "contextuality.cli", "classify", str(path),
                               "--emit-certificate", "--format", "text", "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=120)
        require(proc.returncode == 0, proc.stderr)
        require("Aψ" in out.read_text(encoding="utf-8"), "the label is not in the report")

    def test_utf8_label_to_stdout_under_an_ascii_locale(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_bytes(json.dumps(LABELLED_DOC, ensure_ascii=False).encode("utf-8"))
        env = {**package_env(), "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
        env.pop("LANG", None)
        proc = subprocess.run([sys.executable, "-m", "contextuality.cli", "classify", str(path),
                               "--emit-certificate", "--format", "text"],
                              env=env, capture_output=True, timeout=120)
        require(proc.returncode == 0, proc.stderr.decode("utf-8", "replace"))
        out = tmp_path / "report.txt"
        require(main(["classify", str(path), "--emit-certificate", "--format", "text",
                      "--out", str(out)]) == 0, "the report was refused")
        require(proc.stdout == out.read_bytes(), "stdout differs from the --out report")
        require("Aψ" in proc.stdout.decode("utf-8"), "the label is not in the report")

    @pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16", "utf-16-be", "utf-32",
                                          "utf-32-le"])
    def test_every_json_encoding_reads_alike(self, tmp_path, encoding):
        outs = []
        for name, coding in (("utf-8", "utf-8"), (encoding, encoding)):
            path = tmp_path / f"{name}.json"
            path.write_bytes(json.dumps(LABELLED_DOC, ensure_ascii=False).encode(coding))
            out = tmp_path / f"{name}.out"
            require(main(["classify", str(path), "--emit-certificate", "--out", str(out)]) == 0,
                    f"{name} was refused")
            outs.append(out.read_bytes())
        require(outs[0] == outs[1], f"{encoding} reads differently")

    def test_undecodable_bytes_exit_two(self, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_bytes(b'{"kind": "empirical", "label": "\xff\xfe\xfd"}')
        require(main(["classify", str(path)]) == 2, "not refused")
        err = capsys.readouterr().err
        require("can't decode" in err, "the fault is not named")
        require(str(path) in err, "the path is not named")
