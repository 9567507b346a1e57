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
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import time
from fractions import Fraction

from contextuality import cli
from contextuality.cli import build_parser, main
from contextuality.embedding import gpt_to_json, sharp_gpt_from_quantum
from contextuality.quantum import kcbs_construction, matrix_to_json, pvm_from_observable
from contextuality.sheaf import MAX_ASSIGNMENTS
from oracles import ld_vertex_boxes, random_box


def kcbs_gpt_json(state):
    _, observables, _ = kcbs_construction()
    contexts = []
    for j in range(5):
        k = (j + 1) % 5
        contexts.append([pvm_from_observable(observables[j], f"A{j}"),
                         pvm_from_observable(observables[k], f"A{k}")])
    return gpt_to_json(sharp_gpt_from_quantum([state], contexts))


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
            monkeypatch.setattr(exactlp, "check_farkas", lambda *args: False)
        else:
            def unbounded(a_rows, b):
                raise ArithmeticError("forced for the exit-code test")

            monkeypatch.setattr(sheaf, "solve_eq_nonneg_pruned", unbounded)
        doc = tmp_path / "pr.json"
        doc.write_text(json.dumps(pr_box_doc()))
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

    def test_search_route_reports_restarts(self, tmp_path):
        data = {
            "dim": 2,
            "states": [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]],
            "effects": [[1.0, 0.0], [0.0, 1.0]],
            "unit": [1.0, 1.0],
            "sharp_contexts": [],
        }
        doc = tmp_path / "g.json"
        doc.write_text(json.dumps(data))
        payload = run_json(tmp_path, ["embed", str(doc), "--restarts", "4"])
        assert payload["route"] == "heuristic-search"
        assert payload["verdict"] == "embeddable"
        assert "restarts_used" in payload


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
                weights = [Fraction(w) for w in cert["weights"]]
                assert len(weights) == len(vertices) and min(weights) >= 0
                for c in p:
                    assert sum(w * v[c] for w, v in zip(weights, vertices)) == p[c]
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
        # Small enough that every table still sums to 1 within 1e-12.
        for t in tables.values():
            bound = 0.9e-12 / len(t)
            for key in t:
                t[key] += draw(st.floats(-bound, bound))
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
        table[key] += draw(st.sampled_from((-1, 1))) * draw(st.floats(1e-9, 0.1))
        table[key] = max(table[key], 0.0)
        if sum(table.values()) == 1.0:
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
