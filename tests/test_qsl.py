"""Tests for the classical two-bit qubit simulator.

Verification strategy: outcome frequencies are checked against exact
Born-rule probabilities with binomial three-sigma bounds; same-basis
circuits must agree exactly; the vectorized runner is replayed shot by shot
through the scalar operations; the per-shot Philox streams are checked for
isolated regenerability.
"""

from __future__ import annotations

import contextlib
import io
import itertools

import numpy as np
import pytest

from contextuality import qsl
from contextuality.cli import main
from contextuality.exactlp import TooLargeError
from contextuality.qsl import (
    BASES,
    MAX_SHOTS,
    QslProgram,
    QslState,
    qsl_apply_swap,
    qsl_apply_x,
    qsl_apply_z,
    qsl_compare,
    qsl_measure,
    qsl_prepare,
    qsl_value_assignment,
    quantum_outcome_probs,
    run_program,
    shot_words,
    statistical_fidelity,
)
from oracles import _run_single

ALL_STATES = [QslState(x, p) for x in (0, 1) for p in (0, 1)]


def three_sigma(shots: int, p: float = 0.5) -> float:
    return 3.0 * np.sqrt(p * (1.0 - p) / shots)


class TestQslState:
    def test_bits_validated(self):
        with pytest.raises(ValueError):
            QslState(2, 0)
        with pytest.raises(ValueError):
            QslState(0, -1)

    def test_fields(self):
        s = QslState(1, 0)
        assert (s.x0, s.p0) == (1, 0)


class TestQslProgram:
    def test_shots_must_be_positive(self):
        with pytest.raises(ValueError):
            QslProgram(("Z", 0), shots=0)

    def test_shots_above_the_cap_are_refused_before_any_word_is_drawn(self, monkeypatch):
        def no_words(*args):
            raise AssertionError("shot_words was called")

        monkeypatch.setattr(qsl, "shot_words", no_words)
        assert QslProgram(("Z", 0), shots=MAX_SHOTS).shots == MAX_SHOTS
        with pytest.raises(TooLargeError, match=f"{MAX_SHOTS + 1} shots exceed {MAX_SHOTS}"):
            QslProgram(("Z", 0), shots=MAX_SHOTS + 1)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(err):
            rc = main(["qsl", "run", "--prep", "Z:0", "--measure", "Z",
                       "--shots", str(MAX_SHOTS + 1)])
        assert (rc, out.getvalue()) == (2, "")
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1

    def test_bad_basis_rejected(self):
        with pytest.raises(ValueError):
            QslProgram(("W", 0))
        with pytest.raises(ValueError):
            QslProgram(("Z", 0), measurement="Q")

    def test_bad_gate_rejected(self):
        with pytest.raises(ValueError):
            QslProgram(("Z", 0), gates=("H",))

    def test_swap_needs_extensions_flag(self):
        with pytest.raises(ValueError):
            QslProgram(("Z", 0), gates=("SWAP",))
        program = QslProgram(("Z", 0), gates=("SWAP",), extensions=True)
        assert program.gates == ("SWAP",)

    def test_seed_range(self):
        with pytest.raises(ValueError):
            QslProgram(("Z", 0), seed=-1)
        with pytest.raises(ValueError):
            QslProgram(("Z", 0), seed=2**64)


class TestPrepare:
    def test_z_fixes_computational_bit(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert qsl_prepare("Z", 0, rng).x0 == 0
            assert qsl_prepare("Z", 1, rng).x0 == 1

    def test_x_fixes_phase_bit(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert qsl_prepare("X", 1, rng).p0 == 1
            assert qsl_prepare("X", 0, rng).p0 == 0

    def test_y_fixes_parity(self):
        rng = np.random.default_rng(0)
        for value in (0, 1):
            for _ in range(50):
                s = qsl_prepare("Y", value, rng)
                assert s.x0 ^ s.p0 == value

    def test_free_bit_is_uniform(self):
        rng = np.random.default_rng(7)
        shots = 100_000
        mean = np.mean([qsl_prepare("Z", 0, rng).p0 for _ in range(shots)])
        assert abs(mean - 0.5) < 0.005


class TestGates:
    def test_x_gate_formula(self):
        assert qsl_apply_x(QslState(0, 1)) == QslState(1, 1)

    def test_x_gate_involution(self):
        for s in ALL_STATES:
            assert qsl_apply_x(qsl_apply_x(s)) == s

    def test_x_gate_leaves_phase_bit(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            s = QslState(int(rng.integers(0, 2)), int(rng.integers(0, 2)))
            assert qsl_apply_x(s).p0 == s.p0

    def test_z_gate_flips_phase_bit_only(self):
        for s in ALL_STATES:
            t = qsl_apply_z(s)
            assert t.p0 == s.p0 ^ 1
            assert t.x0 == s.x0
            assert qsl_apply_z(t) == s

    def test_swap_exchanges_bits(self):
        assert qsl_apply_swap(QslState(1, 0)) == QslState(0, 1)
        for s in ALL_STATES:
            assert qsl_apply_swap(s).x0 ^ qsl_apply_swap(s).p0 == s.x0 ^ s.p0


class TestMeasure:
    def test_z_returns_computational_bit(self):
        rng = np.random.default_rng(0)
        for p in (0, 1):
            outcome, _ = qsl_measure(QslState(1, p), "Z", rng)
            assert outcome == 1

    def test_y_outcome_and_parity_preserved(self):
        rng = np.random.default_rng(0)
        outcome, post = qsl_measure(QslState(0, 1), "Y", rng)
        assert outcome == 1
        assert post.x0 ^ post.p0 == 1

    def test_repeatability_all_bases(self):
        rng = np.random.default_rng(5)
        for s, basis in itertools.product(ALL_STATES, BASES):
            for _ in range(25):
                first, post = qsl_measure(s, basis, rng)
                second, _ = qsl_measure(post, basis, rng)
                assert first == second

    def test_z_measurement_randomizes_phase_bit(self):
        rng = np.random.default_rng(9)
        shots = 100_000
        mean = np.mean([qsl_measure(QslState(0, 0), "Z", rng)[1].p0
                        for _ in range(shots)])
        assert abs(mean - 0.5) < 0.005


class TestValueAssignment:
    def test_read_off_examples(self):
        assert qsl_value_assignment(QslState(0, 0)) == {"X": 0, "Y": 0, "Z": 0}
        assert qsl_value_assignment(QslState(1, 0)) == {"X": 0, "Y": 1, "Z": 1}

    def test_measurement_agrees_with_assignment(self):
        rng = np.random.default_rng(2)
        for s, basis in itertools.product(ALL_STATES, BASES):
            assignment = qsl_value_assignment(s)
            for _ in range(10):
                outcome, _ = qsl_measure(s, basis, rng)
                assert outcome == assignment[basis]

    def test_assignment_independent_of_measurement_order(self):
        rng = np.random.default_rng(4)
        for s in ALL_STATES:
            assignment = qsl_value_assignment(s)
            for first, second in itertools.permutations(BASES, 2):
                outcome_first, _ = qsl_measure(s, first, rng)
                outcome_second, _ = qsl_measure(s, second, rng)
                assert outcome_first == assignment[first]
                assert outcome_second == assignment[second]


class TestShotWords:
    def test_isolated_regeneration(self):
        words = shot_words(42, 16)
        for k in (0, 1, 7, 15):
            block = np.random.Philox(key=42, counter=k).random_raw(1)[0]
            assert words[k] == block

    def test_deterministic(self):
        assert np.array_equal(shot_words(9, 100), shot_words(9, 100))

    def test_prefix_stability(self):
        assert np.array_equal(shot_words(9, 100)[:40], shot_words(9, 40))

    def test_seed_sensitivity(self):
        assert not np.array_equal(shot_words(1, 64), shot_words(2, 64))


class TestRunProgram:
    def test_transcript_determinism(self):
        program = QslProgram(("Z", 0), gates=("X",), measurement="Y",
                             shots=500, seed=77)
        a = run_program(program)
        b = run_program(program)
        assert np.array_equal(a.outcomes, b.outcomes)
        assert a.freqs == b.freqs
        assert a.seed == 77

    def test_scalar_replay_matches_vectorized(self):
        words = shot_words(13, 64)
        for prep_basis, meas_basis in itertools.product(BASES, BASES):
            program = QslProgram((prep_basis, 1), gates=("X", "Z"),
                                 measurement=meas_basis, shots=64, seed=13)
            result = run_program(program)
            replayed = [_run_single(program, int(w)) for w in words]
            assert np.array_equal(result.outcomes, np.array(replayed))

    def test_same_basis_frequency_exactly_one(self):
        for basis, value in itertools.product(BASES, (0, 1)):
            program = QslProgram((basis, value), measurement=basis,
                                 shots=2000, seed=3)
            result = run_program(program)
            assert result.freqs[value] == 1.0

    def test_double_x_gate_is_identity(self):
        plain = run_program(QslProgram(("Y", 1), measurement="Y",
                                       shots=100, seed=5))
        doubled = run_program(QslProgram(("Y", 1), gates=("X", "X"),
                                         measurement="Y", shots=100, seed=5))
        assert np.array_equal(plain.outcomes, doubled.outcomes)

    def test_x_gate_flips_z_outcome(self):
        result = run_program(QslProgram(("Z", 0), gates=("X",),
                                        measurement="Z", shots=100, seed=1))
        assert result.freqs[1] == 1.0

    def test_z_gate_flips_x_outcome(self):
        result = run_program(QslProgram(("X", 0), gates=("Z",),
                                        measurement="X", shots=100, seed=1))
        assert result.freqs[1] == 1.0

    def test_either_pauli_gate_flips_y_outcome(self):
        for gate in ("X", "Z"):
            result = run_program(QslProgram(("Y", 0), gates=(gate,),
                                            measurement="Y", shots=100, seed=1))
            assert result.freqs[1] == 1.0

    def test_swap_exchanges_x_and_z_roles(self):
        result = run_program(QslProgram(("Z", 1), gates=("SWAP",),
                                        measurement="X", shots=100, seed=1,
                                        extensions=True))
        assert result.freqs[1] == 1.0


class TestCrossBasisStatistics:
    @pytest.mark.parametrize("prep_basis,meas_basis",
                             list(itertools.product(BASES, BASES)))
    def test_frequencies_match_born_rule(self, prep_basis, meas_basis):
        shots = 100_000
        program = QslProgram((prep_basis, 0), measurement=meas_basis,
                             shots=shots, seed=2024)
        result = run_program(program)
        quantum = quantum_outcome_probs((prep_basis, 0), (), meas_basis)
        if prep_basis == meas_basis:
            assert result.freqs[0] == 1.0
            assert quantum[0] == pytest.approx(1.0, abs=1e-12)
        else:
            assert quantum[0] == pytest.approx(0.5, abs=1e-12)
            assert abs(result.freqs[0] - 0.5) < three_sigma(shots)


class TestQuantumSide:
    def test_same_basis_deterministic(self):
        probs = quantum_outcome_probs(("Z", 0), (), "Z")
        assert probs[0] == pytest.approx(1.0, abs=1e-12)

    def test_x_gate_flips_z_eigenstate(self):
        probs = quantum_outcome_probs(("Z", 0), ("X",), "Z")
        assert probs[1] == pytest.approx(1.0, abs=1e-12)

    def test_z_gate_flips_x_eigenstate(self):
        probs = quantum_outcome_probs(("X", 0), ("Z",), "X")
        assert probs[1] == pytest.approx(1.0, abs=1e-12)

    def test_pauli_gates_flip_y_eigenstate(self):
        for gate in ("X", "Z"):
            probs = quantum_outcome_probs(("Y", 0), (gate,), "Y")
            assert probs[1] == pytest.approx(1.0, abs=1e-12)

    def test_swap_has_no_unitary_counterpart(self):
        with pytest.raises(ValueError):
            quantum_outcome_probs(("Z", 0), ("SWAP",), "X")


class TestStatisticalFidelity:
    def test_identical_distributions(self):
        assert statistical_fidelity({0: 0.5, 1: 0.5}, {0: 0.5, 1: 0.5}) == 1.0

    def test_disjoint_distributions(self):
        assert statistical_fidelity({0: 1.0, 1: 0.0}, {0: 0.0, 1: 1.0}) == 0.0

    def test_halfway(self):
        got = statistical_fidelity({0: 0.75, 1: 0.25}, {0: 0.5, 1: 0.5})
        assert got == pytest.approx(0.75, abs=1e-12)


class TestQslCompare:
    def test_same_basis_fidelity_exactly_one(self):
        report = qsl_compare(QslProgram(("Z", 0), measurement="Z",
                                        shots=1000, seed=11))
        assert report["freqs"][0] == 1.0
        assert report["quantum"][0] == pytest.approx(1.0, abs=1e-12)
        assert report["fidelity"] == pytest.approx(1.0, abs=1e-12)
        assert report["seed"] == 11

    def test_cross_basis_high_fidelity(self):
        shots = 100_000
        report = qsl_compare(QslProgram(("Z", 0), measurement="X",
                                        shots=shots, seed=21))
        assert report["fidelity"] >= 1.0 - three_sigma(shots)

    def test_cli_example_circuit(self):
        shots = 100_000
        report = qsl_compare(QslProgram(("Z", 0), gates=("X", "X"),
                                        measurement="Y", shots=shots, seed=42))
        assert report["quantum"][0] == pytest.approx(0.5, abs=1e-12)
        assert abs(report["freqs"][0] - 0.5) < three_sigma(shots)
        assert report["fidelity"] >= 1.0 - three_sigma(shots)

    def test_swap_program_rejected(self):
        program = QslProgram(("Z", 0), gates=("SWAP",), measurement="X",
                             shots=10, seed=0, extensions=True)
        with pytest.raises(ValueError):
            qsl_compare(program)
