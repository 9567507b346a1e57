"""Classical two-bit simulator of single-qubit stabilizer circuits.

A qubit is modelled by two classical bits: a computational bit `x0` and a
phase bit `p0`, with the convention bit 0 <-> eigenvalue +1 throughout.
Preparations, the bit-flip and phase-flip gates, and X/Y/Z measurements all
act by reversible bit operations plus fresh random bits, yet reproduce the
qubit's outcome statistics for every circuit in this gate set.  The model is
noncontextual by construction: `qsl_value_assignment` reads off a total
value assignment for X, Y and Z from any state.

Verification strategy: simulated frequencies are compared against exact
Born-rule probabilities computed from the corresponding projectors and
unitaries; agreement is checked with binomial three-sigma bounds, and
same-basis circuits must match exactly.  Randomness comes from a
counter-indexed 64-bit Philox stream with one counter block per shot, so
every shot is an independently regenerable stream and transcripts are
deterministic functions of the seed.
"""

from __future__ import annotations

import numpy as np

from .exactlp import TooLargeError
from .quantum import PAULIS, born_prob, dagger, eigen_projector
from .record import Record

BASES = ("X", "Y", "Z")
CORE_GATES = ("X", "Z")
EXTENSION_GATES = ("SWAP",)

MAX_SEED = 2**64
# `shot_words` draws 32 bytes per shot up front.
MAX_SHOTS = 10**7


def _check_bit(value, name: str) -> int:
    if value not in (0, 1):
        raise ValueError(f"{name} must be 0 or 1, got {value!r}")
    return int(value)


def _check_basis(basis) -> str:
    if basis not in BASES:
        raise ValueError(f"basis must be one of {BASES}, got {basis!r}")
    return basis


class QslState(Record):
    """Two-bit state: computational bit `x0` and phase bit `p0`."""

    x0: int
    p0: int

    def __post_init__(self):
        _check_bit(self.x0, "x0")
        _check_bit(self.p0, "p0")


class QslProgram(Record):
    """Prepare-transform-measure circuit with shot count and seed.

    `gates` come from the core set `{X, Z}`; the bit-swap gate `SWAP` is
    admitted only when `extensions` is set (it exchanges the roles of the
    two bits, but has no exact single-qubit unitary counterpart under the
    bit 0 <-> eigenvalue +1 convention, so the comparison path rejects it).
    """

    preparation: tuple[str, int]
    gates: tuple[str, ...] = ()
    measurement: str = "Z"
    shots: int = 1
    seed: int = 0
    extensions: bool = False

    def __post_init__(self):
        basis, value = self.preparation
        object.__setattr__(self, "preparation",
                           (_check_basis(basis), _check_bit(value, "value")))
        object.__setattr__(self, "gates", tuple(self.gates))
        allowed = CORE_GATES + (EXTENSION_GATES if self.extensions else ())
        for gate in self.gates:
            if gate not in allowed:
                raise ValueError(f"gate must be one of {allowed}, got {gate!r}")
        _check_basis(self.measurement)
        if not isinstance(self.shots, int) or self.shots < 1:
            raise ValueError(f"shots must be a positive integer, got {self.shots!r}")
        if self.shots > MAX_SHOTS:
            raise TooLargeError(f"{self.shots} shots exceed {MAX_SHOTS}")
        if not isinstance(self.seed, int) or not 0 <= self.seed < MAX_SEED:
            raise ValueError("seed must be an integer in [0, 2^64)")


def qsl_prepare(basis: str, value: int, rng: np.random.Generator) -> QslState:
    """Prepare the two-bit analogue of a `basis` eigenstate with eigenbit `value`.

    Z fixes the computational bit and randomizes the phase bit; X fixes the
    phase bit and randomizes the computational bit; Y fixes the parity
    `x0 ^ p0` and randomizes one bit.
    """
    _check_basis(basis)
    _check_bit(value, "value")
    r = int(rng.integers(0, 2))
    if basis == "Z":
        return QslState(value, r)
    if basis == "X":
        return QslState(r, value)
    return QslState(r, r ^ value)


def qsl_apply_x(state: QslState) -> QslState:
    """Bit-flip gate: flips the computational bit, phase bit untouched."""
    return QslState(state.x0 ^ 1, state.p0)


def qsl_apply_z(state: QslState) -> QslState:
    """Phase-flip gate: flips the phase bit, computational bit untouched.

    The phase-bit mirror image of `qsl_apply_x`; together they flip any
    Y-parity eigenstate to its opposite, matching conjugation of the Y
    observable by either Pauli unitary.
    """
    return QslState(state.x0, state.p0 ^ 1)


def qsl_apply_swap(state: QslState) -> QslState:
    """Bit-swap gate (extension): exchanges computational and phase bits.

    Swaps the X and Z value assignments while keeping the Y parity fixed.
    A Hadamard rotation also swaps X and Z but reflects Y, so this gate is
    excluded from the quantum comparison path.
    """
    return QslState(state.p0, state.x0)


_GATE_FUNCS = {"X": qsl_apply_x, "Z": qsl_apply_z, "SWAP": qsl_apply_swap}


def qsl_measure(state: QslState, basis: str,
                rng: np.random.Generator) -> tuple[int, QslState]:
    """Measure `basis`, returning `(outcome bit, post-measurement state)`.

    Z returns the computational bit and randomizes the phase bit; X returns
    the phase bit and randomizes the computational bit; Y returns the parity
    and randomizes both bits while preserving that parity.  Repeating the
    same basis therefore always reproduces the outcome.
    """
    _check_basis(basis)
    r = int(rng.integers(0, 2))
    if basis == "Z":
        return state.x0, QslState(state.x0, r)
    if basis == "X":
        return state.p0, QslState(r, state.p0)
    outcome = state.x0 ^ state.p0
    return outcome, QslState(r, r ^ outcome)


def qsl_value_assignment(state: QslState) -> dict[str, int]:
    """Total context-free value assignment `{X, Y, Z} -> outcome bit`.

    Every state simultaneously assigns an outcome to all three observables
    (`Z -> x0`, `X -> p0`, `Y -> x0 ^ p0`); `qsl_measure` always returns the
    entry for its basis, which exhibits the model's noncontextual
    hidden-variable table explicitly.
    """
    return {"X": state.p0, "Y": state.x0 ^ state.p0, "Z": state.x0}


def shot_words(seed: int, shots: int) -> np.ndarray:
    """One 64-bit randomness word per shot from counter-indexed Philox blocks.

    Shot `k` owns counter block `k` of `Philox(key=seed)` and uses the first
    output word of its block, so its randomness is a pure function of
    `(seed, k)` regenerable in isolation as
    `Philox(key=seed, counter=k).random_raw(1)[0]`.  Shots are therefore
    independent streams and aggregation order is irrelevant.
    """
    if not isinstance(seed, int) or not 0 <= seed < MAX_SEED:
        raise ValueError("seed must be an integer in [0, 2^64)")
    if shots < 1:
        raise ValueError("shots must be positive")
    raw = np.random.Philox(key=seed).random_raw(4 * shots)
    return np.asarray(raw[0::4], dtype=np.uint64)


class QslRunResult(Record):
    """Transcript of a program run: per-shot outcomes plus frequencies."""

    program: QslProgram
    outcomes: np.ndarray
    freqs: dict[int, float]
    seed: int


def run_program(program: QslProgram) -> QslRunResult:
    """Run all shots of `program`, one Philox counter block per shot.

    Vectorized over shots; bit 0 of a shot's word feeds the preparation and
    bit 1 the measurement's post-state randomization (recorded outcomes
    never depend on it), exactly as in the scalar replay path, so identical
    seeds produce identical transcripts.
    """
    words = shot_words(program.seed, program.shots)
    r1 = (words & 1).astype(np.uint8)
    basis, value = program.preparation
    if basis == "Z":
        x0 = np.full(program.shots, value, dtype=np.uint8)
        p0 = r1
    elif basis == "X":
        x0 = r1
        p0 = np.full(program.shots, value, dtype=np.uint8)
    else:
        x0 = r1
        p0 = r1 ^ value
    for gate in program.gates:
        if gate == "X":
            x0 = x0 ^ 1
        elif gate == "Z":
            p0 = p0 ^ 1
        else:
            x0, p0 = p0, x0
    if program.measurement == "Z":
        outcomes = x0
    elif program.measurement == "X":
        outcomes = p0
    else:
        outcomes = x0 ^ p0
    counts = np.bincount(outcomes, minlength=2)
    freqs = {0: counts[0] / program.shots, 1: counts[1] / program.shots}
    return QslRunResult(program=program, outcomes=outcomes, freqs=freqs,
                        seed=program.seed)


def quantum_outcome_probs(preparation: tuple[str, int], gates,
                          measurement: str) -> dict[int, float]:
    """Exact Born-rule outcome probabilities for the corresponding circuit.

    The preparation is the eigenstate of the Pauli observable named by the
    basis (bit 0 <-> eigenvalue +1), gates act as the Pauli unitaries of the
    same name, and the measurement is the named Pauli observable's PVM.
    """
    basis, value = preparation
    _check_basis(basis)
    _check_bit(value, "value")
    _check_basis(measurement)
    rho = eigen_projector(PAULIS[basis], 1 if value == 0 else -1)
    for gate in gates:
        if gate not in CORE_GATES:
            raise ValueError(
                f"no exact unitary counterpart for gate {gate!r} under the "
                "bit 0 <-> eigenvalue +1 convention")
        u = PAULIS[gate]
        rho = u @ rho @ dagger(u)
    probs = {}
    for bit in (0, 1):
        proj = eigen_projector(PAULIS[measurement], 1 if bit == 0 else -1)
        probs[bit] = born_prob(rho, proj)
    return probs


def statistical_fidelity(freqs: dict[int, float],
                         probs: dict[int, float]) -> float:
    """Complement of the total variation distance, `1 - sum|P - Q| / 2`."""
    keys = sorted(set(freqs) | set(probs))
    return 1.0 - 0.5 * sum(abs(freqs.get(k, 0.0) - probs.get(k, 0.0))
                           for k in keys)


def qsl_compare(program: QslProgram) -> dict:
    """Run `program` and compare frequencies with exact quantum predictions.

    Returns `{"freqs", "quantum", "fidelity", "seed", "shots"}` where
    `fidelity` is `statistical_fidelity` between the simulated frequencies
    and the Born-rule probabilities of the corresponding circuit.
    """
    result = run_program(program)
    quantum = quantum_outcome_probs(program.preparation, program.gates,
                                    program.measurement)
    return {
        "freqs": result.freqs,
        "quantum": quantum,
        "fidelity": statistical_fidelity(result.freqs, quantum),
        "seed": program.seed,
        "shots": program.shots,
    }
